"""Set-up probe, started in a fresh interpreter by run.py.

Usage: python3 perfbench/probe_setup.py CONFIG SEED   (with src on PYTHONPATH)

Imports the package, builds the validated ExperimentSpec and prints two
numbers: the ``time.perf_counter()`` reading once the spec exists (a
system-wide monotonic clock on Linux, so the parent can subtract its own
reading taken before starting this process) and the duration of
``load_experiment`` alone.
"""

import sys
import time


def main() -> None:
    import beamsteer

    start = time.perf_counter()
    beamsteer.load_experiment(sys.argv[1], seed_override=int(sys.argv[2]))
    ready = time.perf_counter()
    print(repr(ready), repr(ready - start))


if __name__ == "__main__":
    main()
