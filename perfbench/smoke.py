"""Smoke check of the benchmark itself.

Run from the repository root:

    python3 perfbench/smoke.py [--seconds 3] [--seed 1]

Runs every workload briefly, untraced and traced, and checks that

* the result line names every metric BENCHMARK.json declares, with its unit,
  and reports no failed operation;
* the traced shares match what each workload was built for: on the sweeps
  ``dynamics.simulate`` has the largest self time, at least MIN_SHARE of the
  traced pass; on ``steer-wide`` ``steering.steer_linear`` does, and
  ``simulate`` records no call.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# workload -> (function with the largest self time, its least share of a pass)
DOMINANT = {
    "sweep-default": ("dynamics.simulate", 2 / 3),
    "sweep-long": ("dynamics.simulate", 0.9),
    "steer-wide": ("steering.steer_linear", 2 / 3),
}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(workload: str, seed: int, seconds: float, declared: dict) -> list[str]:
    problems = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = run(workload, seed, seconds, trace)
        if not result["correct"] or result["failed"]:
            problems.append(f"trace={trace}: {result['failed']} of {result['attempted']} failed")
        metrics = result["metrics"]
        for entry in declared[kind]:
            got = metrics.get(entry["name"])
            if got is None or got["unit"] != entry["unit"]:
                problems.append(f"trace={trace}: {entry['name']} [{entry['unit']}] missing, got {got}")
    dominant, share = DOMINANT[workload]
    self_times = {name[: -len(".self_s")]: m["value"]
                  for name, m in metrics.items() if name.endswith(".self_s")}
    largest = max(self_times, key=self_times.get)
    measured = self_times[dominant] / metrics["trace.pass_s"]["value"]
    print(f"{workload}: largest self time {largest}, {dominant} {measured:.1%} of the traced pass")
    if largest != dominant:
        problems.append(f"largest self time is {largest}, expected {dominant}")
    if measured < share:
        problems.append(f"{dominant} self time is {measured:.1%} of the pass, expected >= {share:.1%}")
    if workload == "steer-wide" and metrics["dynamics.simulate.calls"]["value"] != 0:
        problems.append("dynamics.simulate records calls on steer-wide")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description="smoke check of the beamsteer benchmark")
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in DOMINANT:
        problems += [f"{workload}: {p}" for p in check(workload, args.seed, args.seconds, declared)]
    for problem in problems:
        print("FAIL", problem)
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
