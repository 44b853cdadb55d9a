"""beamsteer benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-default --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of the same checkout, so nothing needs
to be installed.  Workloads (configs in ``perfbench/workloads/``):

  sweep-default  ``run_pullback_experiment`` on the default config: 15 cells,
                 16 ``simulate`` calls of 600 steps.  Where cell batching and
                 prefix reuse show.
  sweep-long     3 ``simulate`` calls of 4800 steps over 2 cells.  The
                 O(steps) memory re-sum per step dominates; batching gains
                 little.
  steer-wide     ``run_linear_suite`` with 32 modes: ten ``steer_linear`` calls
                 and no ``simulate`` call, so dynamics changes should not
                 move it.

A run has three phases.  Set-up: fresh interpreters that import the package
and build the spec (``setup_s``, ``config.load_experiment.s``).  CLI: fresh
``python -m beamsteer`` processes on the workload (``peak_rss_mb``,
``cli.wall_s``).  Passes: after one warm-up pass, in-process passes repeat
for ``--seconds`` (``pass_s``).  With ``--trace 1`` every second pass runs
with the layer functions wrapped (see tracing.py); the others stay untraced,
so ``trace.overhead`` compares the two under the same load.

Times are reported in reference seconds (see ``Clock``): on a shared
machine the wall time of the same pass drifts by up to a factor of two
within minutes, and a fixed calibration kernel timed next to every
operation takes that drift out.  Raw wall medians are printed alongside.

Every pass and CLI run is checked against the stored reference of its seed
(reference.py) and against the program's own criteria.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people.
"""

from __future__ import annotations

import os

# The largest linear algebra here is a stack of 2x2 blocks, so BLAS threads
# would only add scheduler noise: the load is one process on one thread.
# Set before numpy is imported, here and in every child process.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median, quantiles  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
from tracing import Tracer, per_layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# workload -> CLI subcommand
WORKLOADS = {
    "sweep-default": "sweep",
    "sweep-long": "sweep",
    "steer-wide": "linear-check",
}
# Functions that must record calls on a workload in the traced run; zero
# calls there means the workload no longer loads the layer it was built for.
EXPECTED_CALLS = {
    "sweep-default": ("dynamics.simulate", "steering.steer_linear"),
    "sweep-long": ("dynamics.simulate", "steering.steer_linear"),
    "steer-wide": ("steering.steer_linear",),
}
SETUP_PROBES = 9  # measured fresh interpreters, after one unmeasured
CLI_RUNS = 3
MIN_PASSES = 4
CHILD_TIMEOUT_S = 150
CAL_ITERATIONS = 16000
CAL_REFERENCE_S = 0.025  # calibration wall time that defines speed factor 1


def calibrate() -> float:
    """Wall seconds of a fixed kernel that mixes interpreter work with small
    numpy operations, as the program's step loops do."""
    x = np.zeros(8)
    acc = 0.0
    table = {}
    start = time.perf_counter()
    for i in range(CAL_ITERATIONS):
        x = x * 0.5 + 1.0
        acc += float(x[i % 8]) ** 0.5
        table[i & 63] = acc
    return time.perf_counter() - start


class Clock:
    """Speed factor of the machine around each measured operation.

    ``factor()`` is called right after an operation: it times the
    calibration kernel and returns the mean of that and the previous
    calibration over ``CAL_REFERENCE_S``.  A metric over several operations
    is ``sum(wall) / sum(factor)``, seconds at the reference speed; the
    ratio of sums keeps slow stretches from counting twice.
    """

    def __init__(self):
        self.last = calibrate()

    def factor(self) -> float:
        now = calibrate()
        out = (self.last + now) / (2.0 * CAL_REFERENCE_S)
        self.last = now
        return out


def reference_seconds(walls, factors) -> float:
    return sum(walls) / sum(factors)


class Tally:
    """Attempted and failed operations; a failure is also told on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAIL {what}: {problem}", file=sys.stderr)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def machine_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "commit": commit,
    }


def measure_setup(config: Path, seed: int, clock: Clock, tally: Tally) -> tuple[float, float]:
    """Median reference seconds from starting an interpreter to a validated
    spec, and the same for ``load_experiment`` alone inside it."""
    totals, loads = [], []
    for k in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), str(config), str(seed)],
            env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        factor = clock.factor()
        problems = [] if done.returncode == 0 else [f"exit {done.returncode}: {done.stderr.strip()}"]
        tally.record("set-up probe", problems)
        if problems:
            continue
        ready, load = (float(x) for x in done.stdout.split())
        if k > 0:  # the first fills the bytecode cache
            totals.append((ready - start) / factor)
            loads.append(load / factor)
    if not totals:
        raise SystemExit("every set-up probe failed")
    return median(totals), median(loads)


def run_cli(workload: str, config: Path, seed: int, out: Path) -> tuple[float, float, int, str]:
    """One CLI process: wall seconds, peak RSS in MB, exit code, stderr."""
    command = [sys.executable, "-m", "beamsteer", WORKLOADS[workload],
               "--config", str(config), "--seed", str(seed), "--quiet"]
    if WORKLOADS[workload] == "sweep":
        command += ["--out", str(out)]
    err_path = out.with_suffix(".err")
    with open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, env=child_env(), cwd=out.parent,
                                stdout=subprocess.DEVNULL, stderr=err)
        # wait4 reports the child's own peak RSS; the timer ends a hung child
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, err_path.read_text().strip()


def measure_cli(workload, config, seed, want, tmp: Path, clock: Clock, tally: Tally):
    """Reference seconds and median peak RSS of CLI_RUNS CLI processes."""
    walls, factors, rss = [], [], []
    for k in range(CLI_RUNS):
        out = tmp / f"cli-{k}.csv"
        wall, peak, code, err = run_cli(workload, config, seed, out)
        walls.append(wall)
        factors.append(clock.factor())
        rss.append(peak)
        problems = [] if code == 0 else [f"exit code {code}: {err}"]
        if code == 0 and WORKLOADS[workload] == "sweep":
            rows, problems = reference.csv_outcome(out.read_text(), seed)
            if want is not None and not problems:
                problems = reference.compare(rows, want)
        tally.record(f"CLI run {k}", problems)
    return reference_seconds(walls, factors), median(rss)


def make_pass(beamsteer, workload: str, spec, want):
    """A function running one in-process pass; it returns the pass's wall
    seconds and the problems found in its output."""
    if WORKLOADS[workload] == "sweep":
        def check(rows):
            summary = beamsteer.summarize_rows(rows, spec.epsilon)
            problems = [f"{key} is False" for key in ("goal_met", "error_lin_monotone")
                        if not summary[key]]
            if want is not None:
                problems += reference.compare(reference.sweep_outcome(rows), want)
            return problems
        entry = "run_pullback_experiment"
    else:
        def check(results):
            problems = [r.describe() for r in results if not r.passed]
            if want is not None:
                problems += reference.compare(reference.suite_outcome(results), want)
            return problems
        entry = "run_linear_suite"

    def one_pass():
        start = time.perf_counter()
        try:
            # looked up per call, so a traced pass runs the wrapped entry point
            out = getattr(beamsteer, entry)(spec)
        except Exception:
            return time.perf_counter() - start, [traceback.format_exc()]
        elapsed = time.perf_counter() - start
        return elapsed, check(out)

    return one_pass


class Passes:
    """Wall times and speed factors of a series of passes."""

    def __init__(self):
        self.walls = []
        self.factors = []

    def add(self, wall: float, factor: float) -> None:
        self.walls.append(wall)
        self.factors.append(factor)

    def seconds(self) -> float:
        return reference_seconds(self.walls, self.factors)

    def describe(self) -> str:
        n = len(self.walls)
        text = f"n={n}, raw wall median {median(self.walls):.4g} s"
        if n >= 2:
            q1, _, q3 = quantiles(self.walls, n=4)
            text += f" (quartiles {q1:.4g}-{q3:.4g})"
        return text + f", speed factor median {median(self.factors):.3g}"


def timed_passes(one_pass, seconds: float, clock: Clock, tally: Tally, tracer=None):
    """Repeat passes for ``seconds`` after one warm-up pass.  With a tracer,
    odd passes are traced.  Returns the untraced and traced passes and the
    per-pass span summaries of the traced ones."""
    tally.record("warm-up pass", one_pass()[1])
    clock.factor()
    plain, traced, layers = Passes(), Passes(), []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < MIN_PASSES or time.perf_counter() < deadline:
        if tracer is not None and k % 2:
            with tracer:
                elapsed, problems = one_pass()
            traced.add(elapsed, clock.factor())
            layers.append(tracer.take_pass())
        else:
            elapsed, problems = one_pass()
            plain.add(elapsed, clock.factor())
        tally.record(f"pass {k}", problems)
        k += 1
    return plain, traced, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="beamsteer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "beamsteer" / "__init__.py").is_file():
        print(f"no beamsteer sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import beamsteer

    if Path(beamsteer.__file__).resolve().parent != SRC / "beamsteer":
        print(f"imported beamsteer from {beamsteer.__file__}, not {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    config = HERE / "workloads" / f"{args.workload}.ini"
    want = reference.expected(reference.load(), args.workload, args.seed)

    # One CPU for the run and every child it starts: the speed of each CPU of
    # a shared machine drifts on its own, so the calibration must run on the
    # CPU that runs the measured work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(f"beamsteer benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine:", json.dumps(machine_record()))
    print("reference:", "stored for this seed" if want is not None
          else "none for this seed, checking the program's own criteria only")

    tally = Tally()
    clock = Clock()
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setup_s, load_s = measure_setup(config, args.seed, clock, tally)
        cli_s, rss_mb = measure_cli(args.workload, config, args.seed, want, tmp, clock, tally)
        spec = beamsteer.load_experiment(str(config), seed_override=args.seed)
        one_pass = make_pass(beamsteer, args.workload, spec, want)
        tracer = Tracer(beamsteer) if args.trace else None
        plain, traced, layers = timed_passes(one_pass, args.seconds, clock, tally, tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    values = {}
    notes = {}
    if args.trace:
        for name in EXPECTED_CALLS[args.workload]:
            if name in tracer.present and any(p[name][0] == 0 for p in layers):
                raise SystemExit(f"traced run: {name} recorded zero calls on {args.workload}, "
                                 "which is built to load it")
        values.update(per_layer_metrics(layers, traced.factors, tracer.present))
        values["config.load_experiment.s"] = load_s
        values["cli.wall_s"] = cli_s
        values["trace.pass_s"] = traced.seconds()
        values["trace.overhead"] = traced.seconds() / plain.seconds() - 1.0
        values["pass.wall_s"] = median(plain.walls)
        values["machine.speed_factor"] = median(plain.factors + traced.factors)
        notes["trace.pass_s"] = traced.describe()
        notes["trace.overhead"] = f"against untraced {plain.describe()}"
        if tracer.absent:
            print("absent (not in the package):", ", ".join(tracer.absent))
    else:
        values["setup_s"] = setup_s
        values["pass_s"] = plain.seconds()
        values["peak_rss_mb"] = rss_mb
        notes["setup_s"] = f"median of {SETUP_PROBES} fresh interpreters"
        notes["pass_s"] = plain.describe()
        notes["peak_rss_mb"] = f"median of {CLI_RUNS} CLI processes"

    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name:40s} {values[name]:>12.6g} {unit:5s} {notes.get(name, '')}")
    fail_ratio = tally.failed / tally.attempted
    print(f"{'fail_ratio':40s} {fail_ratio:>12.6g} ratio "
          f"{tally.failed} failed of {tally.attempted} attempted")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
