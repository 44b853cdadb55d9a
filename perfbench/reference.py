"""Correctness of a workload pass: stored reference outputs and the program's
own criteria.

``references.json`` holds, per workload, the outputs the program produced at
the commit that defined the benchmark, grouped by the seeds that produce
them.  Sweeps store one row per (alpha, delta) cell without ``runtime_s``;
``steer-wide`` stores each verification check's ``measured`` value.  Values
agree when ``|got - want| <= RTOL * |want| + ATOL``: loose enough for BLAS or
summation reordering (which moves results by about 1e-13), tight enough to
fail a wrong answer.  ``ATOL`` only matters for the round-off-sized identity
gaps of the verification suite, which are compared against their own
tolerance by the suite itself.

Regenerate from the repository root (this overwrites the reference, so do it
only when the reference program itself is meant to change):

    python3 perfbench/reference.py --write 0-63 20240811
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-12
SWEEP_FIELDS = ("alpha", "delta", "error_total", "error_nl", "error_lin", "steps")
CSV_HEADER = "alpha,delta,error_total,error_nl,error_lin,runtime_s,steps"
HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "references.json"


def sweep_outcome(rows) -> list:
    """Result rows as lists of SWEEP_FIELDS, deltas then alphas descending."""
    ordered = sorted(rows, key=lambda r: (-r.delta, -r.alpha))
    return [[getattr(r, f) for f in SWEEP_FIELDS] for r in ordered]


def csv_outcome(text: str, seed: int) -> tuple[list, list[str]]:
    """Rows of a CLI sweep CSV in the form of :func:`sweep_outcome`."""
    lines = text.splitlines()
    problems = []
    if not lines or lines[0] != f"# seed={seed}":
        problems.append(f"CSV seed line is {lines[:1]!r}, expected '# seed={seed}'")
        return [], problems
    if lines[1:2] != [CSV_HEADER]:
        problems.append(f"CSV header is {lines[1:2]!r}")
        return [], problems
    rows = []
    for line in lines[2:]:
        alpha, delta, total, nl, lin, _runtime, steps = line.split(",")
        rows.append([float(alpha), float(delta), float(total), float(nl), float(lin), int(steps)])
    rows.sort(key=lambda r: (-r[1], -r[0]))
    return rows, problems


def suite_outcome(results) -> dict:
    return {r.name: float(r.measured) for r in results}


def load() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def expected(refs: dict, workload: str, seed: int):
    """Stored output of the workload at this seed, or None if none is stored."""
    for group in refs.get(workload, []):
        if seed in group["seeds"]:
            return group["value"]
    return None


def _close(got, want) -> bool:
    if isinstance(want, int) and not isinstance(want, bool):
        return got == want
    return math.isfinite(got) and abs(got - want) <= RTOL * abs(want) + ATOL


def compare(got, want) -> list[str]:
    """Differences between an outcome and its stored reference."""
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return [f"check names {sorted(got)} differ from reference {sorted(want)}"]
        return [
            f"{name}: {got[name]!r} != reference {want[name]!r}"
            for name in want
            if not _close(got[name], want[name])
        ]
    if len(got) != len(want):
        return [f"{len(got)} rows, reference has {len(want)}"]
    problems = []
    for row, ref in zip(got, want):
        for field, g, w in zip(SWEEP_FIELDS, row, ref):
            if not _close(g, w):
                problems.append(f"cell alpha={ref[0]:g} delta={ref[1]:g}: {field} {g!r} != reference {w!r}")
    return problems


def _seeds(tokens) -> list[int]:
    out = []
    for tok in tokens:
        lo, _, hi = tok.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def write_references(seeds: list[int]) -> None:
    root = HERE.parent
    sys.path.insert(0, str(root / "src"))
    import beamsteer

    refs = {}
    for workload in ("sweep-default", "sweep-long", "steer-wide"):
        groups = []
        for seed in seeds:
            spec = beamsteer.load_experiment(str(HERE / "workloads" / f"{workload}.ini"), seed)
            if workload == "steer-wide":
                value = suite_outcome(beamsteer.run_linear_suite(spec))
            else:
                value = sweep_outcome(beamsteer.run_pullback_experiment(spec))
            for group in groups:
                if group["value"] == value:
                    group["seeds"].append(seed)
                    break
            else:
                groups.append({"seeds": [seed], "value": value})
        refs[workload] = groups
        print(f"{workload}: {len(groups)} distinct outputs over {len(seeds)} seeds")
    dump(refs)


def dump(refs: dict) -> None:
    """Write references with one seed group per line."""
    lines = []
    for workload, groups in refs.items():
        body = ",\n  ".join(json.dumps(group) for group in groups)
        lines.append(f" {json.dumps(workload)}: [\n  {body}\n ]")
    REFERENCE_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", nargs="+", metavar="SEEDS", required=True,
                        help="seeds or seed ranges such as 0-63")
    write_references(_seeds(parser.parse_args().write))
