"""Command-line entry points.

Subcommands:
    linear-check   verification suite for the linear steering machinery
    gramian-check  Gramian positivity and cross-validation report
    steer          one linear steering solve with the residual identity
    pullback       one pullback cell (largest delta, smallest alpha)
    sweep          full (delta, alpha) grid, written as CSV

Exit codes: 0 all checks passed, 1 a check failed, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import replace

import numpy as np

from .config import load_experiment
from .errors import BlowUpError, ConfigError, InvalidArgumentError
from .gramian import assemble_gramian
from .harness import (
    CROSS_PATH_TOL,
    emit_csv,
    gramian_cross_check,
    make_random_state,
    make_target,
    residual_identity,
    run_linear_suite,
    run_pullback_experiment,
    suite_ok,
    summarize_rows,
)
from .spectral import energy_norm
from .steering import SteeringProblem, steer_linear


def _say(args, *text):
    if not args.quiet:
        print(*text)


def _write_csv(rows, out, seed) -> bool:
    """Write the CSV; a failed write is reported on one stderr line."""
    try:
        emit_csv(rows, out, seed=seed)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def _unwritable(out) -> bool:
    """Report before any run, as its write would, a CSV path that is a folder or has none."""
    if not out or not os.path.isdir(out) and os.path.isdir(os.path.dirname(out) or "."):
        return False
    code = errno.EISDIR if os.path.isdir(out) else errno.ENOENT
    error = OSError(code, os.strerror(code), out)
    print(f"error: could not write CSV to {out}: {error}", file=sys.stderr)
    return True


def _cmd_linear_check(spec, args) -> int:
    results = run_linear_suite(spec)
    for r in results:
        _say(args, r.describe())
    return 0 if suite_ok(results) else 1


def _cmd_gramian_check(spec, args) -> int:
    modes = spec.config.modes
    ok = True
    for delta in sorted(spec.deltas, reverse=True):
        gramians = assemble_gramian(modes, spec.config.beta, delta)
        _, cross = gramian_cross_check(gramians)
        good = gramians.positive_definite and cross <= CROSS_PATH_TOL
        ok = ok and good
        _say(
            args,
            f"{'PASS' if good else 'FAIL'} delta={delta:g}: "
            f"min_eig={gramians.min_eigenvalue:.3e} cross_path_rel_gap={cross:.3e}",
        )
    return 0 if ok else 1


def _cmd_steer(spec, args) -> int:
    config = spec.config
    if spec.target_kind == "free_trajectory":
        raise ConfigError("steer has no base run to take a free-trajectory target from")
    modes = config.modes
    delta = max(spec.deltas)
    alpha = min(spec.alphas)
    rng = np.random.default_rng(spec.seed)
    y0 = make_random_state(modes, rng, 1.0)
    z1 = make_target(spec.target_kind, modes, rng, spec.target_scale, spec.target_mode)
    gramians = assemble_gramian(modes, config.beta, delta)
    q_quad, _ = gramian_cross_check(gramians)
    problem = SteeringProblem(y0, z1, alpha)
    control, measured, formula = residual_identity(problem, gramians, q_quad)
    err = energy_norm(steer_linear(y0, control) - z1, modes)
    # the one cell of the control
    err, formula, gap = err[0], formula[0], abs(measured - formula)[0]
    _say(args, f"steer: delta={delta:g} alpha={alpha:g}")
    _say(args, f"  terminal error        = {err:.6e}")
    _say(args, f"  residual formula      = {formula:.6e}")
    _say(args, f"  identity gap          = {gap:.3e}")
    return 0 if gap <= CROSS_PATH_TOL * max(1.0, formula) else 1


def _cmd_pullback(spec, args) -> int:
    if _unwritable(args.out):
        return 1
    delta, alpha = max(spec.deltas), min(spec.alphas)
    (row,) = run_pullback_experiment(replace(spec, deltas=[delta], alphas=[alpha]))
    _say(args, f"pullback: delta={delta:g} alpha={alpha:g}")
    _say(args, f"  error_total = {row.error_total:.6e}  (epsilon = {spec.epsilon:g})")
    _say(args, f"  error_nl    = {row.error_nl:.6e}")
    _say(args, f"  error_lin   = {row.error_lin:.6e}")
    if args.out:
        if not _write_csv([row], args.out, spec.seed):
            return 1
        _say(args, f"  wrote {args.out}")
    return 0 if row.error_total < spec.epsilon else 1


def _cmd_sweep(spec, args) -> int:
    out = args.out or spec.out_path
    if _unwritable(out):
        return 1
    rows = run_pullback_experiment(spec)
    summary = summarize_rows(rows, spec.epsilon)
    if out:
        if not _write_csv(rows, out, spec.seed):
            return 1
        _say(args, f"wrote {len(rows)} rows to {out}")
    _say(args, f"best error_total      = {summary['best_error']:.6e}")
    _say(args, f"goal (< {spec.epsilon:g}) met    = {summary['goal_met']}")
    _say(args, f"error_lin monotone    = {summary['error_lin_monotone']}")
    _say(args, f"fitted error_nl slope = {summary['nl_slope']:.6e}")
    return 0 if summary["goal_met"] and summary["error_lin_monotone"] else 1


_COMMANDS = {
    "linear-check": _cmd_linear_check,
    "gramian-check": _cmd_gramian_check,
    "steer": _cmd_steer,
    "pullback": _cmd_pullback,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="beamsteer",
        description="Steering experiments for the damped beam with delay, memory and impulses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="configuration file (INI)")
        p.add_argument("--out", default=None, help="output CSV path")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    try:
        spec = load_experiment(args.config, seed_override=args.seed)
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](spec, args)
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except (InvalidArgumentError, BlowUpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
