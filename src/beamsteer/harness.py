"""Experiment orchestration: pullback runs, verification suite, CSV output.

The pullback experiment follows the constructive steering recipe: simulate
with zero control up to the window start, synthesize the regularized
steering control from the state reached there, and add to the steered linear
solution the window's forced response R, which ``window_response`` sums from
the zero-control run.  That run is simulated once for every cell, and all
alphas of one window form one batch.  The linear layer of every window is one
stacked evaluation with the windows on a leading axis: one Gramian set, one
control and one linear steer of all windows, and window i's sum takes the
control's window i.  Per (alpha, delta) cell, with y(tau) the steered linear
state and z(tau) = y(tau) + R, the recorded errors are

    error_total = ||z(tau) - z1|| = ||(y(tau) - z1) + R||  (goal of the experiment)
    error_nl    = ||R||              (nonlinear/memory window effect)
    error_lin   = ||y(tau) - z1||    (regularisation residual)

All randomness is drawn from one seeded generator in a fixed order (history
first, then target), so a seed pins the experiment exactly.  The generator is
built only when a preset draws, so a sweep that draws nothing never imports
``numpy.random``.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import BLOWUP_THRESHOLD, SimConfig, Trajectory, simulate, window_response
from .errors import InvalidArgumentError
from .gramian import GramianSet, assemble_gramian, gramian_mode_quadrature
from .semigroup import propagate
from .spectral import BeamState, ModeSet, energy_coords, energy_norm, state_from_coords
from .steering import (
    SteeringProblem,
    alpha_sweep,
    approximate_right_inverse_check,
    control_energy,
    steer_linear,
    synthesize_control,
)

CSV_HEADER = "alpha,delta,error_total,error_nl,error_lin,runtime_s,steps"
# Largest admitted gap between the closed-form and the quadrature path, for the
# Gramian blocks (relative to sqrt(Q_ii Q_jj)) and the identities mapped through them;
# the residual identity's gap is relative to the residual past 1, as its rounding is.
CROSS_PATH_TOL = 1e-12


@dataclass
class ResultRow:
    """One cell of the pullback sweep."""

    alpha: float
    delta: float
    error_total: float
    error_nl: float
    error_lin: float
    runtime_s: float
    steps: int


@dataclass
class CheckResult:
    """One verification-suite line: a named measure against a tolerance."""

    name: str
    passed: bool
    measured: float
    tolerance: float
    expected_fail: bool = False

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tag = " (expected failure probe)" if self.expected_fail else ""
        return f"{status} {self.name}: measured={self.measured:.3e} tol={self.tolerance:.3e}{tag}"


@dataclass
class ExperimentSpec:
    """Sweep description: simulation template plus target and grids."""

    config: SimConfig
    deltas: list = field(default_factory=list)
    alphas: list = field(default_factory=list)
    epsilon: float = 1e-2
    target_kind: str = "single_mode"
    target_mode: int = 1
    target_scale: float = 1.0
    history_kind: str = "zero"
    history_amplitude: float = 0.0
    history_mode: int = 1
    seed: int = 0
    out_path: str | None = None

    def __post_init__(self):
        for name, values in (("delta", list(self.deltas)), ("alpha", list(self.alphas))):
            if not values:
                raise InvalidArgumentError(f"{name} list must not be empty")
            counts = Counter(values)
            if len(counts) < len(values):  # duplicate rows would fail the sweep's own checks
                repeated = next(x for x in values if counts[x] > 1)
                raise InvalidArgumentError(f"{name}s repeat the value {repeated:g}")
        if any(not 0 < a <= 1 for a in self.alphas):
            raise InvalidArgumentError("alphas must lie in (0, 1]")
        if not 0 < self.epsilon < np.inf:
            raise InvalidArgumentError("epsilon must be positive and finite")
        if self.seed < 0:
            raise InvalidArgumentError("seed must be nonnegative")
        if not np.isfinite(self.history_amplitude):
            raise InvalidArgumentError("history_amplitude must be finite")
        if not abs(self.target_scale) <= BLOWUP_THRESHOLD:  # no run may pass it
            raise InvalidArgumentError(f"target_scale must lie within {BLOWUP_THRESHOLD:g}")
        # the longest window's sum holds its blocks once per alpha, beside the base run's nodes
        config = self.config
        start = min(config.validate_delta(delta) for delta in self.deltas)
        config.check_run_bytes(len(self.alphas), config.delay_steps + config.horizon_steps - start)
        if self.target_kind not in ("single_mode", "random", "free_trajectory"):
            raise InvalidArgumentError(f"unknown target kind {self.target_kind!r}")
        if self.history_kind not in ("zero", "single_mode", "random"):
            raise InvalidArgumentError(f"unknown history kind {self.history_kind!r}")
        for name in ("target_mode", "history_mode"):
            if not 1 <= getattr(self, name) <= self.config.n_modes:
                raise InvalidArgumentError(f"{name} must lie in 1..{self.config.n_modes}")


def make_random_state(modes: ModeSet, rng, amplitude: float = 1.0) -> BeamState:
    """Smooth random state: modal energy amplitudes fall off like j**-2,
    normalised so the energy norm equals ``amplitude``."""
    j = np.arange(1, modes.count + 1, dtype=float)
    coords = rng.standard_normal((modes.count, 2)) * (j**-2.0)[:, None]
    nrm = np.linalg.norm(coords)
    if nrm == 0:
        coords[0, 1] = 1.0
        nrm = 1.0
    return state_from_coords(coords * (amplitude / nrm), modes)


def make_history(kind, amplitude, delay, modes, rng, mode_index: int = 1):
    """History by named preset: maps n times in [-delay, 0] to (w, v) arrays of shape (n, N)."""
    n = modes.count
    if kind == "zero":
        return lambda s: (np.zeros((s.size, n)), np.zeros((s.size, n)))
    freq = np.pi / (2.0 * delay)
    if kind == "single_mode":

        def phi(s):
            w, v = np.zeros((2, s.size, n))
            w[:, mode_index - 1] = amplitude * np.cos(freq * s)
            v[:, mode_index - 1] = -amplitude * freq * np.sin(freq * s)
            return w, v

        return phi
    if kind == "random":
        anchor = make_random_state(modes, rng, amplitude)
        wobble = make_random_state(modes, rng, 0.5 * amplitude)

        def phi(s):
            wave = np.sin(freq * s)[:, None]
            return anchor.w + wave * wobble.w, anchor.v + wave * wobble.v

        return phi
    raise InvalidArgumentError(f"unknown history kind {kind!r}")


def make_target(kind, modes, rng, scale=1.0, mode_index=1, free_point=None) -> BeamState:
    """Target state by named preset.

    ``single_mode`` is a pure velocity target of size ``scale`` in one mode
    (velocity is the directly actuated coordinate, so such targets remain
    reachable at moderate regularisation); ``random`` is a smooth seeded
    state of energy norm ``scale``; ``free_trajectory`` is the supplied
    terminal point of the base run.
    """
    if kind == "single_mode":
        z = BeamState.zeros(modes.count)
        z.v[mode_index - 1] = scale
        return z
    if kind == "random":
        return make_random_state(modes, rng, scale)
    if kind == "free_trajectory":
        if free_point is None:
            raise InvalidArgumentError("free-trajectory target needs the base run")
        return free_point.copy()
    raise InvalidArgumentError(f"unknown target kind {kind!r}")


def pullback_setup(spec: ExperimentSpec):
    """Config with the seeded history, its zero-control base run and the target.

    One generator of ``spec.seed`` draws the history first, then the target.  Only
    the ``random`` presets draw, and the generator is built only when one of them is
    chosen: otherwise both presets get ``rng=None`` and ``numpy.random`` is never imported.
    """
    draws = "random" in (spec.history_kind, spec.target_kind)
    rng = np.random.default_rng(spec.seed) if draws else None
    modes = spec.config.modes
    history = make_history(
        spec.history_kind, spec.history_amplitude, spec.config.delay, modes, rng, spec.history_mode
    )
    config = spec.config.with_history(history)
    base_traj = simulate(config)
    target = make_target(
        spec.target_kind, modes, rng, scale=spec.target_scale, mode_index=spec.target_mode,
        free_point=base_traj.terminal(),
    )
    return config, base_traj, target


def gramian_cross_check(gramians: GramianSet):
    """Quadrature blocks of a one-window Gramian set and their largest relative gap.

    Returns ``(q_quad, gap)``: the (N, 2, 2) stack of quadrature blocks of all
    modes of the set's window from one graded 64-node pass of
    :func:`gramian_mode_quadrature`, and the largest entry difference between
    them and the set's closed-form blocks relative to the scale sqrt(Q_ii Q_jj).
    """
    q_quad = gramian_mode_quadrature(gramians.modes, gramians.beta, gramians.delta)
    d = np.sqrt(np.diagonal(gramians.blocks, axis1=1, axis2=2))
    gap = np.abs(gramians.blocks - q_quad) / np.maximum(d[:, :, None] * d[:, None, :], 1e-300)
    return q_quad, float(gap.max())


def residual_identity(problem: SteeringProblem, gramians: GramianSet, q_quad):
    """Regularisation residual of a steering problem by two independent paths.

    Returns ``(control, measured, formula)``: the control synthesized on the
    window of the one-window set ``gramians``, ||T(delta) y0 + Q_quad eta - z1||
    with the control mapped through the quadrature blocks ``q_quad`` of
    :func:`gramian_cross_check`, and alpha ||eta|| = alpha ||(alpha I + Q)^-1 d||
    with the closed-form blocks that synthesized eta.  Both measures are arrays
    with one value per cell of the control, that is per alpha of the problem.
    T(delta) is the set's propagator, the one that synthesized the control.
    """
    control = synthesize_control(problem, gramians)
    modes = gramians.modes
    z1c = energy_coords(problem.z1, modes)
    free = energy_coords(propagate(gramians.propagator, problem.y0), modes)
    mapped = (q_quad @ control.eta[..., None])[..., 0]
    measured = np.linalg.norm(free + mapped - z1c, axis=(-2, -1))
    formula = np.asarray(problem.alpha) * np.linalg.norm(control.eta, axis=(-2, -1))
    return control, measured, formula


def _errors(y, r, target, modes):
    """error_total, error_nl and error_lin of the linear terminal states y and the forced
    responses r, per cell of a batch."""
    lin = y - target
    return [energy_norm(lin + r, modes), energy_norm(r, modes), energy_norm(lin, modes)]


def pullback_cell(
    config: SimConfig, target: BeamState, delta: float, alpha: float, base_traj: Trajectory
) -> ResultRow:
    """One (delta, alpha) cell on its own, its control synthesized from the base run's state
    at the window start and its window summed alone.  Returns the row."""
    modes, t0 = config.modes, time.perf_counter()
    z_mid = base_traj.state_at(config.tau - delta)
    gramians = assemble_gramian(modes, config.beta, delta)
    control = synthesize_control(SteeringProblem(z_mid, target, alpha), gramians)
    y_tau = steer_linear(z_mid, control)
    errors = _errors(y_tau, window_response(base_traj, control, y_tau), target, modes)
    runtime = time.perf_counter() - t0
    return ResultRow(alpha, delta, *np.concatenate(errors).tolist(), runtime, config.horizon_steps)


def run_pullback_experiment(spec: ExperimentSpec, timer=time.perf_counter) -> list[ResultRow]:
    """Full sweep over (delta, alpha), deltas outer, both descending.

    One zero-control base run serves every cell.  The linear layer of the whole
    grid is one batch: one Gramian evaluation of every window, one stacked
    control from the window-start states and one linear steer.  Per delta one
    window sum of all alphas reads the base run with that window's control, and
    one error evaluation covers every cell.  A row's runtime is an equal share of
    its window sum plus an equal share of the linear batch.
    """
    config, base_traj, target = pullback_setup(spec)
    modes = config.modes
    alphas = sorted(spec.alphas, reverse=True)
    deltas = sorted(spec.deltas, reverse=True)
    starts = [config.validate_delta(delta) for delta in deltas]
    z_mid = BeamState(base_traj.w[starts], base_traj.v[starts])
    t0 = timer()
    gramians = assemble_gramian(modes, config.beta, deltas)
    control = synthesize_control(SteeringProblem(z_mid, target, alphas), gramians)
    y_tau = steer_linear(z_mid, control)
    linear = (timer() - t0) / (len(deltas) * len(alphas))
    sums, shares = [], []
    for i in range(len(deltas)):
        t0 = timer()
        sums.append(window_response(base_traj, control[i], BeamState(y_tau.w[i], y_tau.v[i])))
        shares.append(linear + (timer() - t0) / len(alphas))
    r = BeamState(np.stack([x.w for x in sums]), np.stack([x.v for x in sums]))
    errors = np.stack(_errors(y_tau, r, target, modes), axis=-1)  # (deltas, alphas, 3)
    return [
        ResultRow(a, delta, *e.tolist(), share, config.horizon_steps)
        for delta, share, row in zip(deltas, shares, errors)
        for a, e in zip(alphas, row)
    ]


def summarize_rows(rows: list[ResultRow], epsilon: float) -> dict:
    """Aggregate diagnostics of a sweep: goal hit, monotonicity, fitted slope."""
    deltas = sorted({r.delta for r in rows}, reverse=True)
    by_delta = {d: sorted((r for r in rows if r.delta == d), key=lambda r: -r.alpha) for d in deltas}
    lin_monotone = all(
        all(b.error_lin < a.error_lin for a, b in zip(col, col[1:]))
        for col in by_delta.values()
    )
    nl_ratios = []
    for d_big, d_small in zip(deltas, deltas[1:]):
        for ra, rb in zip(by_delta[d_big], by_delta[d_small]):
            if rb.error_nl > 0:
                nl_ratios.append(ra.error_nl / rb.error_nl)
    c_nl = max((r.error_nl / r.delta for r in rows), default=0.0)
    return {
        "best_error": min((r.error_total for r in rows), default=np.inf),
        "goal_met": any(r.error_total < epsilon for r in rows),
        "error_lin_monotone": lin_monotone,
        "nl_ratios": nl_ratios,
        "nl_slope": c_nl,
    }


def emit_csv(rows: list[ResultRow], path, seed: int | None = None) -> None:
    """Write rows as CSV, 12 significant digits, deltas outer and descending.

    A seed, when given, is recorded in a leading comment line.
    """
    ordered = sorted(rows, key=lambda r: (-r.delta, -r.alpha))
    lines = []
    if seed is not None:
        lines.append(f"# seed={seed}")
    lines.append(CSV_HEADER)
    for r in ordered:
        lines.append(
            f"{r.alpha:.12g},{r.delta:.12g},{r.error_total:.12g},"
            f"{r.error_nl:.12g},{r.error_lin:.12g},{r.runtime_s:.12g},{r.steps}"
        )
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise RuntimeError(f"could not write CSV to {path}: {exc}") from exc


def run_linear_suite(spec: ExperimentSpec) -> list[CheckResult]:
    """Verification suite for the linear steering machinery.

    Runs the residual identity, the regularisation sweep, the right-inverse
    limit, the Gramian cross-validation and the minimum-energy identity on
    the configured system, plus a degenerate zero-length-window probe that
    is expected to lose positive definiteness.  Each quantity is formed once:
    one stacked Gramian evaluation gives the window's set and the probe's, one
    synthesis serves the alpha grid, and the window's set carries the one T(delta)
    that gives the residual identity's free endpoint and the zero-mismatch target.
    """
    config = spec.config
    modes, beta = config.modes, config.beta
    delta = max(spec.deltas)
    rng = np.random.default_rng(spec.seed)
    y0 = make_random_state(modes, rng, 1.0)
    z1 = make_random_state(modes, rng, 1.0)
    stacked = assemble_gramian(modes, beta, [delta, 0.0])
    gramians = stacked[0]
    q_quad, cross = gramian_cross_check(gramians)

    def gated(name, gap):  # a gap between the two paths, held to CROSS_PATH_TOL
        return CheckResult(name, gap <= CROSS_PATH_TOL, gap, CROSS_PATH_TOL)

    results = [
        CheckResult(
            "gramian_positive_definite", gramians.positive_definite, gramians.min_eigenvalue, 0.0
        ),
        gated("gramian_cross_validation", cross),
    ]

    # one synthesis of the alpha grid serves the checks below; the identities map it
    # through the quadrature blocks, so they test the closed forms instead of restating them
    alphas = [10.0**-k for k in range(7)]
    problem = SteeringProblem(y0, z1, alphas)
    control, measured, formula = residual_identity(problem, gramians, q_quad)
    gap = np.abs(measured - formula) / np.maximum(1.0, formula)  # see CROSS_PATH_TOL
    results.append(gated("residual_identity", float(gap.max())))

    sweep = alpha_sweep(y0, z1, control)
    errs = [e for _, e in sweep]
    monotone = all(b < a for a, b in zip(errs, errs[1:]))
    results.append(CheckResult("alpha_sweep_monotone", monotone, errs[-1], errs[0]))

    probe = energy_coords(make_random_state(modes, rng, 1.0), modes)
    inverse = approximate_right_inverse_check(gramians, alphas, probe)
    limit, errors = inverse["decreasing"] and inverse["bound_ok"], inverse["errors"]
    results.append(CheckResult("right_inverse_strong_limit", limit, errors[-1], errors[0]))

    # the alpha = 1e-2 cell
    energy, eta = float(control_energy(control)[2]), control.eta[2]
    quad_form = float(np.sum(eta[:, None, :] @ q_quad @ eta[:, :, None]))
    rel = abs(energy - quad_form) / max(quad_form, 1e-300)
    results.append(gated("minimum_energy_identity", rel))

    free = propagate(gramians.propagator, y0)
    null_control = synthesize_control(SteeringProblem(y0, free, 1e-2), gramians)
    # u = b^T exp(K^T theta) eta vanishes on the window exactly when eta does
    eta_max = float(np.abs(null_control.eta).max())
    results.append(CheckResult("zero_mismatch_zero_control", eta_max == 0.0, eta_max, 0.0))

    singular, q_min = not stacked[1].positive_definite, stacked[1].min_eigenvalue
    results.append(CheckResult("degenerate_window_probe", singular, q_min, 0.0, expected_fail=True))
    return results


def suite_ok(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
