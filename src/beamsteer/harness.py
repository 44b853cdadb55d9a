"""Experiment orchestration: pullback runs, verification suite, CSV output.

The pullback experiment follows the constructive steering recipe: simulate
with zero control up to the window start, synthesize the regularized
steering control from the state reached there, continue the full semilinear
simulation over the window, and compare against the steered linear solution.
The zero-control run is simulated once; every cell resumes from it at its
window start, and all alphas of one window are stepped together.  Per
(alpha, delta) cell the recorded errors are

    error_total = ||z(tau) - z1||        (goal of the experiment)
    error_nl    = ||z(tau) - y(tau)||    (nonlinear/memory window effect)
    error_lin   = ||y(tau) - z1||        (regularisation residual)

All randomness is drawn from one seeded generator in a fixed order (history
first, then target), so a seed pins the experiment exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dynamics import SimConfig, Trajectory, simulate
from .errors import InvalidArgumentError
from .gramian import (
    GramianSet,
    ModeBlock,
    SteerWindow,
    assemble_gramian,
    gramian_mode_quadrature,
    solve_regularized,
)
from .semigroup import apply_semigroup
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
# Largest admitted gap between the closed-form and the quadrature path, for
# the Gramian blocks and for the identities that map through them.
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
    deltas: list
    alphas: list
    epsilon: float = 1e-2
    target_kind: str = "single_mode"
    target_mode: int = 1
    target_scale: float = 1.0
    history_kind: str = "single_mode"
    history_amplitude: float = 0.2
    history_mode: int = 1
    seed: int = 0
    out_path: str | None = None

    def __post_init__(self):
        if not self.deltas:
            raise InvalidArgumentError("delta list must not be empty")
        if not self.alphas:
            raise InvalidArgumentError("alpha list must not be empty")
        if any(not 0 < a <= 1 for a in self.alphas):
            raise InvalidArgumentError("alphas must lie in (0, 1]")
        if not self.epsilon > 0:
            raise InvalidArgumentError("epsilon must be positive")
        if not np.isfinite([self.target_scale, self.history_amplitude]).all():
            raise InvalidArgumentError("target_scale and history_amplitude must be finite")
        for delta in self.deltas:
            self.config.validate_delta(delta)
        if self.target_kind not in ("single_mode", "random", "free_trajectory"):
            raise InvalidArgumentError(f"unknown target kind {self.target_kind!r}")
        if self.history_kind not in ("zero", "single_mode", "random"):
            raise InvalidArgumentError(f"unknown history kind {self.history_kind!r}")
        for name in ("target_mode", "history_mode"):
            if not 1 <= getattr(self, name) <= self.config.n_modes:
                raise InvalidArgumentError(f"{name} must lie in 1..{self.config.n_modes}")


def make_random_state(modes: ModeSet, rng, amplitude: float = 1.0, decay: float = 2.0) -> BeamState:
    """Smooth random state: modal energy amplitudes fall off like j**-decay,
    normalised so the energy norm equals ``amplitude``."""
    j = np.arange(1, modes.count + 1, dtype=float)
    coords = rng.standard_normal((modes.count, 2)) * (j**-decay)[:, None]
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

    The generator of ``spec.seed`` draws the history first, then the target.
    """
    rng = np.random.default_rng(spec.seed)
    modes = spec.config.modes()
    history = make_history(
        spec.history_kind,
        spec.history_amplitude,
        spec.config.delay,
        modes,
        rng,
        spec.history_mode,
    )
    config = replace(spec.config, history=history)
    base_traj = simulate(config, None)
    target = make_target(
        spec.target_kind,
        modes,
        rng,
        scale=spec.target_scale,
        mode_index=spec.target_mode,
        free_point=base_traj.terminal(),
    )
    return config, base_traj, target


def gramian_cross_check(modes: ModeSet, beta: float, window: SteerWindow):
    """Closed-form Gramian set, the quadrature blocks and their largest gap.

    Returns ``(gramians, q_quad, gap)``: the :func:`assemble_gramian` set,
    the (N, 2, 2) stack of 64-node quadrature blocks and the maximum absolute
    entry difference between the two paths.
    """
    gramians = assemble_gramian(modes, beta, window)
    q_quad = np.stack(
        [gramian_mode_quadrature(ModeBlock(lam, beta), window, 64) for lam in modes.lambdas]
    )
    return gramians, q_quad, float(np.abs(gramians.blocks - q_quad).max())


def residual_identity(problem: SteeringProblem, modes, beta, gramians, q_quad):
    """Regularisation residual of a steering problem by two independent paths.

    Returns ``(control, measured, formula)``: the synthesized control,
    ||T(delta) y0 + Q_quad eta - z1|| with the control mapped through the
    quadrature blocks ``q_quad`` of :func:`gramian_cross_check`, and
    alpha ||(alpha I + Q)^-1 d|| with the closed-form ``gramians``.
    """
    control = synthesize_control(problem, modes, beta, gramians=gramians)
    z1c = energy_coords(problem.z1, modes)
    free = energy_coords(apply_semigroup(problem.y0, problem.window.delta, modes, beta), modes)
    mapped = (q_quad @ control.eta[:, :, None])[:, :, 0]
    measured = float(np.linalg.norm(free + mapped - z1c))
    alpha = problem.alpha
    formula = float(alpha * np.linalg.norm(solve_regularized(gramians, alpha, z1c - free)))
    return control, measured, formula


def _cell_row(config, modes, gramians, target, control, z_mid, z_tau, seconds, timer) -> ResultRow:
    """Result row of one cell; ``seconds`` is its time before the linear steer."""
    t0 = timer()
    y_tau = steer_linear(z_mid, control, modes, config.beta, gramians=gramians)
    return ResultRow(
        alpha=control.alpha,
        delta=control.window.delta,
        error_total=energy_norm(z_tau - target, modes),
        error_nl=energy_norm(z_tau - y_tau, modes),
        error_lin=energy_norm(y_tau - target, modes),
        runtime_s=seconds + timer() - t0,
        steps=round(config.tau / config.step),
    )


def pullback_cell(
    config: SimConfig,
    target: BeamState,
    delta: float,
    alpha: float,
    base_traj: Trajectory,
    gramians: GramianSet | None = None,
    timer=time.perf_counter,
):
    """Run one (delta, alpha) cell from the base run; returns the row and the trajectory."""
    modes = config.modes()
    t0 = timer()
    window = SteerWindow(config.tau, delta)
    if gramians is None:
        gramians = assemble_gramian(modes, config.beta, window)
    z_mid = base_traj.state_at(config.tau - delta)
    problem = SteeringProblem(z_mid, target, window, alpha)
    control = synthesize_control(problem, modes, config.beta, gramians=gramians)
    traj = simulate(config, control, prefix=base_traj)
    row = _cell_row(
        config, modes, gramians, target, control, z_mid, traj.terminal(), timer() - t0, timer
    )
    return row, traj


def run_pullback_experiment(spec: ExperimentSpec, timer=time.perf_counter) -> list[ResultRow]:
    """Full sweep over (delta, alpha), deltas outer, both descending.

    One zero-control base run serves every cell; per delta one Gramian, and
    one window run that steps all alphas together from the base run.  A
    row's runtime is its own synthesis and linear steer plus an equal share
    of its window run.
    """
    config, base_traj, target = pullback_setup(spec)
    modes = config.modes()
    rows = []
    for delta in sorted(spec.deltas, reverse=True):
        window = SteerWindow(config.tau, delta)
        gramians = assemble_gramian(modes, config.beta, window)
        z_mid = base_traj.state_at(window.start)
        controls, seconds = [], []
        for alpha in sorted(spec.alphas, reverse=True):
            t0 = timer()
            problem = SteeringProblem(z_mid, target, window, alpha)
            controls.append(synthesize_control(problem, modes, config.beta, gramians=gramians))
            seconds.append(timer() - t0)
        t0 = timer()
        terminals = simulate(config, controls, prefix=base_traj)
        share = (timer() - t0) / len(controls)
        rows += [
            _cell_row(config, modes, gramians, target, control, z_mid, z_tau, s + share, timer)
            for control, z_tau, s in zip(controls, terminals, seconds)
        ]
    return rows


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
    is expected to lose positive definiteness.
    """
    config = spec.config
    modes = config.modes()
    beta = config.beta
    delta = max(spec.deltas)
    window = SteerWindow(config.tau, delta)
    rng = np.random.default_rng(spec.seed)
    y0 = make_random_state(modes, rng, 1.0)
    z1 = make_random_state(modes, rng, 1.0)
    gramians, q_quad, cross = gramian_cross_check(modes, beta, window)
    results = []

    results.append(
        CheckResult(
            "gramian_positive_definite",
            gramians.positive_definite,
            gramians.min_eigenvalue,
            0.0,
        )
    )

    results.append(
        CheckResult("gramian_cross_validation", cross <= CROSS_PATH_TOL, cross, CROSS_PATH_TOL)
    )

    # the identity checks map the control through the quadrature blocks, so
    # they test the closed forms instead of restating them
    worst_identity = 0.0
    for alpha in (1.0, 1e-2, 1e-4):
        problem = SteeringProblem(y0, z1, window, alpha)
        _, measured, formula = residual_identity(problem, modes, beta, gramians, q_quad)
        worst_identity = max(worst_identity, abs(measured - formula))
    results.append(
        CheckResult(
            "residual_identity", worst_identity <= CROSS_PATH_TOL, worst_identity, CROSS_PATH_TOL
        )
    )

    sweep = alpha_sweep(y0, z1, window, [10.0**-k for k in range(7)], modes, beta)
    errs = [e for _, e in sweep]
    monotone = all(b < a for a, b in zip(errs, errs[1:]))
    results.append(CheckResult("alpha_sweep_monotone", monotone, errs[-1], errs[0]))

    probe = energy_coords(make_random_state(modes, rng, 1.0), modes)
    inverse = approximate_right_inverse_check(
        gramians, [10.0**-k for k in range(7)], probe
    )
    results.append(
        CheckResult(
            "right_inverse_strong_limit",
            inverse["decreasing"] and inverse["bound_ok"],
            inverse["errors"][-1],
            inverse["errors"][0],
        )
    )

    control = synthesize_control(
        SteeringProblem(y0, z1, window, 1e-2), modes, beta, gramians=gramians
    )
    energy = control_energy(control, gramians)
    quad_form = float(np.sum(control.eta[:, None, :] @ q_quad @ control.eta[:, :, None]))
    rel = abs(energy - quad_form) / max(quad_form, 1e-300)
    results.append(
        CheckResult("minimum_energy_identity", rel <= CROSS_PATH_TOL, rel, CROSS_PATH_TOL)
    )

    free_target = apply_semigroup(y0, delta, modes, beta)
    null_control = synthesize_control(
        SteeringProblem(y0, free_target, window, 1e-2), modes, beta, gramians=gramians
    )
    samples = np.linspace(window.start, window.tau, 256)
    u_max = float(np.abs(null_control.window_coeffs(samples)).max())
    results.append(CheckResult("zero_mismatch_zero_control", u_max == 0.0, u_max, 0.0))

    probe_gram = assemble_gramian(modes, beta, SteerWindow(config.tau, 0.0))
    results.append(
        CheckResult(
            "degenerate_window_probe",
            not probe_gram.positive_definite,
            probe_gram.min_eigenvalue,
            0.0,
            expected_fail=True,
        )
    )
    return results


def suite_ok(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
