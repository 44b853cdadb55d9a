"""Synthesis of the regularized steering control on the final window.

Given a start state y0 at tau - delta and a target z1, the control

    u(t) = b^T exp(K^T (tau - t)) eta,      eta = (alpha I + Q)^{-1} d,
    d = z1 - T(delta) y0,

drives the linear dynamics so that the terminal mismatch satisfies the
exact blockwise identity  y(tau) - z1 = -alpha (alpha I + Q)^{-1} d.
Everything here works per mode in energy coordinates; control values are
scalars per mode and coordinate-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InvalidArgumentError
from .gramian import (
    GramianSet,
    ModeBlock,
    SteerWindow,
    assemble_gramian,
    quadrature_panels,
    solve_regularized,
)
from .semigroup import apply_semigroup, damping_roots
from .spectral import BeamState, ModeSet, energy_coords, state_from_coords

CACHE_SAMPLES = 256
QUAD_NODES = 64


def _response(lam, r1, r2, theta):
    """Components of exp(K theta) b in energy coordinates (broadcasting)."""
    e1 = np.exp(r1 * theta)
    e2 = np.exp(r2 * theta)
    dr = r1 - r2
    return lam * (e1 - e2) / dr, (r1 * e1 - r2 * e2) / dr


@dataclass
class ControlSignal:
    """Steering control: closed form on the window, optional base before it.

    ``eta`` holds the regularized preimage per mode (energy coordinates); the
    window values u_j(t) = b^T exp(K_j^T (tau - t)) eta_j are evaluated
    exactly wherever needed, the cached samples are a convenience only.
    ``extra`` is an optional additive window term (the auxiliary signal of
    the general control sequence); ``base`` is the control on [0, tau-delta];
    ``alpha`` is the regularisation it was synthesized with, if any.
    """

    window: SteerWindow
    eta: np.ndarray
    modes: ModeSet
    beta: float
    base: Optional[Callable[[float], np.ndarray]] = None
    extra: Optional[Callable[[float], np.ndarray]] = None
    alpha: Optional[float] = None
    times: np.ndarray = field(init=False)
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        self.eta = np.asarray(self.eta, dtype=float)
        if self.eta.shape != (self.modes.count, 2):
            raise InvalidArgumentError("eta must have shape (N, 2)")
        if self.window.delta <= 0:
            raise InvalidArgumentError("control window must have positive length")
        self.times = np.linspace(self.window.start, self.window.tau, CACHE_SAMPLES)
        self.values = self.window_coeffs(self.times)
        if not np.all(np.isfinite(self.values)):
            raise InvalidArgumentError("control values are not finite")

    def window_coeffs(self, t):
        """Per-mode control coefficients at time(s) t in [tau-delta, tau]."""
        t = np.asarray(t, dtype=float)
        theta = self.window.tau - t[..., None]
        lam = self.modes.lambdas
        r1, r2 = damping_roots(lam, self.beta)
        g1, g2 = _response(lam, r1, r2, theta)
        out = g1 * self.eta[:, 0] + g2 * self.eta[:, 1]
        if self.extra is not None:
            if t.ndim == 0:
                out = out + np.asarray(self.extra(float(t)), dtype=float)
            else:
                out = out + np.stack([np.asarray(self.extra(float(s))) for s in t])
        return out

    def base_coeffs(self, t) -> np.ndarray:
        if self.base is None:
            return np.zeros(self.modes.count)
        return np.asarray(self.base(float(t)), dtype=float)

    def coeffs(self, t) -> np.ndarray:
        """Control value at time t, window part taking over at tau - delta."""
        if t >= self.window.start - 1e-12:
            return self.window_coeffs(t)
        return self.base_coeffs(t)

    def __add__(self, other: "ControlSignal") -> "ControlSignal":
        if (
            self.window != other.window
            or self.beta != other.beta
            or self.modes.count != other.modes.count
        ):
            raise InvalidArgumentError("can only add controls on the same window")
        extras = [f for f in (self.extra, other.extra) if f is not None]
        bases = [f for f in (self.base, other.base) if f is not None]

        def _sum(fns):
            if not fns:
                return None
            if len(fns) == 1:
                return fns[0]
            return lambda t: fns[0](t) + fns[1](t)

        return ControlSignal(
            self.window,
            self.eta + other.eta,
            self.modes,
            self.beta,
            base=_sum(bases),
            extra=_sum(extras),
        )


@dataclass(frozen=True)
class SteeringProblem:
    """Start state at tau - delta, target at tau, and the regularisation."""

    y0: BeamState
    z1: BeamState
    window: SteerWindow
    alpha: float

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise InvalidArgumentError("alpha must lie in (0, 1]")
        if self.y0.count != self.z1.count:
            raise InvalidArgumentError("start and target sizes differ")


def synthesize_control(
    problem: SteeringProblem,
    modes: ModeSet,
    beta: float,
    gramians: GramianSet | None = None,
    base: Optional[Callable[[float], np.ndarray]] = None,
    extra: Optional[Callable[[float], np.ndarray]] = None,
) -> ControlSignal:
    """Regularized steering control for the given problem.

    With ``extra`` (an auxiliary window signal v) the preimage is computed
    from d - G v, so the synthesized control is
    G*(alpha I + Q)^{-1}(d - G v) + v.
    """
    win = problem.window
    if win.delta <= 0:
        raise InvalidArgumentError("steering requires a window of positive length")
    if gramians is None:
        gramians = assemble_gramian(modes, beta, win)
    if not gramians.positive_definite:
        raise InvalidArgumentError("Gramian is not positive definite on this window")
    moved = apply_semigroup(problem.y0, win.delta, modes, beta)
    d = energy_coords(problem.z1, modes) - energy_coords(moved, modes)
    if extra is not None:
        d = d - _window_integral_of(extra, win, modes, beta)
    eta = solve_regularized(gramians, problem.alpha, d)
    return ControlSignal(win, eta, modes, beta, base=base, extra=extra, alpha=problem.alpha)


def _mode_quadrature(win: SteerWindow, block: ModeBlock, nodes: int):
    """Composite Gauss-Legendre nodes/weights in time-to-go theta = tau - s."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    panels = quadrature_panels(block, win.delta)
    width = win.delta / panels
    thetas = np.concatenate(
        [p * width + 0.5 * width * (x + 1.0) for p in range(panels)]
    )
    weights = np.tile(0.5 * width * w, panels)
    return thetas, weights


def _window_integral_of(u_fn, win: SteerWindow, modes: ModeSet, beta: float, nodes=QUAD_NODES):
    """Mapped window signal G u = integral exp(K (tau-s)) b u(s) ds, per mode."""
    lam = modes.lambdas
    r1s, r2s = damping_roots(lam, beta)
    out = np.zeros((modes.count, 2))
    for j in range(modes.count):
        block = ModeBlock(lam[j], beta)
        thetas, weights = _mode_quadrature(win, block, nodes)
        g1, g2 = _response(lam[j], r1s[j], r2s[j], thetas)
        uvals = np.array([np.asarray(u_fn(float(win.tau - th)))[j] for th in thetas])
        out[j, 0] = np.sum(weights * g1 * uvals)
        out[j, 1] = np.sum(weights * g2 * uvals)
    return out


def apply_control_map(control: ControlSignal, modes: ModeSet, beta: float, nodes=QUAD_NODES):
    """G u for a synthesized control, by composite quadrature per mode.

    Returns energy coordinates, shape (N, 2).
    """
    win = control.window
    lam = modes.lambdas
    r1s, r2s = damping_roots(lam, beta)
    out = np.zeros((modes.count, 2))
    for j in range(modes.count):
        block = ModeBlock(lam[j], beta)
        thetas, weights = _mode_quadrature(win, block, nodes)
        g1, g2 = _response(lam[j], r1s[j], r2s[j], thetas)
        uvals = control.window_coeffs(win.tau - thetas)[:, j]
        out[j, 0] = np.sum(weights * g1 * uvals)
        out[j, 1] = np.sum(weights * g2 * uvals)
    return out


def steer_linear(y0: BeamState, control: ControlSignal, modes: ModeSet, beta: float) -> BeamState:
    """Terminal state of the controlled linear dynamics on the window.

    y(tau) = T(delta) y0 + integral of T(tau - s) B u(s) over the window,
    the integral evaluated per mode by composite 64-node Gauss-Legendre
    against the closed-form integrand.
    """
    if y0.count != modes.count:
        raise InvalidArgumentError("state and mode set sizes differ")
    win = control.window
    total = energy_coords(apply_semigroup(y0, win.delta, modes, beta), modes)
    total += apply_control_map(control, modes, beta)
    return state_from_coords(total, modes)


def control_energy(control: ControlSignal, modes: ModeSet, beta: float, nodes=QUAD_NODES) -> float:
    """Squared-integral energy of the window control, summed over modes."""
    win = control.window
    lam = modes.lambdas
    r1s, r2s = damping_roots(lam, beta)
    total = 0.0
    for j in range(modes.count):
        block = ModeBlock(lam[j], beta)
        thetas, weights = _mode_quadrature(win, block, nodes)
        uvals = control.window_coeffs(win.tau - thetas)[:, j]
        total += float(np.sum(weights * uvals**2))
    return total


def alpha_sweep(
    y0: BeamState,
    z1: BeamState,
    window: SteerWindow,
    alphas,
    modes: ModeSet,
    beta: float,
) -> list[tuple[float, float]]:
    """Terminal error of the steered linear system for each alpha.

    ``alphas`` must be a strictly decreasing sequence in (0, 1]; the returned
    errors are nonincreasing and tend to zero with alpha.
    """
    alphas = list(alphas)
    if not alphas:
        raise InvalidArgumentError("alpha list must not be empty")
    if any(not 0 < a <= 1 for a in alphas):
        raise InvalidArgumentError("alphas must lie in (0, 1]")
    if any(b >= a for a, b in zip(alphas, alphas[1:])):
        raise InvalidArgumentError("alphas must be strictly decreasing")
    gramians = assemble_gramian(modes, beta, window)
    z1c = energy_coords(z1, modes)
    out = []
    for alpha in alphas:
        control = synthesize_control(
            SteeringProblem(y0, z1, window, alpha), modes, beta, gramians=gramians
        )
        y_tau = steer_linear(y0, control, modes, beta)
        err = float(np.linalg.norm(energy_coords(y_tau, modes) - z1c))
        out.append((alpha, err))
    return out


def approximate_right_inverse_check(gramians: GramianSet, alphas, probe: np.ndarray) -> dict:
    """How fast G Gamma_alpha approaches the identity on a probe vector.

    The deviation for each alpha is ||alpha (alpha I + Q)^{-1} z||; it must
    decrease along a decreasing alpha sequence and obey the spectral bound
    alpha ||z|| / (alpha + q_min).
    """
    probe = np.asarray(probe, dtype=float)
    alphas = list(alphas)
    if not alphas:
        raise InvalidArgumentError("alpha list must not be empty")
    norms = []
    for alpha in alphas:
        eta = solve_regularized(gramians, alpha, probe)
        norms.append(float(alpha * np.linalg.norm(eta)))
    z_norm = float(np.linalg.norm(probe))
    q_min = gramians.min_eigenvalue
    bound_ok = all(
        err <= alpha * z_norm / (alpha + q_min) + 1e-12
        for alpha, err in zip(alphas, norms)
    )
    decreasing = all(b <= a + 1e-15 for a, b in zip(norms, norms[1:]))
    return {
        "alphas": alphas,
        "errors": norms,
        "decreasing": decreasing,
        "bound_ok": bound_ok,
        "min_eigenvalue": q_min,
    }
