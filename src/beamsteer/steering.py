"""Synthesis of the regularized steering control on the final window.

Given a start state y0 at tau - delta and a target z1, the control

    u(t) = b^T exp(K^T (tau - t)) eta,      eta = (alpha I + Q)^{-1} d,
    d = z1 - T(delta) y0,

drives the linear dynamics so that the terminal mismatch satisfies the
exact blockwise identity  y(tau) - z1 = -alpha (alpha I + Q)^{-1} d.
Since u = G* eta, the mapped control G u = G G* eta = Q eta and the energy
||u||^2 = eta^T Q eta are exact in the closed-form Gramian, so nothing here
integrates the control numerically.  Everything works per mode in energy
coordinates; control values are scalars per mode and coordinate-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError
from .gramian import GramianSet, SteerWindow, assemble_gramian, solve_regularized
from .semigroup import apply_semigroup, exp_entries
from .spectral import BeamState, ModeSet, energy_coords, state_from_coords


@dataclass
class ControlSignal:
    """Steering control on the window [tau - delta, tau], in closed form.

    ``eta`` holds the regularized preimage per mode (energy coordinates); the
    costate p_j(t) = exp(K_j^T (tau - t)) eta_j and the control
    u_j(t) = b^T p_j(t), its second component, are evaluated exactly.
    ``alpha`` is the regularisation it was synthesized with, if any.
    """

    window: SteerWindow
    eta: np.ndarray
    modes: ModeSet
    beta: float
    alpha: Optional[float] = None

    def __post_init__(self):
        self.eta = np.asarray(self.eta, dtype=float)
        if self.eta.shape != (self.modes.count, 2):
            raise InvalidArgumentError("eta must have shape (N, 2)")
        if self.window.delta <= 0:
            raise InvalidArgumentError("control window must have positive length")
        if not np.all(np.isfinite(self.eta)):
            raise InvalidArgumentError("control preimage is not finite")

    def costate(self, t):
        """Per-mode costate pairs at time(s) t in [tau-delta, tau], shape (..., N, 2)."""
        # time-to-go, clipped where t overshoots tau by rounding
        theta = np.maximum(self.window.tau - np.asarray(t, dtype=float)[..., None], 0.0)
        a11, a12, a21, a22 = exp_entries(self.modes.lambdas, self.beta, theta, energy=True)
        eta1, eta2 = self.eta[:, 0], self.eta[:, 1]
        return np.stack([a11 * eta1 + a21 * eta2, a12 * eta1 + a22 * eta2], axis=-1)

    def window_coeffs(self, t):
        """Per-mode control coefficients at time(s) t in [tau-delta, tau]."""
        return self.costate(t)[..., 1]


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
) -> ControlSignal:
    """Regularized steering control for the given problem."""
    win = problem.window
    if win.delta <= 0:
        raise InvalidArgumentError("steering requires a window of positive length")
    if gramians is None:
        gramians = assemble_gramian(modes, beta, win)
    if not gramians.positive_definite:
        raise InvalidArgumentError("Gramian is not positive definite on this window")
    moved = apply_semigroup(problem.y0, win.delta, modes, beta)
    d = energy_coords(problem.z1, modes) - energy_coords(moved, modes)
    eta = solve_regularized(gramians, problem.alpha, d)
    return ControlSignal(win, eta, modes, beta, alpha=problem.alpha)


def steer_linear(
    y0: BeamState, control: ControlSignal, modes: ModeSet, beta: float,
    gramians: GramianSet | None = None,
) -> BeamState:
    """Terminal state of the controlled linear dynamics on the window.

    y(tau) = T(delta) y0 + G u, and since u = G* eta the mapped control is
    G G* eta = Q eta, exact in the closed-form Gramian blocks (those of
    ``gramians`` when given, which must be the set of the control's window).
    """
    if y0.count != modes.count:
        raise InvalidArgumentError("state and mode set sizes differ")
    win = control.window
    if gramians is None:
        gramians = assemble_gramian(modes, beta, win)
    blocks = gramians.blocks
    total = energy_coords(apply_semigroup(y0, win.delta, modes, beta), modes)
    total += (blocks @ control.eta[:, :, None])[:, :, 0]
    return state_from_coords(total, modes)


def control_energy(control: ControlSignal, gramians: GramianSet) -> float:
    """Squared-integral energy of the window control, eta^T Q eta summed over
    modes; ``gramians`` is the set of the control's window."""
    eta = control.eta
    return float(np.sum(eta[:, None, :] @ gramians.blocks @ eta[:, :, None]))


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
        y_tau = steer_linear(y0, control, modes, beta, gramians=gramians)
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
