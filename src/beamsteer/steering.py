"""Synthesis of the regularized steering control on the final window.

Given a start state y0 at tau - delta and a target z1, the control

    u(t) = b^T exp(K^T (tau - t)) eta,      eta = (alpha I + Q)^{-1} d,
    d = z1 - T(delta) y0,

drives the linear dynamics so that the terminal mismatch satisfies the
exact blockwise identity  y(tau) - z1 = -alpha (alpha I + Q)^{-1} d.
Since u = G* eta, the mapped control G u = G G* eta = Q eta and the energy
||u||^2 = eta^T Q eta are exact in the window's closed-form Gramian blocks,
which a control carries with the eta they solved, so nothing here integrates
the control numerically.  Everything works per mode in energy coordinates;
control values are scalars per mode and coordinate-free.
Every control is a batch of cells, one per alpha: alphas on one window share
d, so eta of shape (cells, N, 2) comes from one stacked solve, and a single
alpha is a batch of one.  A stack of D windows, one start state each, is one
control too: one T(delta) y0 of all start states, eta of shape (D, cells, N, 2)
from one solve, and one steer; ``control[i]`` is the control of window i.
T(delta) is the Gramian set's propagator, formed once per set for synthesis and steer.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .gramian import GramianSet, solve_regularized
from .semigroup import propagate
from .spectral import BeamState, energy_coords, state_from_coords


@dataclass
class ControlSignal:
    """Steering control on the window of its Gramian set, in closed form, as a batch of cells.

    ``gramians`` is the set whose blocks Q solved the control: its length, modes and
    damping are the control's.  ``eta`` holds each cell's regularized preimage per
    mode (energy coordinates), shape (cells, N, 2); a cell's control is
    u_j(t) = b^T exp(K_j^T (tau - t)) eta_j, the second component of its costate.
    ``alpha`` holds the regularisation of each cell.  On a stack of D windows eta
    has shape (D, cells, N, 2), and ``control[i]`` is window i's control, as
    ``gramians[i]`` is its set.
    """

    gramians: GramianSet
    eta: np.ndarray
    alpha: tuple

    def __post_init__(self):
        self.eta = np.asarray(self.eta, dtype=float)
        n, blocks = self.gramians.modes.count, np.shape(self.gramians.blocks)
        if blocks[-3:] != (n, 2, 2):
            raise InvalidArgumentError("a control's Gramian blocks must be those of its modes")
        if self.eta.ndim != len(blocks) or self.eta.shape[-2:] != (n, 2):
            raise InvalidArgumentError("eta must have shape (cells, N, 2), or (D, cells, N, 2)")
        if self.eta.shape[:-3] != blocks[:-3]:
            raise InvalidArgumentError("a control needs one eta per window")
        if np.any(np.array(self.gramians.delta) <= 0):
            raise InvalidArgumentError("control window must have positive length")
        if not np.all(np.isfinite(self.eta)):
            raise InvalidArgumentError("control preimage is not finite")
        if np.shape(self.alpha) != self.eta.shape[-3:-2]:
            raise InvalidArgumentError("a control needs one alpha per cell")
        self.alpha = tuple(map(float, self.alpha))

    def __getitem__(self, i) -> "ControlSignal":
        """The control of window ``i`` of a stack of windows: a slice of this validated one."""
        window = copy(self)
        window.gramians, window.eta = self.gramians[i], self.eta[i]
        return window


@dataclass(frozen=True)
class SteeringProblem:
    """Start state at tau - delta, target at tau, and one alpha or a sequence of them,
    kept as a tuple; for a stack of D windows ``y0`` is the batch of their D start states."""

    y0: BeamState
    z1: BeamState
    alpha: tuple

    def __post_init__(self):
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        if alpha.ndim > 1 or alpha.size == 0 or not np.all((0 < alpha) & (alpha <= 1)):
            raise InvalidArgumentError("alpha must lie in (0, 1]")
        object.__setattr__(self, "alpha", tuple(alpha.tolist()))
        if self.y0.count != self.z1.count:
            raise InvalidArgumentError("start and target sizes differ")


def synthesize_control(problem: SteeringProblem, gramians: GramianSet) -> ControlSignal:
    """Regularized steering control of the problem on the window of ``gramians``, one
    cell per alpha; for a stack of D windows, with one start state each, the stacked
    control of all from one solve."""
    if problem.y0.w.shape[:-1] != gramians.blocks.shape[:-3]:
        raise InvalidArgumentError("a stack of windows needs one start state each")
    if not gramians.positive_definite:
        bad = np.ravel(gramians.delta)[np.argmin(gramians.min_eigenvalue)]
        raise InvalidArgumentError(f"Gramian is not positive definite on the window delta={bad:g}")
    modes, moved = gramians.modes, propagate(gramians.propagator, problem.y0)
    d = energy_coords(problem.z1, modes) - energy_coords(moved, modes)
    return ControlSignal(gramians, solve_regularized(gramians, problem.alpha, d), problem.alpha)


def steer_linear(y0: BeamState, control: ControlSignal) -> BeamState:
    """Terminal state of the controlled linear dynamics on the window.

    y(tau) = T(delta) y0 + G u, and since u = G* eta the mapped control is
    G G* eta = Q eta, exact in the control's closed-form Gramian blocks.
    The window, modes and damping are those of the control's Gramian set.
    A control gives a batch of states of shape (cells, N), T(delta) y0 formed once;
    the control of a stack of D windows, with their D start states ``y0``, gives
    states of shape (D, cells, N).
    """
    gramians, eta, modes = control.gramians, control.eta, control.gramians.modes
    free = energy_coords(propagate(gramians.propagator, y0), modes)
    # the cell axis goes after the window axis
    free, blocks = free[..., None, :, :], gramians.blocks[..., None, :, :, :]
    return state_from_coords(free + (blocks @ eta[..., None])[..., 0], modes)


def control_energy(control: ControlSignal) -> np.ndarray:
    """Energy eta^T Q eta of each cell's window control, (cells,) or (D, cells) for D windows."""
    eta, blocks = control.eta, control.gramians.blocks[..., None, :, :, :]
    return np.sum(eta[..., None, :] @ blocks @ eta[..., None], axis=(-3, -2, -1))


def alpha_sweep(y0: BeamState, z1: BeamState, control: ControlSignal) -> list[tuple[float, float]]:
    """Terminal error of the linear system steered from ``y0`` toward ``z1`` by each
    cell of ``control``, paired with the cell's alpha.

    The control is that of one window, and its alphas must be strictly decreasing;
    the returned errors are then nonincreasing and tend to zero with alpha.
    """
    if control.eta.ndim != 3:
        raise InvalidArgumentError("alpha_sweep takes the control of one window, not a stack")
    alphas = control.alpha
    if any(b >= a for a, b in zip(alphas, alphas[1:])):
        raise InvalidArgumentError("alphas must be strictly decreasing")
    y_tau = steer_linear(y0, control)
    modes = control.gramians.modes
    errs = np.linalg.norm(energy_coords(y_tau, modes) - energy_coords(z1, modes), axis=(1, 2))
    return list(zip(alphas, errs.tolist()))


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
    a = np.asarray(alphas)
    norms = a * np.linalg.norm(solve_regularized(gramians, a, probe), axis=(1, 2))
    z_norm = float(np.linalg.norm(probe))
    q_min = gramians.min_eigenvalue
    return {
        "alphas": alphas,
        "errors": norms.tolist(),
        "decreasing": bool(np.all(norms[1:] <= norms[:-1] + 1e-15)),
        "bound_ok": bool(np.all(norms <= a * z_norm / (a + q_min) + 1e-12)),
        "min_eigenvalue": q_min,
    }
