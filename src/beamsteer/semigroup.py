"""Closed-form solution operator of the damped modal blocks.

Each retained mode evolves under the 2x2 generator

    K_j = [[0, 1], [-lambda_j**2, -2 beta lambda_j]],

and the full solution operator is the direct sum of the block exponentials
exp(K_j t).  For damping beta > 1 the characteristic roots

    rho_1 = -lambda (beta - sqrt(beta**2 - 1)),
    rho_2 = -lambda (beta + sqrt(beta**2 - 1)),

are real, distinct and negative, so the exponential has the exact two-term
form

    exp(K t) = [exp(rho_1 t)(K - rho_2 I) - exp(rho_2 t)(K - rho_1 I)]
               / (rho_1 - rho_2).

Operator norms are measured in the energy metric, i.e. after the diagonal
similarity D = diag(lambda, 1) per block, which is the metric matching the
state-space norm used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedError, InvalidArgumentError
from .spectral import BeamState, ModeSet

# Closed forms below divide by rho_1 - rho_2; reject damping this close to
# the confluent-root regime instead of switching to a limiting formula.
BETA_GAP = 1e-6


@dataclass(frozen=True)
class ModeBlock:
    """One modal block, parameterised by its eigenvalue and the damping."""

    lam: float
    beta: float

    def __post_init__(self):
        if self.lam <= 0:
            raise InvalidArgumentError("mode eigenvalue must be positive")
        if self.beta <= 1.0:
            raise InvalidArgumentError("damping coefficient must exceed 1")

    def roots(self) -> tuple[float, float]:
        """Characteristic roots (rho_1, rho_2), slow one first."""
        s = np.sqrt(self.beta**2 - 1.0)
        return -self.lam * (self.beta - s), -self.lam * (self.beta + s)


def damping_roots(lambdas: np.ndarray, beta: float):
    """Vectorised characteristic roots for every eigenvalue."""
    if beta <= 1.0:
        raise InvalidArgumentError("damping coefficient must exceed 1")
    lam = np.asarray(lambdas, dtype=float)
    s = np.sqrt(beta**2 - 1.0)
    return -lam * (beta - s), -lam * (beta + s)


def _require_distinct_roots(beta: float):
    if beta - 1.0 <= BETA_GAP:
        raise IllConditionedError(
            "characteristic roots nearly confluent (beta within 1e-6 of 1)"
        )


def exp_entries(lambdas, beta: float, t, energy: bool = False):
    """Entries (a11, a12, a21, a22) of exp(K_j t) for every eigenvalue.

    ``t`` is a time or an array of times broadcasting against the
    eigenvalues.  With ``energy=True`` the entries are those of the
    energy-similarity transformed block exp(D K D^{-1} t); its second column
    (a12, a22) is the input response exp(D K D^{-1} t) b.
    """
    if np.any(np.asarray(t) < 0):
        raise InvalidArgumentError("time must be nonnegative")
    _require_distinct_roots(beta)
    lam = np.asarray(lambdas, dtype=float)
    r1, r2 = damping_roots(lam, beta)
    e1 = np.exp(r1 * t)
    e2 = np.exp(r2 * t)
    dr = r1 - r2
    a11 = (r1 * e2 - r2 * e1) / dr
    a22 = (r1 * e1 - r2 * e2) / dr
    if energy:
        a12 = lam * (e1 - e2) / dr
        return a11, a12, -a12, a22
    diff = (e1 - e2) / dr
    return a11, diff, -lam * lam * diff, a22


def block_exp(block: ModeBlock, t: float, energy: bool = False) -> np.ndarray:
    """Exact 2x2 exponential exp(K t) of one modal block."""
    a11, a12, a21, a22 = exp_entries(np.array([block.lam]), block.beta, t, energy)
    return np.array([[a11[0], a12[0]], [a21[0], a22[0]]])


def apply_semigroup(state: BeamState, t: float, modes: ModeSet, beta: float) -> BeamState:
    """Propagate a state by time t, blockwise over the modes."""
    if state.count != modes.count:
        raise InvalidArgumentError("state and mode set sizes differ")
    a11, a12, a21, a22 = exp_entries(modes.lambdas, beta, t)
    return BeamState(a11 * state.w + a12 * state.v, a21 * state.w + a22 * state.v)


def operator_norms(modes: ModeSet, beta: float, times) -> np.ndarray:
    """Energy-metric norm of the solution operator at each requested time.

    The norm at time t is max_j sigma_max(D_j exp(K_j t) D_j^{-1}).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0):
        raise InvalidArgumentError("times must be nonnegative")
    out = np.empty(times.size)
    for i, t in enumerate(times):
        a11, a12, a21, a22 = exp_entries(modes.lambdas, beta, t, energy=True)
        blocks = np.empty((modes.count, 2, 2))
        blocks[:, 0, 0] = a11
        blocks[:, 0, 1] = a12
        blocks[:, 1, 0] = a21
        blocks[:, 1, 1] = a22
        out[i] = np.linalg.svd(blocks, compute_uv=False)[:, 0].max()
    return out


@dataclass(frozen=True)
class DecayEnvelope:
    """Exponential envelope ||T(t)|| <= bound * exp(-rate * t)."""

    bound: float
    rate: float

    def __post_init__(self):
        if self.bound < 1.0 or self.rate <= 0:
            raise InvalidArgumentError("envelope requires bound >= 1 and rate > 0")

    def value(self, t):
        return self.bound * np.exp(-self.rate * np.asarray(t, dtype=float))


def decay_envelope(
    modes: ModeSet, beta: float, t_step: float = 0.01, horizon: float | None = None
) -> DecayEnvelope:
    """Empirical decay envelope of the solution operator.

    The rate is the slowest modal rate lambda_1 (beta - sqrt(beta**2 - 1)),
    attained by the first mode.  The prefactor is the supremum of
    ||T(t)|| * exp(rate * t) over a sampled time grid; the grid default
    extends past the point where all transients have died out.
    """
    if beta <= 1.0:
        raise InvalidArgumentError("damping coefficient must exceed 1")
    rate = float(modes.lambdas[0] * (beta - np.sqrt(beta**2 - 1.0)))
    if horizon is None:
        horizon = max(10.0 / rate, 10.0)
    ts = np.arange(0.0, horizon + 0.5 * t_step, t_step)
    norms = operator_norms(modes, beta, ts)
    bound = float(np.max(norms * np.exp(rate * ts)))
    return DecayEnvelope(max(bound, 1.0), rate)
