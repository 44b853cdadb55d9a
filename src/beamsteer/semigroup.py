"""Closed-form solution operator and window Gramian of the damped modal blocks.

Each retained mode evolves under the 2x2 generator

    K_j = [[0, 1], [-lambda_j**2, -2 beta lambda_j]],

and the full solution operator is the direct sum of the block exponentials
exp(K_j t).  For damping beta >= 1 the characteristic roots are real and
negative: the slow root r1 = -lambda / (beta + sqrt(beta**2 - 1)) and
r2 = r1 - 2d with the gap 2d = 2 lambda sqrt(beta**2 - 1), both free of
cancellation.  Writing phi(t) = (exp(r1 t) - exp(r2 t)) / (r1 - r2), the first
divided difference of exp(. t) at the roots,

    exp(K t) = exp(r1 t) I + phi(t) (K - r1 I),
    phi(t)   = t exp(r1 t) (1 - exp(-2 d t)) / (2 d t),

where the last factor comes from expm1 and is 1 at d t = 0, so critical
damping d = 0 is a continuous case and nothing overflows for stiff modes.

The window Gramian of the velocity input b = (0, 1)^T, in energy coordinates
(the similarity diag(lambda, 1), where the Euclidean norm is the energy norm),
follows from the same factors: with y(s) = (lambda phi(s), phi'(s)),

    Q(t) = integral_0^t y(s) y(s)^T ds,
    Q12  = lambda phi(t)**2 / 2,
    Q22  = (1 - |y(t)|**2) / (4 beta lambda),

both from the Lyapunov equation, and Q11 = 2 lambda**2 t**3 D3 with D3 the
third divided difference of exp at 0, 2 r1 t, (r1 + r2) t, 2 r2 t.  D3 is
taken by the expm1-based recursion once the points spread over at least
SERIES_SPREAD, and by its Taylor series in (r1 + r2) t and (2 d t)**2 below.

Operator norms are measured in the energy metric, i.e. after the diagonal
similarity D = diag(lambda, 1) per block, which is the metric matching the
state-space norm used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .errors import InvalidArgumentError
from .spectral import BeamState, ModeSet

# Spread 2 |r2| t of the divided-difference points below which D3 comes from
# its series; there the recursion would cancel, above it the series would.
SERIES_SPREAD = 2.0
# D3 = sum over p, q of _SERIES[p, q] ((r1 + r2) t)**p (2 d t)**(2 q), the
# Taylor terms comb(n, 2j) / (n + 1)! with p = n - 2j, q = j - 1, summed to
# n = 30, which leaves a remainder below 1e-17 inside SERIES_SPREAD.
_SERIES = np.array(
    [[comb(p + 2 * q + 2, 2 * q + 2) / factorial(p + 2 * q + 3) if p + 2 * q <= 28 else 0.0
      for q in range(15)] for p in range(29)]
)


@dataclass(frozen=True)
class ModeBlock:
    """One modal block, parameterised by its eigenvalue and the damping."""

    lam: float
    beta: float

    def __post_init__(self):
        if self.lam <= 0:
            raise InvalidArgumentError("mode eigenvalue must be positive")
        if not self.beta >= 1.0:
            raise InvalidArgumentError("damping coefficient must be at least 1")

    def roots(self) -> tuple[float, float]:
        """Characteristic roots (r1, r2), slow one first."""
        r1, gap = _roots(self.lam, self.beta)
        return float(r1), float(r1 - gap)


def _roots(lambdas, beta: float):
    """Slow root r1 and gap r1 - r2 = 2 lambda sqrt(beta**2 - 1) per eigenvalue."""
    lam = np.asarray(lambdas, dtype=float)
    s = np.sqrt((beta - 1.0) * (beta + 1.0))
    return -lam / (beta + s), 2.0 * lam * s


def _modal_kernel(lambdas, beta: float, t):
    """Slow root, gap, exp(r1 t) and phi(t) / exp(r1 t) per mode, ``t`` broadcasting
    against the modes.

    The ratio (1 - exp(-gap t)) / gap comes from expm1; at critical damping,
    gap = 0, it is its limit t.
    """
    r1, gap = _roots(lambdas, beta)
    ratio = -np.expm1(-gap * t) / gap if beta > 1.0 else t
    return r1, gap, np.exp(r1 * t), ratio


def exp_entries(lambdas, beta: float, t, energy: bool = False):
    """Entries (a11, a12, a21, a22) of exp(K_j t) for every eigenvalue.

    ``t`` is a time or an array of times broadcasting against the
    eigenvalues.  With ``energy=True`` the entries are those of the
    energy-similarity transformed block exp(D K D^{-1} t); its second column
    (a12, a22) is the input response exp(D K D^{-1} t) b.
    """
    if np.any(np.asarray(t) < 0):
        raise InvalidArgumentError("time must be nonnegative")
    lam = np.asarray(lambdas, dtype=float)
    r1, gap, e, ratio = _modal_kernel(lam, beta, t)
    phi = e * ratio
    a11 = e - r1 * phi
    a22 = e + (r1 - gap) * phi
    if energy:
        return a11, lam * phi, -lam * phi, a22
    return a11, phi, -lam * lam * phi, a22


def gramian_entries(lambdas, beta: float, t):
    """Energy-coordinate Gramian entries (Q11, Q12, Q22) of every mode over [0, t]."""
    lam, t = np.asarray(lambdas, dtype=float), np.asarray(t, dtype=float)
    r1, gap, e, ratio = _modal_kernel(lam, beta, t)
    phi = e * ratio
    y1 = lam * phi
    y2m1 = np.expm1(r1 * t) + (r1 - gap) * phi  # phi'(t) - 1, two terms of one sign
    q22 = (-y2m1 * (2.0 + y2m1) - y1 * y1) / (4.0 * beta * lam)
    # D3 at the points 0, z, z - x, z - 2x
    z, x = 2.0 * r1 * t, gap * t
    spread = 2.0 * x - z
    near = spread < SERIES_SPREAD
    with np.errstate(divide="ignore", invalid="ignore"):
        ez, g = np.exp(z), ratio / t  # g = (1 - exp(-x)) / x
        d2 = (np.expm1(z) / z - ez * g) / (x - z)
        recursion = (d2 - 0.5 * ez * g * g) / spread
    u, xx = np.where(near, z - x, 0.0).ravel(), np.where(near, x * x, 0.0).ravel()
    series = np.sum(
        (np.vander(u, 29, increasing=True) @ _SERIES) * np.vander(xx, 15, increasing=True), axis=-1
    ).reshape(near.shape)
    d3 = np.where(near, series, recursion)
    return 2.0 * lam * lam * t**3 * d3, 0.5 * y1 * phi, q22


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

    The norm at time t is max_j sigma_max(D_j exp(K_j t) D_j^{-1}), where the
    largest singular value of a 2x2 block [[a, b], [c, d]] is
    (hypot(a + d, c - b) + hypot(a - d, c + b)) / 2.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0):
        raise InvalidArgumentError("times must be nonnegative")
    out = []
    for t in np.split(times, range(4096, times.size, 4096)):  # bounded memory on long grids
        a11, a12, a21, a22 = exp_entries(modes.lambdas, beta, t[:, None], energy=True)
        out.append((np.hypot(a11 + a22, a21 - a12) + np.hypot(a11 - a22, a21 + a12)).max(axis=1))
    return 0.5 * np.concatenate(out)


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

    The rate is the slowest modal rate -r1 = lambda_1 / (beta + sqrt(beta**2 - 1)),
    attained by the first mode.  The prefactor is the supremum of
    ||T(t)|| * exp(rate * t) over a sampled time grid; the grid default
    extends past the point where all transients have died out.
    """
    if not beta >= 1.0:
        raise InvalidArgumentError("damping coefficient must be at least 1")
    rate = -float(_roots(modes.lambdas[0], beta)[0])
    if horizon is None:
        horizon = max(10.0 / rate, 10.0)
    ts = np.arange(0.0, horizon + 0.5 * t_step, t_step)
    norms = operator_norms(modes, beta, ts)
    bound = float(np.max(norms * np.exp(rate * ts)))
    return DecayEnvelope(max(bound, 1.0), rate)
