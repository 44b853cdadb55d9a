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
    phi(t)   = exp(r1 t) ratio(t),   ratio(t) = (1 - exp(-2 d t)) / (2 d),
    a22(t)   = exp(r1 t) (exp(-2 d t) + r1 ratio(t)),

where the ratio comes from expm1 and is t at d = 0, so critical damping is a
continuous case and nothing overflows for stiff modes; a22 = phi'(t) in this
form keeps its relative accuracy where exp(r1 t) + r2 phi(t) would cancel.

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


def _roots(lambdas, beta: float):
    """Slow root r1 and gap r1 - r2 = 2 lambda sqrt(beta**2 - 1) per eigenvalue."""
    lam = np.asarray(lambdas, dtype=float)
    s = np.sqrt(beta - 1.0) * np.sqrt(beta + 1.0)  # the product overflows past 1.34e154
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


def _response(lambdas, beta: float, t):
    """r1, exp(r1 t), phi(t) and a22(t) = phi'(t) per mode, a22 as in the module docstring."""
    r1, gap, e, ratio = _modal_kernel(lambdas, beta, t)
    return r1, e, e * ratio, e * (np.exp(-gap * t) + r1 * ratio)


def exp_entries(lambdas, beta: float, t):
    """Entries (a11, a12, a21, a22) of exp(K_j t) for every eigenvalue.

    ``t`` is a time or an array of times broadcasting against the
    eigenvalues.  In energy coordinates, after the similarity D = diag(lambda, 1),
    the entries are (a11, lambda a12, -lambda a12, a22), and the input response
    exp(D K D^{-1} t) b is (lambda a12, a22).
    """
    if np.any(np.asarray(t) < 0):
        raise InvalidArgumentError("time must be nonnegative")
    lam = np.asarray(lambdas, dtype=float)
    r1, e, phi, a22 = _response(lam, beta, t)
    return e - r1 * phi, phi, -lam * lam * phi, a22


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
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ez, g = np.exp(z), ratio / t  # g = (1 - exp(-x)) / x
        d2 = (np.expm1(z) / z - ez * g) / (x - z)
        recursion = (d2 - 0.5 * ez * g * g) / spread
        # the entries outside `near` are discarded, overflowed or not
        u, xx = np.where(near, z - x, 0.0).ravel(), np.where(near, x * x, 0.0).ravel()
    series = np.sum(
        (np.vander(u, 29, increasing=True) @ _SERIES) * np.vander(xx, 15, increasing=True), axis=-1
    ).reshape(near.shape)
    d3 = np.where(near, series, recursion)
    return 2.0 * lam * lam * t**3 * d3, 0.5 * y1 * phi, q22


def apply_semigroup(state: BeamState, t, modes: ModeSet, beta: float) -> BeamState:
    """Propagate a state by time t, blockwise over the modes; a batch of D states
    takes one time each as a (D, 1) column."""
    return propagate(exp_entries(modes.lambdas, beta, t), state)


def propagate(entries, state: BeamState) -> BeamState:
    """The state moved by the operator of ``entries`` (a11, a12, a21, a22), blockwise."""
    a11, a12, a21, a22 = entries
    if state.count != a11.shape[-1]:
        raise InvalidArgumentError("state and mode set sizes differ")
    return BeamState(a11 * state.w + a12 * state.v, a21 * state.w + a22 * state.v)


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


def decay_envelope(modes: ModeSet, beta: float) -> DecayEnvelope:
    """Exact decay envelope of the solution operator, for damping beta > 1.

    The rate is the slowest modal rate -r1 = lambda_1 / (beta + sqrt(beta**2 - 1)),
    attained by the first mode.  Per mode exp(K t) exp(-r1 t) = I + ratio(t) (K - r1 I)
    with the ratio rising from 0 to 1/gap, and in energy coordinates
    sigma_max(I + (K - r1 I) / gap) = beta / sqrt(beta**2 - 1) for every lambda; the
    norm is convex in the ratio, so that is the supremum of ||T(t)|| exp(rate t).
    At critical damping the product grows like t and no envelope of this rate exists.
    """
    if not beta > 1.0:
        raise InvalidArgumentError("the decay envelope needs damping beta > 1")
    rate = -float(_roots(modes.lambdas[0], beta)[0])
    return DecayEnvelope(float(beta / (np.sqrt(beta - 1.0) * np.sqrt(beta + 1.0))), rate)
