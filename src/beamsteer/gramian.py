"""Controllability Gramian of the steering window, blockwise over modes.

The input map feeds the velocity slot only, b = (0, 1)^T, so on the window
[tau - delta, tau] the Gramian of one mode is

    Q = integral_0^delta  (exp(K s) b) (exp(K s) b)^T  ds,

computed here in energy coordinates (the diagonal similarity diag(lambda, 1)
absorbed on both the map and its adjoint), where the blocks are symmetric
positive definite and the Euclidean norm agrees with the state-space energy
norm.  Two evaluation paths are provided: the closed form of
:func:`semigroup.gramian_entries`, vectorised over the modes (production),
and composite Gauss-Legendre quadrature of the input response of all modes
at once, on panels graded from s = 0 (the cross-check).  The 2 x 2 algebra (each
block's least eigenvalue, the regularized solves) is closed form too, and the Gauss
rule comes from Newton's method; LAPACK and numpy's leggauss serve only as test oracles.
A set also carries its window's propagator T(delta), formed once, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import InvalidArgumentError
from .semigroup import _response, _roots, exp_entries, gramian_entries
from .spectral import ModeSet

# Per-panel span |2 r2| * width kept below PANEL_SPAN so PANEL_NODES-point Gauss-Legendre
# stays converged to machine precision even for the stiffest retained mode.
PANEL_SPAN, PANEL_NODES = 50.0, 64


@dataclass(frozen=True)
class GramianSet:
    """Closed-form Gramian of the steering window [tau - delta, tau] of the system
    (modes, beta): the (N, 2, 2) blocks and their least eigenvalue, and the window's
    propagator T(delta), formed on first use.  A stack of D windows holds a tuple of
    D lengths, (D, N, 2, 2) blocks and one ``min_eigenvalue`` per window.

    delta = 0 is admitted as a degenerate probe (empty window, zero Gramian);
    every steering operation requires delta > 0.
    """

    modes: ModeSet
    beta: float
    delta: float | tuple
    blocks: np.ndarray
    min_eigenvalue: float | np.ndarray

    @property
    def positive_definite(self) -> bool:
        """Whether every block of every window is positive definite."""
        return bool(np.all(self.min_eigenvalue > 0))

    @cached_property
    def propagator(self) -> tuple:
        """Entries (a11, a12, a21, a22) of T(delta) per mode, (D, N) each for D windows."""
        return exp_entries(self.modes.lambdas, self.beta, np.array(self.delta)[..., None])

    def __getitem__(self, i) -> "GramianSet":
        """The set of window ``i`` of a stack of windows."""
        if np.ndim(self.delta) == 0:
            raise InvalidArgumentError("only a stack of windows takes a window index")
        min_eig = float(self.min_eigenvalue[i])
        return GramianSet(self.modes, self.beta, self.delta[i], self.blocks[i], min_eig)


@lru_cache(maxsize=None)
def _gauss_rule():
    """PANEL_NODES-point Gauss-Legendre rule on [-1, 1], nodes ascending: Newton's method on
    the three-term recurrence, from Tricomi's guesses for the positive half of the even rule."""
    n, k = PANEL_NODES, np.arange(PANEL_NODES // 2, 0, -1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for step in range(5):  # at the nearest double after three steps; the fifth only takes P_n'
        p, q = x, np.ones_like(x)  # P_j and P_{j-1}
        for j in range(1, n):
            p, q = ((2 * j + 1) * x * p - j * q) / (j + 1), p
        dp = n * (x * p - q) / ((x - 1.0) * (x + 1.0))  # 1 - x * x would round near x = 1
        x = x - p / dp if step < 4 else x
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp**2)
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


def gramian_mode_quadrature(modes: ModeSet, beta, delta: float) -> np.ndarray:
    """Gramian blocks of all modes at once by composite Gauss-Legendre quadrature.

    PANEL_NODES points per panel, the panels graded geometrically from s = 0, where
    the fast transient exp(r2 s) lives: PANEL_SPAN / |2 r2| wide first, then
    doubling, the last clipped at delta.  So a mode needs O(log(|r2| delta))
    panels, and one with |2 r2| delta <= PANEL_SPAN keeps the one panel [0, delta].
    The panels of all modes form one flat list, so one evaluation of the input
    response at their nodes, summed per panel and then per mode, gives every
    (N, 2, 2) block: the cross-check of :func:`assemble_gramian`.
    """
    lam = modes.lambdas
    x, wts = _gauss_rule()
    r1, gap = _roots(lam, beta)
    first = PANEL_SPAN / (2.0 * (gap - r1))  # |2 r2| = 2 (gap - r1)
    panels = max(1, int(np.ceil(np.log2(delta / first.min() + 1.0))))
    edges = np.minimum(first[:, None] * (2.0 ** np.arange(panels + 1) - 1.0), delta)
    edges[:, -1] = delta
    width = np.diff(edges)
    real = width > 0  # the clip at delta leaves the milder modes fewer panels
    mode, width = np.nonzero(real)[0], width[real, None]
    s, ww = edges[:, :-1][real, None] + 0.5 * width * (x + 1.0), 0.5 * width * wts
    _, _, phi, g2 = _response(lam[mode, None], beta, s)  # a12 / lambda and a22: the input response
    g1 = lam[mode, None] * phi
    # one product at a time: a stacked temporary made the heap trim and re-fault every pass
    panel = (np.sum(ww * a * b, axis=-1) for a, b in ((g1, g1), (g1, g2), (g2, g2)))
    q11, q12, q22 = (np.bincount(mode, sums, lam.size) for sums in panel)  # per mode
    return np.stack([q11, q12, q12, q22], axis=-1).reshape(-1, 2, 2)


def assemble_gramian(modes: ModeSet, beta: float, delta) -> GramianSet:
    """Closed-form Gramian set of the window of length ``delta``, with the spectral
    summary; for a sequence of D lengths the (D, N, 2, 2) blocks of all from one evaluation."""
    t = np.array(delta, dtype=float)
    if t.ndim > 1 or t.size == 0 or not np.all((0 <= t) & (t < np.inf)):
        raise InvalidArgumentError("window lengths must be nonnegative and finite")
    q11, q12, q22 = gramian_entries(modes.lambdas, beta, t[..., None])
    blocks = np.stack([q11, q12, q12, q22], axis=-1).reshape(q11.shape + (2, 2))
    # least eigenvalues as LAPACK dlaev2 forms them, never q11 q22 - q12**2; where the
    # larger root rt1 is 0 the other is the trace
    rt1 = 0.5 * (q11 + q22 + np.hypot(q11 - q22, 2.0 * q12))
    r = np.where(rt1 == 0, 1.0, rt1)
    rt2 = np.maximum(q11, q22) / r * np.minimum(q11, q22) - q12 / r * q12
    min_eig = np.where(rt1 == 0, q11 + q22, rt2).min(axis=-1)
    if t.ndim:
        return GramianSet(modes, beta, tuple(delta), blocks, min_eig)
    return GramianSet(modes, beta, delta, blocks, float(min_eig))


def solve_regularized(gramians: GramianSet, alpha, rhs: np.ndarray) -> np.ndarray:
    """Blockwise solution eta of (alpha I + Q_j) eta_j = rhs_j for each alpha of a sequence.

    ``rhs`` holds one energy-coordinate pair per mode, (N, 2), or (D, N, 2) for a set
    of D windows.  The alphas add a cell axis after the window axis, as in
    (D, cells, N, 2) for the result: one stacked solve of all systems.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 1 or not np.all(alpha > 0):
        raise InvalidArgumentError("regularisation parameters must be a positive sequence")
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != gramians.blocks.shape[:-1]:
        raise InvalidArgumentError("rhs must have shape (N, 2), or (D, N, 2) for D windows")
    q, alpha = gramians.blocks[..., None, :, :, :], alpha[:, None]
    a, b, c = q[..., 0, 0] + alpha, q[..., 0, 1], q[..., 1, 1] + alpha
    d1, d2 = rhs[..., None, :, 0], rhs[..., None, :, 1]
    eta2 = (d2 - b / a * d1) / (c - b / a * b)  # LDL^T: Cramer's a c - b**2 would underflow
    return np.stack([(d1 - b * eta2) / a, eta2], axis=-1)
