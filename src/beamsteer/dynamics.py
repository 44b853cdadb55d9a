"""Mild-solution simulator for the semilinear beam with delay, memory, impulses.

Per mode the state obeys an exponential-integrator step

    z(t+h) = exp(K h) z(t) + integral_0^h exp(K (h - s)) F(t + s) ds,

with F, the delayed nonlinearity and the Volterra memory term, entering through
the velocity slot and integrated by the trapezoid rule in s.  The step divides
the delay, the horizon, the window start and every impulse time, so every
delayed read is an exact grid lookup.  Every pointwise map (f, the memory
integrand g, the impulse jumps) acts through one collocation: synthesize onto
the grid by the basis, apply the map, project back by the spacing-scaled basis;
f and g take their cos and sin from tan(x / 2) (see NonlinearityCatalog).
Velocity jumps land after the step onto their node, and delayed reads there use
the left-limit (pre-jump) velocity.  The memory term is the trapezoid sum of its
convolution, an exact recursion for the exponential kernel.

``simulate`` runs the zero control over [-delay, tau] by the method of steps: a
slab steps as far as it may, min(OUTER, delay/h) steps, cut at impulse nodes,
and reads only delayed states fixed by earlier slabs.  It synthesizes its delayed
deflection once for f and g (the velocity only if f reads it, see F_READS),
applies f and g on its live rows, projects all L + 1 rows back in one product, L
being the fewest whole chunks covering a slab, and advances the memory and every
mode in chunks of CHUNK steps: all chunks from a zero start by one batched
matmul, then the chunk starts by a Toeplitz table of chunk propagators added
back.  Node arrays carry one slab of trailing rows, so slabs read and write
full-shape views whose rows past the slab's end are finite and meet only zeros
above the tables' diagonals: no product's shape depends on the cut.

A steering window [tau - delta, tau] lies inside one delay, so its delayed reads
and memory forcing come from the zero-control run, and the controlled solution
is the steered linear one plus the forced response that the trapezoid steps
compose to,

    R = h sum_k omega_k exp(K (tau - t_k)) e2 F_k,   omega = 1/2 at both ends.

``window_response`` forms it with no stepping: each node's forcing F_k of every
cell (the control enters f only) in blocks of at most OUTER + 1 nodes, contracted
with the (a12, a22) column of exp(K (tau - t_k)).  The tables of one system are
built once and cached; the window table holds that column for the last delay/h
nodes, and the control b^T exp(K^T theta) eta reads it as (lambda a12, a22).
Workspaces are views of a per-thread buffer that grows and never shrinks, so a
warm call maps no new pages; rows read past a slab's end are zeroed per run.
"""

from __future__ import annotations

import math
import threading
from copy import copy
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import accumulate
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BlowUpError, InvalidArgumentError
from .semigroup import exp_entries
from .spectral import (
    BeamState,
    ModeSet,
    SpatialDomain,
    basis_matrix,
    laplacian_eigenvalues,
)

# the arguments of f among (y, v, u) that each kind reads
F_READS = {"zero": "", "linear_growth": "yu", "bounded_trig": "yvu"}
G_KINDS = ("zero", "sin", "rational")
KERNEL_KINDS = ("zero", "exponential")

BLOWUP_THRESHOLD = 1e12
RUN_BYTES = 2**30  # most bytes one run's arrays may hold, see SimConfig
# steps of a chunk, and most steps of a slab, which also steps no further than the delay,
# inside the fewest whole chunks that cover it: L + 1 <= OUTER + 1 collocation rows per cell
CHUNK, OUTER = 32, 256


def exact_multiple(value: float, step: float, what: str) -> int:
    """Integer n with n*step == value, or an error naming the constraint."""
    quotient = float(value) / float(step)  # Python floats overflow to inf, without a warning
    if not np.isfinite(quotient):
        raise InvalidArgumentError(f"{what} is not a finite number of steps")
    n = int(round(quotient))
    if abs(n * step - value) > 1e-9 * max(1.0, abs(value)):
        raise InvalidArgumentError(f"step does not divide {what} exactly")
    return n


def _cos(x, out=None, scale=1.0):
    t = np.tan(np.multiply(x, 0.5, out=out), out=out)
    den = np.add(np.square(t, out=out), 1.0, out=out)
    return np.subtract(np.divide(2.0 * scale, den, out=out), scale, out=out)


def _sin(x, out=None):
    t = np.tan(np.multiply(x, 0.5, out=out), out=out)
    return np.divide(2.0 * t, t * t + 1.0, out=out)


@dataclass(frozen=True)
class NonlinearityCatalog:
    """Forcing nonlinearity, memory integrand and kernel, by named kind.

    Every member satisfies the growth bound
    |f(y, v, u)| <= f_a * sqrt(y**2 + v**2) + f_b pointwise:

    * ``zero``          f = 0
    * ``linear_growth`` f = f_a * y * cos(u) + f_b
    * ``bounded_trig``  f = f_a * sin(y) * cos(v) + f_b * cos(u)

    The memory integrand g is ``zero``, ``sin`` (g(w) = sin w) or ``rational``
    (g(w) = w / (1 + w**2)); the kernel is ``zero`` or ``exponential``
    (kappa * exp(-gamma * dt), kappa, gamma >= 0).

    Their cos and sin are 2 / (1 + t**2) - 1 and 2 t / (1 + t**2), t = tan(x / 2), within
    2 * 2**-52 absolute: numpy's float64 tan is vectorized on AVX512, its cos and sin are not.
    """

    f_kind: str = "zero"
    f_a: float = 0.0
    f_b: float = 0.0
    g_kind: str = "zero"
    kernel_kind: str = "zero"
    kappa: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.f_kind not in F_READS:
            raise InvalidArgumentError(f"unknown forcing kind {self.f_kind!r}")
        if self.g_kind not in G_KINDS:
            raise InvalidArgumentError(f"unknown memory integrand kind {self.g_kind!r}")
        if self.kernel_kind not in KERNEL_KINDS:
            raise InvalidArgumentError(f"unknown kernel kind {self.kernel_kind!r}")
        if not all(0 <= x < np.inf for x in (self.f_a, self.f_b, self.kappa, self.gamma)):
            raise InvalidArgumentError("catalog parameters must be nonnegative and finite")

    def f(self, y, v, u, out=None):
        """f pointwise; with ``out`` (which may be ``u``) the result is written there."""
        if self.f_kind == "zero":
            shape = np.broadcast_shapes(np.shape(y), np.shape(v), np.shape(u))
            return np.zeros(shape) if out is None else np.copyto(out, 0.0) or out
        if self.f_kind == "bounded_trig":
            return np.add(_sin(y) * _cos(v, scale=self.f_a), _cos(u, scale=self.f_b), out=out)
        out = np.multiply(y, _cos(u, out if np.ndim(u) else None, self.f_a), out=out)
        if self.f_b:
            out += self.f_b
        return out

    def g(self, w, out=None):
        """g pointwise; with ``out`` (not ``w`` itself) the result is written there."""
        if self.g_kind == "zero":
            return np.zeros(np.shape(w)) if out is None else np.copyto(out, 0.0) or out
        if self.g_kind == "sin":
            return _sin(w, out)
        w = np.asarray(w, dtype=float)
        den = np.multiply(w, w, out=out)
        den += 1.0
        return np.divide(w, den, out=out)

    @property
    def has_memory(self) -> bool:
        return self.kernel_kind != "zero" and self.kappa > 0 and self.g_kind != "zero"

    def bound_constants(self, domain: SpatialDomain, modes: ModeSet):
        """Constants (a, b) with ||F increment|| <= a ||state|| + b.

        The deflection enters the growth bound through its plain L2 norm,
        which the energy norm controls with factor 1/lambda_1; the constant
        part picks up sqrt(L) under projection.
        """
        a = self.f_a * max(1.0, 1.0 / float(modes.lambdas[0]))
        b = self.f_b * np.sqrt(domain.length)
        return float(a), float(b)


@dataclass(frozen=True)
class ImpulseSchedule:
    """Velocity jumps c_k * tanh(w + v) at strictly increasing times."""

    times: tuple = ()
    gains: tuple = ()

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        gains = tuple(float(c) for c in self.gains)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "gains", gains)
        if len(times) != len(gains):
            raise InvalidArgumentError("impulse times and gains differ in length")
        if any(t <= 0 for t in times):
            raise InvalidArgumentError("impulse times must be positive")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise InvalidArgumentError("impulse times must be strictly increasing")
        if not np.isfinite(gains).all():
            raise InvalidArgumentError("impulse gains must be finite")

    @property
    def count(self) -> int:
        return len(self.times)

    @property
    def last_time(self) -> float:
        return self.times[-1] if self.times else 0.0

    def jump(self, k: int, w_grid, v_grid):
        """Pointwise velocity jump of impulse k on the collocation grid."""
        if not 0 <= k < self.count:
            raise InvalidArgumentError(f"impulse index {k} out of range")
        return self.gains[k] * np.tanh(np.asarray(w_grid) + np.asarray(v_grid))


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one simulation run; ``history`` maps n times in
    [-delay, 0] to (w, v) arrays of shape (n, n_modes), None being zero.

    Validation derives the system facts once and keeps them: ``modes`` and
    ``domain``, and the step counts ``delay_steps`` and ``horizon_steps`` and
    ``impulse_steps`` (one per impulse time).  The config is frozen, so they
    cannot go stale: ``dataclasses.replace`` derives them anew, ``with_history`` keeps them.
    """

    n_modes: int = 8
    length: float = 1.0
    grid_points: int = 128
    beta: float = 2.0
    tau: float = 1.0
    delay: float = 0.3
    step: float = 0.001
    catalog: NonlinearityCatalog = field(default_factory=NonlinearityCatalog)
    impulses: ImpulseSchedule = field(default_factory=ImpulseSchedule)
    history: Optional[Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]] = None
    modes: ModeSet = field(init=False, repr=False, compare=False)
    domain: SpatialDomain = field(init=False, repr=False, compare=False)
    delay_steps: int = field(init=False, repr=False, compare=False)
    horizon_steps: int = field(init=False, repr=False, compare=False)
    impulse_steps: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1.0 <= self.beta < np.inf:
            raise InvalidArgumentError("damping coefficient must be at least 1 and finite")
        if not all(0 < x < np.inf for x in (self.length, self.tau, self.delay, self.step)):
            raise InvalidArgumentError("length, tau, delay and step must be positive and finite")
        if self.grid_points < 2 * self.n_modes:
            raise InvalidArgumentError(
                "grid_points must be at least twice the mode count"
            )
        # the stiffest mode's generator [[0, 1], [-lambda**2, -2 beta lambda]] must stay
        # finite with the factor 2 that the Gramian's closed form multiplies in
        with np.errstate(over="ignore"):
            lam = np.square(self.n_modes * np.pi / np.float64(self.length))
            if not np.isfinite([2.0 * lam * lam, 4.0 * self.beta * lam]).all():
                what = f"the generator of mode {self.n_modes} overflows"
                raise InvalidArgumentError(f"{what}: 2 lambda**2 or 4 beta lambda is not finite")
        # the derived facts, set once in this frozen config
        derive = partial(object.__setattr__, self)
        derive("delay_steps", exact_multiple(self.delay, self.step, "the delay"))
        derive("horizon_steps", exact_multiple(self.tau, self.step, "the horizon"))
        impulse_steps = []
        for t_k in self.impulses.times:
            if not 0 < t_k < self.tau:
                raise InvalidArgumentError("impulse times must lie inside (0, tau)")
            impulse_steps.append(exact_multiple(t_k, self.step, f"impulse time {t_k}"))
        derive("impulse_steps", tuple(impulse_steps))
        self.check_run_bytes()
        derive("modes", laplacian_eigenvalues(self.length, self.n_modes))
        derive("domain", SpatialDomain(self.length, self.grid_points))

    def with_history(self, history) -> "SimConfig":
        """This config with the history ``history``, its derived facts kept as they are."""
        config = copy(self)
        return object.__setattr__(config, "history", history) or config

    def check_run_bytes(self, cells: int = 1, window_steps: Optional[int] = None):
        """Reject a run past RUN_BYTES before anything is allocated: the zero-control run,
        and with ``window_steps`` the window sum of ``cells`` cells over its nodes.

        Sized in Python ints: W, V and memory padded by a slab of L <= ``slab`` steps, the
        basis, its projector and the window table's two rows, and the held workspaces, which
        the window sum's blocks reuse: a slab's L + 1 grid rows of y, f and g and its forcing
        and chunk arrays, or a block's grid rows of y and v and per cell of f, its control and F.
        """
        n_r, grid, n = self.delay_steps, self.grid_points - 1, self.n_modes
        slab = min(OUTER, n_r + CHUNK)
        floats = (3 * (n_r + self.horizon_steps + 1 + slab) + 2 * grid + 2 * n_r) * n
        held = (slab + 1) * (3 * grid + 8 * n)
        if window_steps is not None:
            rows = min(OUTER, window_steps) + 1
            held = max(held, rows * (2 * grid + cells * (grid + 2 * n)))
        held = 8 * (floats + held)
        if held > RUN_BYTES:  # a power of two names any size, where a float may overflow
            what = "a run" if window_steps is None else f"a window run of {cells} cells"
            raise InvalidArgumentError(
                f"{what} needs 2**{held.bit_length() - 1} bytes or more, past {RUN_BYTES}"
            )

    def validate_delta(self, delta: float) -> int:
        """Check a window length against the delay and impulses; return the start's node index."""
        if not 0 < delta < self.tau:
            raise InvalidArgumentError("delta must lie in (0, tau)")
        if delta >= self.delay:
            raise InvalidArgumentError("delta must be smaller than the delay")
        if delta >= self.tau - self.impulses.last_time:
            raise InvalidArgumentError(
                "delta must keep every impulse before the steering window"
            )
        return self.delay_steps + exact_multiple(self.tau - delta, self.step, "the window start")


@dataclass
class Trajectory:
    """Recorded zero-control run: states on the full grid [-delay, tau] plus diagnostics.

    States at impulse nodes are the post-jump values; the pre-jump pairs are
    kept aside so delayed reads can use the left limit.  ``memory`` holds the
    Volterra memory forcing per node, and ``config`` is what the run was made with.
    """

    times: np.ndarray
    w: np.ndarray
    v: np.ndarray
    memory: np.ndarray
    pre_impulse: dict
    impulse_events: list
    config: SimConfig

    def index_at(self, t: float) -> int:
        i = self.config.delay_steps + exact_multiple(t, self.config.step, f"time {t}")
        if not 0 <= i < self.times.size:
            raise InvalidArgumentError(f"time {t} outside the recorded range")
        return i

    def state(self, i: int) -> BeamState:
        return BeamState(self.w[i].copy(), self.v[i].copy())

    def state_at(self, t: float) -> BeamState:
        return self.state(self.index_at(t))

    def terminal(self) -> BeamState:
        return self.state(self.times.size - 1)


def _toeplitz(p) -> np.ndarray:
    """Lower-triangular Toeplitz view T[k, ..., j] = p[k - j] (0 for j > k) of p's first axis."""
    zeros = np.zeros_like(p[1:])
    return sliding_window_view(np.concatenate([p[::-1], zeros]), len(p), axis=0)[::-1]


_held = threading.local()  # this thread's scratch buffer


def _carve(*shapes):
    """Consecutive float views of ``shapes`` at the start of this thread's held buffer.

    The buffer grows to fit and never shrinks, so a warm call maps no new pages.  A view
    holds whatever an earlier call left there; a grown buffer leaves older views in the old one.
    """
    sizes = [math.prod(shape) for shape in shapes]
    if getattr(_held, "buffer", np.empty(0)).size < sum(sizes):
        _held.buffer = np.empty(sum(sizes))
    held, starts = _held.buffer, accumulate(sizes, initial=0)
    return [held[a : a + n].reshape(shape) for a, n, shape in zip(starts, sizes, shapes)]


@lru_cache(maxsize=16)
def _slab_tables(domain, n_modes, beta, h, tau, n_r, gamma):
    """Read-only tables for one system and step: basis matrix, its spacing-scaled projector,
    (h/2 a12, a22) of A = exp(K h), the chunk table taking b_j to sum_{j<=k} A^(k-j) b_j, the
    lift table of A^(k+1), the outer table of A^(chunk (m - j)) for a slab's chunks, the
    memory kernel's decay tables like the state's, and the window table (module docstring)
    of the last n_r nodes: rows a12, a22 of exp(K (tau - t_k)), each (n_r, n_modes)."""
    lam, chunk = laplacian_eigenvalues(domain.length, n_modes).lambdas, min(CHUNK, n_r)
    count = -(-min(OUTER, n_r) // chunk)
    B = basis_matrix(domain, n_modes)
    step, outer = (
        np.stack(exp_entries(lam, beta, t[:, None]), -1).reshape(t.size, n_modes, 2, 2)
        for t in (h * np.arange(chunk + 1), h * chunk * np.arange(count))
    )
    m = exact_multiple(tau, h, "the horizon")
    theta = np.maximum(tau - np.arange(m + 1 - n_r, m + 1) * h, 0.0)[:, None]
    _, a12, _, a22 = exp_entries(lam, beta, theta)
    decay = np.exp(-gamma * h) ** np.arange(chunk * count + 1)
    tables = (
        B, domain.spacing * B,
        np.stack([0.5 * h * step[1, :, 0, 1], step[1, :, 1, 1]]),
        _toeplitz(step[:-1]).transpose(1, 2, 0, 3, 4).reshape(n_modes, 2 * chunk, 2 * chunk),
        step[1:].transpose(1, 2, 0, 3).reshape(n_modes, 2 * chunk, 2),
        np.ascontiguousarray(_toeplitz(outer).transpose(1, 2, 0, 3, 4)).reshape(
            n_modes, 2 * count, 2 * count
        ),
        h * _toeplitz(decay[:chunk]), decay[1 : chunk + 1, None],
        _toeplitz(decay[: chunk * count : chunk]), np.stack([a12, a22]),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _tables(c: SimConfig):
    return _slab_tables(c.domain, c.n_modes, c.beta, c.step, c.tau, c.delay_steps, c.catalog.gamma)


def _delayed_velocity(v, rows: slice, pre_impulse: dict) -> np.ndarray:
    """A copy of the velocity rows ``rows`` with the left (pre-jump) value at impulse nodes."""
    vd = v[rows].copy()
    for d, (_, v_left) in pre_impulse.items():
        if rows.start <= d < rows.stop:
            vd[d - rows.start] = v_left
    return vd


@np.errstate(over="ignore", invalid="ignore")  # a blow-up to inf or NaN trips the slab test
def simulate(config: SimConfig) -> Trajectory:
    """Integrate the semilinear system with zero control over [-delay, tau]."""
    lam, N, h, catalog = config.modes.lambdas, config.n_modes, config.step, config.catalog
    n_r = idx0 = config.delay_steps
    n_total = n_r + config.horizon_steps + 1
    B, Bq, (half_a12, a22), chunk_table, lift, outer, m_chunk, m_lift, m_outer, _ = (
        _tables(config)
    )

    # slabs of at most n_r steps inside `count` chunks of `chunk` steps, and every
    # node array carries L trailing rows
    chunk = min(CHUNK, n_r)
    count = -(-min(OUTER, n_r) // chunk)
    L = count * chunk
    nodes = (n_total + L, N)
    W, V, memory = np.zeros(nodes), np.zeros(nodes), np.zeros(nodes)
    times = (np.arange(n_total) - idx0) * h
    if config.history is not None:
        hist, shape = config.history(times[: idx0 + 1]), (idx0 + 1, N)
        if not (isinstance(hist, tuple) and [np.shape(a) for a in hist] == [shape] * 2):
            raise InvalidArgumentError(f"history must give (w, v) arrays of shape {shape}")
        W[: idx0 + 1], V[: idx0 + 1] = hist
    pre_impulse, impulse_events = {}, []
    imp_at = {idx0 + n: k for k, n in enumerate(config.impulse_steps)}

    half, lam2, ones, reads = 0.5 * h, lam * lam, np.ones(N), F_READS[catalog.f_kind]

    # the trapezoid sum of the exponential kernel, kappa-free, by the exact recursion
    # S_(k+1) = decay S_k + h g_(k+1), chunked like the state; the carry is S at the slab start
    recurse = catalog.has_memory

    # held workspaces: forcing rows, chunk solves and starts, and the grid rows of the
    # delayed deflection, f and g; only what is read past the live rows is zeroed, all
    # else is written before it is read
    grid = (L + 1, len(B))
    fc, gq, X, Z, E, yd, fx, gx = _carve(
        (L + 1, N), (L + 1, N), *[(N, 2 * chunk, count)] * 2, (N, 2, count), grid, grid, grid
    )
    xw, xv = (X[:, r * chunk : (r + 1) * chunk].transpose(2, 1, 0) for r in (0, 1))
    if reads:
        fx[...] = 0.0
    if recurse:
        gx[...] = 0.0

    stops = sorted({n_total - 1, *imp_at})
    s0 = idx0
    while s0 < n_total - 1:
        s1 = min(s0 + L, s0 + n_r, next(s for s in stops if s > s0))
        n = s1 - s0
        # f and g on the slab's live rows s0..s1; every product takes all L + 1 rows
        if reads or recurse:
            rows, live = slice(s0 - n_r, s0 - n_r + L + 1), slice(n + 1)
            # delayed deflection on the grid, for f and g; continuous at impulses
            y = np.matmul(W[rows], B.T, out=yd)[live]
            if recurse:
                catalog.g(y, out=gx[live])
                np.matmul(gx, Bq, out=gq)
            if reads:
                vd = 0.0  # read by f only where its kind says so
                if "v" in reads:
                    vd = (_delayed_velocity(V, rows, pre_impulse) @ B.T)[live]
                catalog.f(y, vd, 0.0, out=fx[live])
                np.matmul(fx, Bq, out=fc)
        new = slice(s0 + 1, s0 + 1 + L)
        if recurse:
            if s0 == idx0:  # S_0 = (h/2) P g(w(-delay)), row 0 of the first slab's products
                carry = half * gq[0]
            g, M = (x.reshape(count, chunk, N) for x in (gq[1:], memory[new]))
            np.matmul(m_chunk, g, out=M)
            M += m_lift * (m_outer @ np.vstack([carry, M[:-1, -1]]))[:, None]
            carry = M.reshape(L, N)[n - 1].copy()
            np.multiply(M - half * g, catalog.kappa, out=M)
        # velocity-slot forcing at the slab's nodes s0..s0+L
        F = memory[s0 : s0 + L + 1]
        if reads:
            F = np.add(fc, F, out=fc)
        left, right = (F[r : L + r].reshape(count, chunk, N) for r in (0, 1))
        np.multiply(half_a12, left, out=xw)
        np.multiply(a22, left, out=xv)
        xv += right
        xv *= half
        # every chunk from a zero start, then the chunk starts s_m from the
        # slab start and the chunk ends, then A^(k+1) s_m added back
        np.matmul(chunk_table, X, out=Z)
        E[:, 0, 0], E[:, 1, 0] = W[s0], V[s0]
        E[..., 1:] = Z[:, chunk - 1 :: chunk, :-1]
        Z += lift @ (outer @ E.reshape(N, 2 * count, 1)).reshape(E.shape)
        W[new].reshape(count, chunk, N)[...] = Z[:, :chunk].transpose(2, 1, 0)
        V[new].reshape(count, chunk, N)[...] = Z[:, chunk:].transpose(2, 1, 0)
        if s1 in imp_at:
            k = imp_at[s1]
            wp, vp = W[s1].copy(), V[s1].copy()
            pre_impulse[s1] = (wp, vp)
            dv = config.impulses.jump(k, wp @ B.T, vp @ B.T) @ Bq
            V[s1] = vp + dv
            impulse_events.append((k, float(times[s1]), float(np.linalg.norm(dv))))

        sq = np.square(W[new][:n]) @ lam2 + np.square(V[new][:n]) @ ones
        # sqrt is monotone, so this is the per-node test; a NaN trips too
        if not np.sqrt(sq.max()) <= BLOWUP_THRESHOLD:
            norms = np.sqrt(sq)
            j = int(np.argmax(~(norms <= BLOWUP_THRESHOLD)))  # the first node that trips
            raise BlowUpError(f"trajectory norm {norms[j]:.3e} at t={(s0 + 1 + j - idx0) * h:.6f}")
        s0 = s1

    return Trajectory(
        times=times, w=W[:n_total], v=V[:n_total], memory=memory[:n_total],
        pre_impulse=pre_impulse, impulse_events=impulse_events, config=config,
    )


def _window_forcing(base: Trajectory, control, start: int):
    """The forcing F_k of every cell at the window nodes start..tau, in blocks of at most
    OUTER + 1 nodes: yields each block's first node and its F, shape (cells, K, N), or
    (1, K, N) when f reads nothing and the memory forcing alone makes F.

    F is the collocated f at the base run's delayed states and the cell's control, plus
    the base run's memory forcing, in a held buffer that the next block overwrites; a
    memory-only F is a read-only view of the base run's rows.
    """
    config = base.config
    B, Bq, *_, window = _tables(config)
    n_r, reads, N, grid = config.delay_steps, F_READS[config.catalog.f_kind], config.n_modes, len(B)
    lam, end = config.modes.lambdas, n_r + config.horizon_steps
    first, eta = end + 1 - n_r, control.eta[:, None]  # window table node 0; (cells, 1, N, 2)
    for lo in range(start, end + 1, OUTER + 1):
        K = min(OUTER + 1, end + 1 - lo)
        rows, delayed = slice(lo, lo + K), slice(lo - n_r, lo - n_r + K)
        if not reads:
            yield lo, base.memory[None, rows]
            continue
        F, u, yd, fx = _carve(*[(len(eta), K, N)] * 2, (K, grid), (len(eta), K, grid))
        # the control b^T p = lambda a12 e0 + a22 e1 at each node, synthesized on the grid
        a12, a22 = window[:, lo - first : lo - first + K]
        np.multiply(lam * a12, eta[..., 0], out=u)
        u += np.multiply(a22, eta[..., 1], out=F)
        np.matmul(u, B.T, out=fx)
        y = np.matmul(base.w[delayed], B.T, out=yd)
        vd = 0.0  # read by f only where its kind says so
        if "v" in reads:
            vd = _delayed_velocity(base.v, delayed, base.pre_impulse) @ B.T
        config.catalog.f(y, vd, fx, out=fx)
        np.matmul(fx, Bq, out=F)
        # summed with f, not once per window: the memory and f parts of R partly cancel
        F += base.memory[rows]
        yield lo, F


@np.errstate(over="ignore", invalid="ignore")  # a blow-up to inf or NaN trips the test
def window_response(base: Trajectory, control, linear: BeamState) -> BeamState:
    """The forced response R(tau) of every cell of a one-window control (module docstring).

    ``base`` is the zero-control run, left unchanged, and the control's window is the last
    delta of its horizon, delta being that of the control's Gramian set.  The cells'
    terminal states are the steered linear ones, ``linear``, plus R: each is checked
    against the blow-up threshold, the sum forming no state inside the window.
    """
    config, gramians = base.config, control.gramians
    lam = config.modes.lambdas
    if control.eta.ndim != 3:
        raise InvalidArgumentError("a window sum takes the control of one window, not a stack")
    same = gramians.modes.lambdas is lam or np.array_equal(gramians.modes.lambdas, lam)
    if gramians.beta != config.beta or not same:
        raise InvalidArgumentError("the control must be synthesized for the config's system")
    start = config.validate_delta(gramians.delta)
    # (a12, a22) of exp(K (tau - t_k)) and the trapezoid weights, from the window start
    response = _tables(config)[-1][:, start - config.horizon_steps - 1 :]
    omega = np.ones(response.shape[1])
    omega[[0, -1]] = 0.5
    R = np.zeros((2, len(control.eta), config.n_modes))
    for lo, F in _window_forcing(base, control, start):
        k = slice(lo - start, lo - start + F.shape[1])
        R += np.einsum("ikj,k,ckj->icj", response[:, k], omega[k], F)
    R *= config.step
    z_w, z_v = linear.w + R[0], linear.v + R[1]
    norms = np.sqrt(np.square(z_w) @ (lam * lam) + np.square(z_v).sum(axis=-1))
    if not norms.max() <= BLOWUP_THRESHOLD:  # a NaN trips too
        c = int(np.argmax(norms))  # argmax takes a NaN as the largest
        raise BlowUpError(
            f"trajectory norm {norms[c]:.3e} at t={config.tau:.6f} in the cell "
            f"alpha={control.alpha[c]}, delta={gramians.delta:g}"
        )
    return BeamState(R[0], R[1])
