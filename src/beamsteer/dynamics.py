"""Mild-solution simulator for the semilinear beam with delay, memory, impulses.

Per mode the state obeys an exponential-integrator step

    z(t+h) = exp(K h) z(t) + integral_0^h exp(K (h - s)) F(t + s) ds,

with F collecting the distributed control, the delayed nonlinearity and the
Volterra memory term, all entering through the velocity slot.  The grid
alignment law (the step divides the delay, the horizon, the window start and
every impulse time) makes all delayed reads exact grid lookups, so no
interpolation is ever performed.  The state-dependent forcings are integrated
by the trapezoid rule in s; the closed-form steering control is integrated
exactly per step: with the costate p(t) = exp(K^T (tau - t)) eta, in energy
coordinates, a step's control increment is Q(h) p(t + h), the one-step Gramian
times the costate at the step's end.

Every pointwise map (the nonlinearity f, the memory integrand g, the impulse
jumps) acts through the slabs' one collocation: synthesize onto the grid by the
basis, apply the map, project back by the spacing-scaled basis.  Velocity jumps
at impulse times are applied after the step that lands exactly on the impulse
node; delayed reads there use the left-limit (pre-jump) velocity, the deflection
being continuous.  The memory term is the trapezoid sum of its convolution,
which the exponential kernel turns into an exact recursion seeded by row 0 of
the first slab's projected g.

The history on [-delay, 0] is an array-valued callable, evaluated once on all
history nodes.  Stepping follows the method of steps: a slab steps as far as
it allows, min(OUTER, delay/h) steps, cut at the window start and at impulse
nodes, and reads only delayed states fixed by earlier slabs.  It synthesizes its
delayed deflection once for f and g (the velocity only if f reads it, see F_READS)
and the control into grid workspaces, applies f and g there in place on its live
rows only, projects all L + 1 rows back in one product per cell, L steps being the
fewest whole chunks covering its run phase's slabs, and advances the memory recursion and
every mode alike in chunks of CHUNK steps: all chunks from a zero start by one
batched matmul, the chunk starts by a Toeplitz table of powers of the chunk
propagator (decay**CHUNK, or A^CHUNK with A^k = exp(K k h) in closed form), and
the propagated chunk starts added back.  Every node array carries one slab of
trailing rows, so slabs read and write full-shape views whose rows past the
slab's end are finite and meet only zeros above the tables' diagonals: as no
product's shape depends on the cut or the batch, neither does a node's value.
Every array that does not leave ``simulate`` (the grid workspaces, the window
products and a resumed run's node arrays) is a view of a per-thread buffer that
grows and never shrinks, so a warm call maps no new pages.  Rows read past a
slab's end are zeroed at each run phase's start, whatever an earlier call left
there; a full run's node arrays are fresh, as its Trajectory returns them.

Each table that depends only on the system (basis, propagator, memory kernel,
window) is built once and cached.  Windows end at tau and are shorter than the
delay, so the window table covers the last delay/h nodes, where theta = tau - t
depends on the node alone: per node, the coefficients of e0 and e1 in the
control b^T p and the increment Q(h) p of p = exp(K^T theta) eta.  A full run
steps one cell, with no control or a one-cell one; a resumed run steps a
window-sized control of any number of cells, reads its delayed states and
memory forcing from the zero-control prefix, and returns the cells' terminal
states.
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
from .semigroup import exp_entries, gramian_entries
from .spectral import (
    BeamState,
    ModeSet,
    SpatialDomain,
    basis_matrix,
    laplacian_eigenvalues,
)
from .steering import ControlSignal

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
            return np.add(self.f_a * np.sin(y) * np.cos(v), self.f_b * np.cos(u), out=out)
        if out is None or np.ndim(u) == 0:  # one cos for a scalar u, not one per grid point
            out = np.multiply(y, self.f_a * np.cos(u), out=out)
        else:  # the products of y * (f_a * cos u), in place
            np.cos(u, out=out)
            out *= self.f_a
            out *= y
        if self.f_b:
            out += self.f_b
        return out

    def g(self, w, out=None):
        """g pointwise; with ``out`` (not ``w`` itself) the result is written there."""
        if self.g_kind == "zero":
            return np.zeros(np.shape(w)) if out is None else np.copyto(out, 0.0) or out
        if self.g_kind == "sin":
            return np.sin(w, out=out)
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
        """Reject a run past RUN_BYTES before anything is allocated: a full run of one cell,
        or a window run of ``window_steps`` steps and ``cells`` cells with its base run's nodes.

        Sized in Python ints: W, V and memory padded by a slab of L <= ``slab`` steps, the
        window table, the basis and its projector, L + 1 grid rows of y and g and per cell of
        f, and per cell the window products and their temporary, as the held buffers keep them.
        """
        n_r, grid = self.delay_steps, self.grid_points - 1
        steps = n_r + self.horizon_steps if window_steps is None else window_steps
        slab = min(OUTER, min(n_r, steps) + CHUNK)
        nodes = (2 * cells + 1) * (steps + 1 + slab) + 6 * (n_r + slab + cells * (slab + 1))
        if window_steps is not None:  # the base run's W, V and memory live through every window run
            nodes += 3 * (n_r + self.horizon_steps + 1 + min(OUTER, n_r + CHUNK))
        held = 8 * ((nodes + 2 * grid) * self.n_modes + (cells + 2) * (slab + 1) * grid)
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
    """Recorded run: states on the full grid [-delay, tau] plus diagnostics.

    States at impulse nodes are the post-jump values; the pre-jump pairs are
    kept aside so delayed reads can use the left limit.  ``memory`` holds the
    Volterra memory forcing per node.  ``config`` and ``control`` (a
    ControlSignal or None) are what the run was made with.
    """

    times: np.ndarray
    w: np.ndarray
    v: np.ndarray
    memory: np.ndarray
    pre_impulse: dict
    impulse_events: list
    config: SimConfig
    control: Optional[ControlSignal]

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


_held = threading.local()  # this thread's scratch buffers of simulate, by slot


def _carve(slot: str, *shapes):
    """Consecutive float views of ``shapes`` at the start of this thread's held buffer ``slot``.

    The buffer grows to fit and never shrinks, so a warm call maps no new pages.  A view
    holds whatever an earlier call left there; a grown buffer leaves older views in the old one.
    """
    sizes = [math.prod(shape) for shape in shapes]
    if getattr(_held, slot, np.empty(0)).size < sum(sizes):
        setattr(_held, slot, np.empty(sum(sizes)))
    held, starts = getattr(_held, slot), accumulate(sizes, initial=0)
    return [held[a : a + n].reshape(shape) for a, n, shape in zip(starts, sizes, shapes)]


@lru_cache(maxsize=16)
def _slab_tables(domain, n_modes, beta, h, tau, n_r, gamma):
    """Read-only tables of ``simulate`` for one system and step: basis matrix, its spacing-
    scaled projector, (h/2 a12, a22) of A = exp(K h), the chunk table taking b_j to
    sum_{j<=k} A^(k-j) b_j, the lift table of A^(k+1), the outer table of A^(chunk (m - j))
    for up to a slab's `count` chunks, the window table (module docstring) of the last n_r nodes
    and one slab of zeros past tau, and the memory kernel's decay tables like the state's."""
    lam = laplacian_eigenvalues(domain.length, n_modes).lambdas
    (q11, q12, q22), chunk = gramian_entries(lam, beta, h), min(CHUNK, n_r)
    count = -(-min(OUTER, n_r) // chunk)
    B = basis_matrix(domain, n_modes)
    step, outer = (
        np.stack(exp_entries(lam, beta, t[:, None]), -1).reshape(t.size, n_modes, 2, 2)
        for t in (h * np.arange(chunk + 1), h * chunk * np.arange(count))
    )
    m = exact_multiple(tau, h, "the horizon")
    theta = np.maximum(tau - np.arange(m + 1 - n_r, m + 1) * h, 0.0)
    k11, k12, k21, k22 = exp_entries(lam[:, None], beta, theta, energy=True)
    qa, qb = np.array([[q11 / lam, q12], [q12 / lam, q22]])[..., None]  # increment qa p1 + qb p2
    window = np.zeros((2, 3, n_modes, n_r + chunk * count))
    window[..., :n_r] = [[k12, *(qa * k11 + qb * k12)], [k22, *(qa * k21 + qb * k22)]]
    decay = np.exp(-gamma * h) ** np.arange(chunk * count + 1)
    tables = (
        B, domain.spacing * B,
        np.stack([0.5 * h * step[1, :, 0, 1], step[1, :, 1, 1]]),
        _toeplitz(step[:-1]).transpose(1, 2, 0, 3, 4).reshape(n_modes, 2 * chunk, 2 * chunk),
        step[1:].transpose(1, 2, 0, 3).reshape(n_modes, 2 * chunk, 2),
        np.ascontiguousarray(_toeplitz(outer).transpose(1, 2, 0, 3, 4)),
        window, h * _toeplitz(decay[:chunk]), decay[1 : chunk + 1, None],
        _toeplitz(decay[: chunk * count : chunk]),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


@np.errstate(over="ignore", invalid="ignore")  # a blow-up to inf or NaN trips the slab test
def simulate(config: SimConfig, control=None, prefix: Optional[Trajectory] = None):
    """Integrate the semilinear system; the control's cells step together.

    Without ``prefix``, ``control`` is None (zero control) or a one-cell
    ControlSignal, and the run covers [-delay, tau] and returns its Trajectory.
    With ``prefix``, a zero-control run of the same config that is left
    unchanged, ``control`` is a ControlSignal of any number of cells: the run
    resumes at the window start as a batch of window-sized cells that read their
    delayed states and memory forcing from the prefix, and returns their
    terminal states as one batch of states.  The control must be one window's,
    synthesized for the config's damping and modes, and its window is the last
    delta of the config's horizon, delta being that of its Gramian set.  Steps
    whose start lies before the window start never evaluate the window control,
    so trajectories for different regularisation parameters are bitwise
    identical up to the window start.
    """
    lam, domain, N, h, catalog = (
        config.modes.lambdas, config.domain, config.n_modes, config.step, config.catalog
    )
    n_r = idx0 = config.delay_steps
    n_total = n_r + config.horizon_steps + 1
    B, Bq, (half_a12, a22), chunk_table, lift, outers, window, m_chunk, m_lift, m_outers = (
        _slab_tables(domain, N, config.beta, h, config.tau, n_r, catalog.gamma)
    )

    if control is not None and control.eta.ndim != 3:
        raise InvalidArgumentError("a run takes the control of one window, not a stack")
    cells = 1 if control is None else len(control.eta)
    if prefix is None and cells != 1 or prefix is not None and control is None:
        raise InvalidArgumentError("a full run takes None or one cell, a resumed run a control")
    if prefix is not None and not (prefix.config == config and prefix.control is None):
        raise InvalidArgumentError("prefix must be a zero-control run of the same config")
    start_idx = None
    if control is not None:
        gramians, e0, e1 = control.gramians, control.eta[..., :1], control.eta[..., 1:]
        same = gramians.modes.lambdas is lam or np.array_equal(gramians.modes.lambdas, lam)
        if gramians.beta != config.beta or not same:
            raise InvalidArgumentError("the control must be synthesized for the config's system")
        start_idx = config.validate_delta(gramians.delta)
        window = window[..., start_idx - (n_total - n_r) :]  # from this run's window start

    # W and V hold nodes lo.. of every cell: all nodes for a full run, the
    # window for a resumed one; slabs of at most n_r steps inside `counts[active]`
    # chunks of `chunk` steps, and every node array carries `pad` trailing rows
    chunk = min(CHUNK, n_r)
    counts = {False: -(-min(OUTER, n_r) // chunk)}
    if start_idx is not None:
        counts[True] = -(-min(OUTER, n_total - 1 - start_idx) // chunk)
    pad = chunk * counts[prefix is not None]  # a window's slabs are no longer than the delay
    lo = 0 if prefix is None else start_idx
    nodes = (cells, n_total - lo + pad, N)
    if prefix is None:  # the Trajectory returns them
        W, V, memory = np.zeros(nodes), np.zeros(nodes), np.zeros(nodes[1:])
    else:  # they serve only the terminal states, and every row is written before it is read
        W, V, memory = _carve("nodes", nodes, nodes, nodes[1:])
    pre_impulse, impulse_events = {}, []
    if prefix is None:
        times = (np.arange(n_total) - idx0) * h
        if config.history is not None:
            hist, shape = config.history(times[: idx0 + 1]), (idx0 + 1, N)
            if not (isinstance(hist, tuple) and [np.shape(a) for a in hist] == [shape] * 2):
                raise InvalidArgumentError(f"history must give (w, v) arrays of shape {shape}")
            W[0, : idx0 + 1], V[0, : idx0 + 1] = hist
        past_w, past_v = W[0], V[0]
    else:  # every impulse precedes the window, so nothing below writes to the prefix
        W[:, 0], V[:, 0] = prefix.w[lo], prefix.v[lo]
        memory[: n_total - lo] = prefix.memory[lo:]
        memory[n_total - lo :] = 0.0
        past_w, past_v, pre_impulse = prefix.w, prefix.v, prefix.pre_impulse

    imp_at = {idx0 + n: k for k, n in enumerate(config.impulse_steps)}

    half, lam2, ones, reads = 0.5 * h, lam * lam, np.ones(N), F_READS[catalog.f_kind]

    # the trapezoid sum of the exponential kernel, kappa-free, by the exact recursion
    # S_(k+1) = decay S_k + h g_(k+1), chunked like the state; the carry is S at the slab start
    recurse = prefix is None and catalog.has_memory

    stops = sorted(s for s in {n_total - 1, start_idx, *imp_at} if s is not None)
    s0, count = (idx0 if prefix is None else lo), None
    while s0 < n_total - 1:
        active = start_idx is not None and s0 >= start_idx
        if count != counts[active]:
            count = counts[active]
            L = count * chunk
            outer = outers[:, :, :count, :, :count].reshape(N, 2 * count, 2 * count)
            # held workspaces: forcing rows, chunk solves and starts, the grid rows of the
            # delayed deflection, f (and the control) and g, and the window products; only
            # what is read past the live rows is zeroed, all else is written before it is read
            grid = (L + 1, len(B))
            fc, gq, X, Z, E, yd, fx, gx, prod, tmp = _carve(
                "phase", (cells, L + 1, N), (L + 1, N), *[(cells, N, 2 * chunk, count)] * 2,
                (cells, N, 2, count), grid, (cells, *grid), grid, *[(3, cells, N, L + 1)] * 2,
            )
            xw, xv = (X[:, :, r * chunk : (r + 1) * chunk].transpose(0, 3, 2, 1) for r in (0, 1))
            if reads and not active:
                fx[...] = 0.0
            if recurse:
                gx[...] = 0.0
        s1 = min(s0 + L, s0 + n_r, next(s for s in stops if s > s0))
        n, j = s1 - s0, (s0 - start_idx if active else 0)
        if active:
            # the control b^T p and increments Q(h) p(t + h), from the window table
            c0, c1 = window[:, :, None, :, j : j + L + 1]
            np.multiply(c0, e0, out=prod)
            win_u, cw, cv = np.add(prod, np.multiply(c1, e1, out=tmp), out=prod)
        # f and g on the slab's live rows s0..s1; every product takes all L + 1 rows, per cell
        if reads or recurse:
            rows, live = slice(s0 - n_r, s0 - n_r + L + 1), slice(n + 1)
            # delayed deflection on the grid, for f and g; continuous at impulses
            y = np.matmul(past_w[rows], B.T, out=yd)[live]
            if recurse:
                catalog.g(y, out=gx[live])
                np.matmul(gx, Bq, out=gq)
            if reads:
                vd = 0.0  # read by f only where its kind says so
                if "v" in reads:
                    vd = past_v[rows].copy()
                    for d, (_, v_left) in pre_impulse.items():
                        if rows.start <= d < rows.stop:
                            vd[d - rows.start] = v_left
                    vd = (vd @ B.T)[live]
                if active:  # the control's synthesis, mapped to f in place
                    np.matmul(win_u.swapaxes(1, 2), B.T, out=fx)
                catalog.f(y, vd, fx[:, live] if active else 0.0, out=fx[:, live])
                np.matmul(fx, Bq, out=fc)
        new = slice(s0 - lo + 1, s0 - lo + 1 + L)
        if recurse:
            if s0 == idx0:  # S_0 = (h/2) P g(w(-delay)), row 0 of the first slab's products
                carry = half * gq[0]
            g, M = (x.reshape(count, chunk, N) for x in (gq[1:], memory[new]))
            np.matmul(m_chunk, g, out=M)
            M += m_lift * (m_outers[:count, :count] @ np.vstack([carry, M[:-1, -1]]))[:, None]
            carry = M.reshape(L, N)[n - 1].copy()
            np.multiply(M - half * g, catalog.kappa, out=M)
        # velocity-slot forcing at the slab's nodes s0..s0+L, per cell
        F = memory[s0 - lo : s0 - lo + L + 1]
        if reads:
            F = np.add(fc, F, out=fc)
        left, right = (F[..., r : L + r, :].reshape(-1, count, chunk, N) for r in (0, 1))
        np.multiply(half_a12, left, out=xw)
        np.multiply(a22, left, out=xv)
        xv += right
        xv *= half
        if active:
            xw += cw[..., 1:].reshape(cells, N, count, chunk).transpose(0, 2, 3, 1)
            xv += cv[..., 1:].reshape(cells, N, count, chunk).transpose(0, 2, 3, 1)
        # every chunk from a zero start, then the chunk starts s_m from the
        # slab start and the chunk ends, then A^(k+1) s_m added back
        np.matmul(chunk_table, X, out=Z)
        E[:, :, 0, 0], E[:, :, 1, 0] = W[:, s0 - lo], V[:, s0 - lo]
        E[..., 1:] = Z[:, :, chunk - 1 :: chunk, :-1]
        Z += lift @ (outer @ E.reshape(cells, N, 2 * count, 1)).reshape(E.shape)
        W[:, new].reshape(cells, count, chunk, N)[...] = Z[:, :, :chunk].transpose(0, 3, 2, 1)
        V[:, new].reshape(cells, count, chunk, N)[...] = Z[:, :, chunk:].transpose(0, 3, 2, 1)
        if s1 in imp_at:
            # impulses precede every window, so only single-cell full runs meet one
            k = imp_at[s1]
            wp, vp = W[0, s1].copy(), V[0, s1].copy()
            pre_impulse[s1] = (wp, vp)
            dv = config.impulses.jump(k, wp @ B.T, vp @ B.T) @ Bq
            V[0, s1] = vp + dv
            impulse_events.append((k, float(times[s1]), float(np.linalg.norm(dv))))

        sq = np.square(W[:, new][:, :n]) @ lam2 + np.square(V[:, new][:, :n]) @ ones
        # sqrt is monotone, so this is the per-node test; a NaN trips too
        if not np.sqrt(sq.max()) <= BLOWUP_THRESHOLD:
            norms = np.sqrt(sq)
            tripped = ~(norms <= BLOWUP_THRESHOLD)
            j = int(np.argmax(tripped.any(axis=0)))  # the first node that trips
            c = int(np.argmax(norms[:, j]))  # argmax takes a NaN as the largest
            where = "" if control is None else (
                f" in the cell alpha={control.alpha[c]}, delta={control.gramians.delta:g}"
            )
            raise BlowUpError(
                f"trajectory norm {norms[c, j]:.3e} at t={(s0 + 1 + j - idx0) * h:.6f}{where}"
            )
        s0 = s1

    if prefix is not None:
        return BeamState(W[:, n_total - 1 - lo].copy(), V[:, n_total - 1 - lo].copy())
    return Trajectory(
        times=times, w=W[0, :n_total], v=V[0, :n_total], memory=memory[:n_total],
        pre_impulse=pre_impulse, impulse_events=impulse_events, config=config, control=control,
    )

