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
jumps) acts through one collocation: synthesize the coefficient arrays onto
the grid, apply the map, project back.  Velocity jumps at impulse times are
applied after the step that lands exactly on the impulse node; delayed reads
at such nodes use the left-limit (pre-jump) velocity, the deflection being
continuous there.  The memory term is the trapezoid sum of its convolution,
which the exponential kernel turns into an exact recursion.

The history on [-delay, 0] is an array-valued callable, evaluated once on
all history nodes.  Stepping follows the method of steps: a slab of at most
min(SLAB, delay/h) steps, cut at the window start and at impulse nodes, reads
only delayed states fixed by earlier slabs.  Each slab synthesizes its
delayed deflection once, which serves both f and g, collocates them at all
its nodes at once, advances the memory recursion by a table of decay powers
and every mode by z_k = A^k z_0 + sum_{j<k} A^(k-1-j) b_j, with
A^k = exp(K k h) in closed form.  The inputs a slab may read past the
horizon (memory forcing, window costate) carry min(SLAB, delay/h) trailing
rows, padded once per run, so every slab reads full-shape views into one
preallocated input buffer.  Rows past a slab's end are finite and the slab
tables are exactly zero above the diagonal, so they never reach its nodes;
with the products run per cell, a node's value depends neither on where its
slab ends nor on how many cells step together.

Steering controls are stepped as cells along a leading array axis.  Since
every window is shorter than the delay, a resumed run is one window-sized
batch that reads its delayed states and memory forcing from the zero-control
prefix; a single control is a batch of one, stitched onto the prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import BlowUpError, InvalidArgumentError
from .semigroup import exp_entries, gramian_entries
from .spectral import (
    BeamState,
    ModeSet,
    SpatialDomain,
    basis_matrix,
    laplacian_eigenvalues,
)

F_KINDS = ("zero", "linear_growth", "bounded_trig")
G_KINDS = ("zero", "sin", "rational")
KERNEL_KINDS = ("zero", "exponential")

BLOWUP_THRESHOLD = 1e12
# most steps one slab advances; a slab is also bounded by the delay
SLAB = 32


def exact_multiple(value: float, step: float, what: str) -> int:
    """Integer n with n*step == value, or an error naming the constraint."""
    n = int(round(value / step))
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
        if self.f_kind not in F_KINDS:
            raise InvalidArgumentError(f"unknown forcing kind {self.f_kind!r}")
        if self.g_kind not in G_KINDS:
            raise InvalidArgumentError(f"unknown memory integrand kind {self.g_kind!r}")
        if self.kernel_kind not in KERNEL_KINDS:
            raise InvalidArgumentError(f"unknown kernel kind {self.kernel_kind!r}")
        if not all(x >= 0 for x in (self.f_a, self.f_b, self.kappa, self.gamma)):
            raise InvalidArgumentError("catalog parameters must be nonnegative")

    def f(self, y, v, u):
        if self.f_kind == "zero":
            return np.zeros(np.broadcast_shapes(np.shape(y), np.shape(v), np.shape(u)))
        if self.f_kind == "linear_growth":
            return self.f_a * np.asarray(y) * np.cos(u) + self.f_b
        return self.f_a * np.sin(y) * np.cos(v) + self.f_b * np.cos(u)

    def g(self, w):
        if self.g_kind == "zero":
            return np.zeros_like(np.asarray(w, dtype=float))
        if self.g_kind == "sin":
            return np.sin(w)
        w = np.asarray(w, dtype=float)
        return w / (1.0 + w * w)

    def kernel(self, dt):
        if self.kernel_kind == "zero":
            return np.zeros_like(np.asarray(dt, dtype=float))
        return self.kappa * np.exp(-self.gamma * np.asarray(dt, dtype=float))

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


@dataclass
class SimConfig:
    """Complete description of one simulation run; ``history`` maps n times in
    [-delay, 0] to (w, v) arrays of shape (n, n_modes), None being zero."""

    n_modes: int
    length: float
    grid_points: int
    beta: float
    tau: float
    delay: float
    step: float
    catalog: NonlinearityCatalog = field(default_factory=NonlinearityCatalog)
    impulses: ImpulseSchedule = field(default_factory=ImpulseSchedule)
    history: Optional[Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]] = None
    blowup_threshold: float = BLOWUP_THRESHOLD

    def __post_init__(self):
        if not self.beta >= 1.0:
            raise InvalidArgumentError("damping coefficient must be at least 1")
        if not all(x > 0 for x in (self.length, self.tau, self.delay, self.step)):
            raise InvalidArgumentError("length, tau, delay and step must be positive")
        if self.grid_points < 2 * self.n_modes:
            raise InvalidArgumentError(
                "grid_points must be at least twice the mode count"
            )
        exact_multiple(self.delay, self.step, "the delay")
        exact_multiple(self.tau, self.step, "the horizon")
        for t_k in self.impulses.times:
            if not 0 < t_k < self.tau:
                raise InvalidArgumentError("impulse times must lie inside (0, tau)")
            exact_multiple(t_k, self.step, f"impulse time {t_k}")

    def validate_delta(self, delta: float):
        """Check a steering-window length against the delay and impulses."""
        if not 0 < delta < self.tau:
            raise InvalidArgumentError("delta must lie in (0, tau)")
        if delta >= self.delay:
            raise InvalidArgumentError("delta must be smaller than the delay")
        if delta >= self.tau - self.impulses.last_time:
            raise InvalidArgumentError(
                "delta must keep every impulse before the steering window"
            )
        exact_multiple(self.tau - delta, self.step, "the window start")

    def domain(self) -> SpatialDomain:
        return SpatialDomain(self.length, self.grid_points)

    def modes(self) -> ModeSet:
        return laplacian_eigenvalues(self.length, self.n_modes)


@dataclass
class Trajectory:
    """Recorded run: states on the full grid [-delay, tau] plus diagnostics.

    States at impulse nodes are the post-jump values; the pre-jump pairs are
    kept aside so delayed reads can use the left limit.  ``memory`` holds the
    Volterra memory forcing per node.
    """

    times: np.ndarray
    w: np.ndarray
    v: np.ndarray
    control: np.ndarray
    memory: np.ndarray
    start_index: int
    step: float
    pre_impulse: dict
    impulse_events: list

    @property
    def memory_norms(self) -> np.ndarray:
        return np.linalg.norm(self.memory, axis=1)

    @property
    def delay(self) -> float:
        return float(-self.times[0])

    def index_at(self, t: float) -> int:
        i = self.start_index + exact_multiple(t, self.step, f"time {t}")
        if not 0 <= i < self.times.size:
            raise InvalidArgumentError(f"time {t} outside the recorded range")
        return i

    def state(self, i: int) -> BeamState:
        return BeamState(self.w[i].copy(), self.v[i].copy())

    def state_at(self, t: float) -> BeamState:
        return self.state(self.index_at(t))

    def terminal(self) -> BeamState:
        return self.state(self.times.size - 1)


def _collocate(B, spacing, fn, *coeffs):
    """Synthesize ``coeffs`` on the grid, apply ``fn`` pointwise, project back.

    ``B`` is the basis matrix of the grid; the leading axes (cells, samples)
    of the coefficient arrays broadcast.
    """
    BT = B.T
    return spacing * (fn(*[c @ BT for c in coeffs]) @ B)


def _checked_basis(domain: SpatialDomain, modes: ModeSet, *coeffs) -> np.ndarray:
    """Basis matrix of the grid, once every coefficient array ends in the mode axis."""
    for c in coeffs:
        if np.shape(c)[-1:] != (modes.count,):
            raise InvalidArgumentError("coefficient arrays must end in the mode axis")
    return basis_matrix(domain, modes.count)


def evaluate_nonlinearity(w, v, u, catalog: NonlinearityCatalog, domain, modes) -> np.ndarray:
    """Velocity increment of the forcing f at delayed state (w, v) and control u."""
    B = _checked_basis(domain, modes, w, v, u)
    return _collocate(B, domain.spacing, catalog.f, w, v, u)


def apply_impulse(w, v, k: int, schedule: ImpulseSchedule, domain, modes) -> np.ndarray:
    """Velocity jump of impulse k at state (w, v); the deflection is kept."""
    B = _checked_basis(domain, modes, w, v)
    return _collocate(B, domain.spacing, partial(schedule.jump, k), w, v)


def _check_resume(config: SimConfig, prefix: Trajectory, start_idx):
    """Reject a prefix run or controls that a resumed window cannot continue."""
    for what, want, got in (
        ("step", config.step, prefix.step),
        ("delay", config.delay, prefix.delay),
        ("horizon", config.tau, float(prefix.times[-1])),
        ("mode count", config.n_modes, prefix.w.shape[1]),
    ):
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            raise InvalidArgumentError(f"prefix run has {what} {got:g}, the config {want:g}")
    if start_idx is None:
        raise InvalidArgumentError("a resumed run needs a steering control")
    if np.any(prefix.control[:start_idx]):
        raise InvalidArgumentError("prefix run carries a control before the window")


def _lag_index(size):
    """Mask of the slab-table entries (row k, column j) of lag k + 1 - j >= 0, and the lags."""
    lag = np.arange(1, size + 1)[:, None] - np.arange(size + 1)
    return lag >= 0, lag[lag >= 0]


def simulate(config: SimConfig, control=None, prefix: Optional[Trajectory] = None):
    """Integrate the semilinear system; controls are cells on a leading axis.

    ``control`` is None (zero control), a steering ControlSignal or, with
    ``prefix``, a sequence of them on one window.  Without ``prefix`` the
    run covers [-delay, tau] and returns its Trajectory.  ``prefix`` is a
    recorded zero-control run of the same config, which is left unchanged;
    the run resumes at the window start as a batch of window-sized cells
    that read their delayed states and memory forcing from it, and returns
    the terminal states for a sequence, the prefix continued through the
    window for a single control.  Steps whose start lies before the window
    start never evaluate the window control, so trajectories for different
    regularisation parameters are bitwise identical up to the window start.
    """
    modes, domain = config.modes(), config.domain()
    lam, N, h, catalog = modes.lambdas, config.n_modes, config.step, config.catalog
    n_r = exact_multiple(config.delay, h, "the delay")
    idx0 = n_r
    n_total = n_r + exact_multiple(config.tau, h, "the horizon") + 1
    times = (np.arange(n_total) - idx0) * h

    batched = isinstance(control, (list, tuple))
    cells = list(control) if batched else [control]
    if not cells:
        raise InvalidArgumentError("no cell controls given")
    start_idx = None
    if cells[0] is not None:
        window = cells[0].window
        if any(c.window != window for c in cells):
            raise InvalidArgumentError("cell controls must share one window")
        if abs(window.tau - config.tau) > 1e-9:
            raise InvalidArgumentError("control window must end at the horizon")
        config.validate_delta(window.delta)
        start_idx = idx0 + exact_multiple(window.start, h, "the window start")
    if prefix is not None:
        _check_resume(config, prefix, start_idx)
    elif batched:
        raise InvalidArgumentError("a batch of controls must resume from a prefix run")

    # W and V hold nodes lo.. of every cell: all nodes for a full run, the
    # window for a resumed one; memory and costate carry `size` trailing rows
    size = min(SLAB, n_r)
    lo = 0 if prefix is None else start_idx
    W = np.zeros((len(cells), n_total - lo, N))
    V = np.zeros_like(W)
    memory = np.zeros((n_total - lo + size, N))
    if prefix is None:
        if config.history is not None:
            hist, shape = config.history(times[: idx0 + 1]), (idx0 + 1, N)
            if not (isinstance(hist, tuple) and [np.shape(a) for a in hist] == [shape] * 2):
                raise InvalidArgumentError(f"history must give (w, v) arrays of shape {shape}")
            W[0, : idx0 + 1], V[0, : idx0 + 1] = hist
        past_w, past_v = W[0], V[0]
        pre_impulse, impulse_events = {}, []
    else:
        W[:, 0], V[:, 0] = prefix.w[lo], prefix.v[lo]
        memory[: n_total - lo] = prefix.memory[lo:]
        past_w, past_v = prefix.w, prefix.v
        pre_impulse, impulse_events = dict(prefix.pre_impulse), list(prefix.impulse_events)

    imp_at = {
        idx0 + exact_multiple(t_k, h, "an impulse time"): k
        for k, t_k in enumerate(config.impulses.times)
    }

    zero = np.zeros(N)
    if start_idx is not None:
        costate = np.zeros((len(cells), n_total - start_idx + size, N, 2))
        for c, cell in zip(costate, cells):  # no stacked copy
            c[: n_total - start_idx] = cell.costate(times[start_idx:])
        win_u = costate[..., 1]
        q11, q12, q22 = gramian_entries(lam, config.beta, h)
        p1, p2 = costate[:, 1:, :, 0], costate[:, 1:, :, 1]
        cw = (q11 * p1 + q12 * p2) / lam
        cv = q12 * p1 + q22 * p2

    # per mode, (z_0, b_0 .. b_{size-1}) -> z_1 .. z_size: row k of a slab
    # table gives z_{k+1} = A^{k+1} z_0 + sum_{j<=k} A^{k-j} b_j, A^k = exp(K k h)
    mask, lags = _lag_index(size)
    powers = exp_entries(lam, config.beta, h * np.arange(size + 1)[:, None])
    propagator = np.zeros((N, 2, size, 2, size + 1))
    for (r, c), p in zip(np.ndindex(2, 2), powers):
        propagator[:, r, :, c][:, mask] = p[lags].T
    propagator = propagator.reshape(N, 2 * size, 2 * size + 2)
    half = 0.5 * h
    half_a12, a22 = half * powers[1][1], powers[3][1]
    B, qw = basis_matrix(domain, N), domain.spacing
    has_f = catalog.f_kind != "zero"
    # propagator input (z_0, b_0 .. b_{size-1}) per cell and mode, filled through xs
    x = np.empty((len(cells), N, 2 * size + 2, 1))
    xs = x[..., 0].swapaxes(1, 2)
    bw, bv = xs[:, 1 : size + 1], xs[:, size + 2 :]

    # Exact recursion for the trapezoid sum of the exponential kernel: the
    # carry holds kappa-free weights decay**(m - k) * h (h/2 for k = 0) times
    # g_k up to the slab start m; one table row per slab node adds the rest.
    recurse = prefix is None and catalog.has_memory
    if recurse:
        decay_table = np.zeros((size, size + 1))
        decay_table[mask] = np.exp(-catalog.gamma * h) ** lags
        decay_table[:, 1:] *= h
        carry = 0.5 * h * _collocate(B, qw, catalog.g, W[0, 0])

    # slabs read full-shape views of size + 1 rows; rows past a slab's end
    # meet only the zero upper triangle of the slab tables
    stops = sorted(s for s in {n_total - 1, start_idx, *imp_at} if s is not None)
    s0 = idx0 if prefix is None else lo
    while s0 < n_total - 1:
        s1 = min(s0 + size, next(s for s in stops if s > s0))
        n = s1 - s0
        active = start_idx is not None and s0 >= start_idx
        rows = slice(s0 - n_r, s0 - n_r + size + 1)
        if has_f or recurse:
            # delayed deflection on the grid, for f and g; continuous at impulses
            yd = past_w[rows] @ B.T
        if recurse:
            g = qw * (catalog.g(yd[1:]) @ B)
            acc = decay_table @ np.concatenate([carry[None], g])
            memory[s0 + 1 : s1 + 1] = catalog.kappa * (acc[:n] - half * g[:n])
            carry = acc[n - 1]
        # velocity-slot forcing at the slab's nodes s0..s0+size, per cell
        F = memory[s0 - lo : s0 - lo + size + 1]
        if has_f:
            vd = past_v[rows].copy()
            for d, (_, v_left) in pre_impulse.items():
                if s0 <= d + n_r <= s1:
                    vd[d + n_r - s0] = v_left
            u = win_u[:, s0 - start_idx : s0 - start_idx + size + 1] if active else zero
            F = qw * (catalog.f(yd, vd @ B.T, u @ B.T) @ B) + F
        xs[:, 0], xs[:, size + 1] = W[:, s0 - lo], V[:, s0 - lo]
        np.multiply(half_a12, F[..., :-1, :], out=bw)
        np.multiply(a22, F[..., :-1, :], out=bv)
        bv += F[..., 1:, :]
        bv *= half
        if active:
            bw += cw[:, s0 - start_idx : s0 - start_idx + size]
            bv += cv[:, s0 - start_idx : s0 - start_idx + size]
        z = propagator @ x
        new = slice(s0 - lo + 1, s1 - lo + 1)
        W[:, new] = np.swapaxes(z[:, :, :n, 0], 1, 2)
        V[:, new] = np.swapaxes(z[:, :, size : size + n, 0], 1, 2)
        if s1 in imp_at:
            # impulses precede every window, so only single-cell full runs meet one
            k = imp_at[s1]
            wp, vp = W[0, s1].copy(), V[0, s1].copy()
            pre_impulse[s1] = (wp, vp)
            dv = apply_impulse(wp, vp, k, config.impulses, domain, modes)
            V[0, s1] = vp + dv
            impulse_events.append((k, float(times[s1]), float(np.linalg.norm(dv))))

        sq = ((lam * W[:, new]) ** 2).sum(axis=2) + (V[:, new] ** 2).sum(axis=2)
        # sqrt is monotone, so this is the per-node test; a NaN trips too
        if not np.sqrt(sq.max()) <= config.blowup_threshold:
            norms = np.sqrt(sq)
            tripped = ~(norms <= config.blowup_threshold)
            j = int(np.argmax(tripped.any(axis=0)))  # the first node that trips
            c = int(np.argmax(norms[:, j]))  # argmax takes a NaN as the largest
            cell = cells[c]
            where = "" if cell is None else (
                f" in the cell alpha={cell.alpha}, delta={cell.window.delta:g}"
            )
            raise BlowUpError(
                f"trajectory norm {norms[c, j]:.3e} at t={times[s0 + 1 + j]:.6f}{where}"
            )
        s0 = s1

    if batched:
        return [BeamState(w.copy(), v.copy()) for w, v in zip(W[:, -1], V[:, -1])]
    w, v, memory = W[0], V[0], memory[:n_total]
    if prefix is not None:  # the cell's window rows continue the prefix
        w, v = np.concatenate([prefix.w[:lo], w]), np.concatenate([prefix.v[:lo], v])
        memory = prefix.memory
    control_rec = np.zeros((n_total, N))
    if start_idx is not None:
        control_rec[start_idx:] = win_u[0, : n_total - start_idx]
    return Trajectory(
        times=times, w=w, v=v, control=control_rec, memory=memory, start_index=idx0,
        step=h, pre_impulse=pre_impulse, impulse_events=impulse_events,
    )


def verify_f_bound(
    catalog: NonlinearityCatalog,
    domain: SpatialDomain,
    modes: ModeSet,
    samples: int = 1000,
    seed: int = 0,
) -> dict:
    """Empirical check of the growth bound on the forcing increment.

    Draws random delayed states and controls across several magnitudes,
    measures ||F increment|| against a*||state|| + b with the catalog's
    declared constants, and fits an empirical affine envelope for reporting.
    """
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-2, 1, size=samples)
    coords = rng.standard_normal((samples, modes.count, 2)) * scales[:, None, None]
    Uc = rng.standard_normal((samples, modes.count)) * scales[:, None]
    increments = evaluate_nonlinearity(
        coords[:, :, 0] / modes.lambdas, coords[:, :, 1], Uc, catalog, domain, modes
    )
    fnorm = np.linalg.norm(increments, axis=1)
    norms = np.linalg.norm(coords.reshape(samples, -1), axis=1)

    a_decl, b_decl = catalog.bound_constants(domain, modes)
    violation = float(np.max(fnorm - (a_decl * norms + b_decl)))
    if np.allclose(fnorm, 0.0):
        a_fit, b_fit = 0.0, 0.0
    else:
        a_fit, b_fit = np.polyfit(norms, fnorm, 1)
    return {
        "a_declared": a_decl,
        "b_declared": b_decl,
        "a_fit": float(a_fit),
        "b_fit": float(b_fit),
        "max_violation": violation,
        "passed": violation <= 1e-3,
        "samples": samples,
    }
