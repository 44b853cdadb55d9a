"""Mild-solution simulator for the semilinear beam with delay, memory, impulses.

Per mode the state obeys an exponential-integrator step

    z(t+h) = exp(K h) z(t) + integral_0^h exp(K (h - s)) F(t + s) ds,

with F collecting the distributed control, the delayed nonlinearity and the
Volterra memory term, all entering through the velocity slot.  The grid
alignment law (the step divides the delay, the horizon, the window start and
every impulse time) makes all delayed reads exact grid lookups, so no
interpolation is ever performed.  The state-dependent forcings are integrated
by the trapezoid rule in s; the closed-form steering control is integrated
exactly per step, so the linear steering path and the simulator agree to
quadrature precision.

Nonlinear maps act through collocation: synthesize onto the grid, apply the
pointwise map, project back.  Velocity jumps at impulse times are applied
after the step that lands exactly on the impulse node; delayed reads at such
nodes use the left-limit (pre-jump) value.  The memory term is the trapezoid
sum of its convolution, which the exponential kernel turns into an exact
O(1)-per-step recursion.

Steering controls are stepped as cells along a leading array axis.  Since
every window is shorter than the delay, a run resumed at the window start
from a zero-control prefix reads its delayed states and memory forcing there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BlowUpError, InvalidArgumentError
from .semigroup import damping_roots, exp_entries
from .spectral import (
    BeamState,
    HistorySegment,
    ModeSet,
    SpatialDomain,
    basis_matrix,
    laplacian_eigenvalues,
)

F_KINDS = ("zero", "linear_growth", "bounded_trig")
G_KINDS = ("zero", "sin", "rational")
KERNEL_KINDS = ("zero", "exponential")

BLOWUP_THRESHOLD = 1e12


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
    |f(t, y, v, u)| <= f_a * sqrt(y**2 + v**2) + f_b pointwise:

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
        if self.f_a < 0 or self.f_b < 0 or self.kappa < 0 or self.gamma < 0:
            raise InvalidArgumentError("catalog parameters must be nonnegative")

    def f(self, t, y, v, u):
        if self.f_kind == "zero":
            return np.zeros_like(np.asarray(y, dtype=float))
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

    @property
    def count(self) -> int:
        return len(self.times)

    @property
    def last_time(self) -> float:
        return self.times[-1] if self.times else 0.0

    def jump(self, k: int, t: float, w_grid, v_grid, u_grid):
        """Pointwise velocity jump of impulse k on the collocation grid."""
        if not 0 <= k < self.count:
            raise InvalidArgumentError(f"impulse index {k} out of range")
        return self.gains[k] * np.tanh(np.asarray(w_grid) + np.asarray(v_grid))


@dataclass
class SimConfig:
    """Complete description of one simulation run."""

    n_modes: int
    length: float
    grid_points: int
    beta: float
    tau: float
    delay: float
    step: float
    catalog: NonlinearityCatalog = field(default_factory=NonlinearityCatalog)
    impulses: ImpulseSchedule = field(default_factory=ImpulseSchedule)
    history: Optional[Callable[[float], BeamState]] = None
    delta: Optional[float] = None
    alpha: Optional[float] = None
    blowup_threshold: float = BLOWUP_THRESHOLD

    def __post_init__(self):
        if self.beta <= 1.0:
            raise InvalidArgumentError("damping coefficient must exceed 1")
        if self.tau <= 0 or self.delay <= 0 or self.step <= 0:
            raise InvalidArgumentError("tau, delay and step must be positive")
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
        if self.delta is not None:
            self.validate_delta(self.delta)
        if self.alpha is not None and not 0 < self.alpha <= 1:
            raise InvalidArgumentError("alpha must lie in (0, 1]")

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

    def left_limit(self, i: int) -> BeamState:
        """State at node i with pre-jump values at impulse nodes."""
        if i in self.pre_impulse:
            wp, vp = self.pre_impulse[i]
            return BeamState(wp.copy(), vp.copy())
        return self.state(i)

    def terminal(self) -> BeamState:
        return self.state(self.times.size - 1)


def evaluate_nonlinearity(
    t: float,
    delayed: BeamState,
    u_coeffs: np.ndarray,
    catalog: NonlinearityCatalog,
    domain: SpatialDomain,
    modes: ModeSet,
) -> BeamState:
    """Velocity-slot increment from the delayed forcing nonlinearity.

    Synthesizes the delayed deflection/velocity and the control on the
    collocation grid, applies f pointwise and projects back.
    """
    if delayed.count != modes.count:
        raise InvalidArgumentError("state and mode set sizes differ")
    u_coeffs = np.asarray(u_coeffs, dtype=float)
    if u_coeffs.shape != (modes.count,):
        raise InvalidArgumentError("control coefficients have wrong length")
    B = basis_matrix(domain, modes.count)
    fvals = catalog.f(t, B @ delayed.w, B @ delayed.v, B @ u_coeffs)
    return BeamState(np.zeros(modes.count), domain.spacing * (fvals @ B))


def memory_term(
    t: float,
    trajectory: Trajectory,
    catalog: NonlinearityCatalog,
    domain: SpatialDomain,
    modes: ModeSet,
) -> BeamState:
    """Volterra memory increment at time t, recomputed from a trajectory.

    Composite trapezoid over the stored grid of kernel(t - s) * g(w(s - r)),
    collocated and projected.  Used as the cross-check path; the simulator
    evaluates the same sums by the exact exponential-kernel recursion.
    """
    if t < 0:
        raise InvalidArgumentError("memory term is defined for t >= 0")
    i = trajectory.index_at(t)
    i0 = trajectory.start_index
    if not catalog.has_memory or i == i0:
        return BeamState.zeros(modes.count)
    n_r = exact_multiple(trajectory.delay, trajectory.step, "the delay")
    lo = i0 - n_r
    if lo < 0:
        raise RuntimeError("trajectory does not hold the required history")
    B = basis_matrix(domain, modes.count)
    gvals = catalog.g(trajectory.w[lo : i - n_r + 1] @ B.T)
    gproj = domain.spacing * (gvals @ B)
    dt = (i - np.arange(i0, i + 1)) * trajectory.step
    weights = np.full(i - i0 + 1, trajectory.step)
    weights[0] = weights[-1] = trajectory.step / 2.0
    kern = catalog.kernel(dt)
    return BeamState(np.zeros(modes.count), (kern * weights) @ gproj)


def apply_impulse(
    state: BeamState,
    k: int,
    u_coeffs: np.ndarray,
    schedule: ImpulseSchedule,
    domain: SpatialDomain,
    modes: ModeSet,
) -> BeamState:
    """State after impulse k: deflection kept, velocity jumped."""
    if not 0 <= k < schedule.count:
        raise InvalidArgumentError(f"impulse index {k} out of range")
    B = basis_matrix(domain, modes.count)
    u_grid = B @ np.asarray(u_coeffs, dtype=float)
    jump = schedule.jump(k, schedule.times[k], B @ state.w, B @ state.v, u_grid)
    return BeamState(state.w.copy(), state.v + domain.spacing * (jump @ B))


def _control_step_increments(etas, modes: ModeSet, beta: float, h: float, thetas):
    """Exact window-control contributions of every step, raw coordinates.

    For a step starting with time-to-go theta the increment is
    integral_0^h exp(K (h - s)) b u(t + s) ds with u the closed-form window
    control; expanding both exponentials over the characteristic roots gives
    a four-term sum per mode.  ``etas`` holds one (N, 2) preimage per cell;
    returns (n_cells, n_steps, N) arrays for w and v.
    """
    lam = modes.lambdas
    r1, r2 = damping_roots(lam, beta)
    c = 1.0 / (r1 - r2)
    p = (lam * etas[..., 0] + r1 * etas[..., 1], lam * etas[..., 0] + r2 * etas[..., 1])
    rr = (r1, r2)
    vi = ((lam, r1), (lam, r2))
    thetas = np.asarray(thetas, dtype=float)[:, None]
    out1 = np.zeros((len(etas), thetas.shape[0], lam.size))
    out2 = np.zeros_like(out1)
    for i in range(2):
        si = 1.0 if i == 0 else -1.0
        for k in range(2):
            sk = 1.0 if k == 0 else -1.0
            coef = (si * sk * c * c * p[k])[:, None]
            term = (np.exp(rr[i] * h + rr[k] * thetas) - np.exp(rr[k] * (thetas - h))) / (
                rr[i] + rr[k]
            )
            out1 += coef * vi[i][0] * term
            out2 += coef * vi[i][1] * term
    return out1 / lam, out2


def _check_resume(config: SimConfig, prefix: Trajectory, cells, start_idx):
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
    if any(c.base is not None for c in cells):
        raise InvalidArgumentError(
            "a control with a base signal cannot resume from the zero-control prefix"
        )


def simulate(config: SimConfig, control=None, prefix: Optional[Trajectory] = None):
    """Integrate the semilinear system; controls are cells on a leading axis.

    ``control`` is None (zero control), a steering ControlSignal or, with
    ``prefix``, a sequence of them on one window.  Without ``prefix`` the
    run covers [-delay, tau] and returns its Trajectory.  ``prefix`` is a
    recorded zero-control run of the same config; the run resumes at the
    window start and returns the prefix continued through the window for a
    single control, the terminal states for a sequence.  Steps whose start
    lies before the window start never evaluate the window control, so
    trajectories for different regularisation parameters are bitwise
    identical up to the window start.
    """
    modes = config.modes()
    domain = config.domain()
    lam = modes.lambdas
    N = config.n_modes
    h = config.step
    catalog = config.catalog
    n_r = exact_multiple(config.delay, h, "the delay")
    n_T = exact_multiple(config.tau, h, "the horizon")
    idx0 = n_r
    n_total = n_r + n_T + 1
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
        _check_resume(config, prefix, cells, start_idx)
    elif batched:
        raise InvalidArgumentError("a batch of controls must resume from a prefix run")

    # the arrays hold nodes lo.. of every cell, window-sized for a batch;
    # stepping starts at node `first`
    lo = start_idx if batched else 0
    first = idx0 if prefix is None else start_idx
    W = np.zeros((len(cells), n_total - lo, N))
    V = np.zeros_like(W)
    if prefix is None:
        history = config.history or (lambda s: BeamState.zeros(N))
        seg = HistorySegment.sample(history, config.delay, h, N)
        W[0, : idx0 + 1] = seg.w
        V[0, : idx0 + 1] = seg.v
        pre_impulse, impulse_events, memory = {}, [], np.zeros((n_total, N))
    else:
        W[:, : first - lo + 1] = prefix.w[lo : first + 1]
        V[:, : first - lo + 1] = prefix.v[lo : first + 1]
        pre_impulse = dict(prefix.pre_impulse)
        impulse_events = list(prefix.impulse_events)
        memory = prefix.memory
    past_w, past_v = (prefix.w, prefix.v) if batched else (W[0], V[0])

    imp_at = {
        idx0 + exact_multiple(t_k, h, "an impulse time"): k
        for k, t_k in enumerate(config.impulses.times)
    }

    zero = np.zeros(N)
    win_u = extra = base_u = None
    if start_idx is not None:
        win_t = times[start_idx:]
        win_u = np.stack([c.window_coeffs(win_t) for c in cells])
        if any(c.extra is not None for c in cells):
            extra = np.array(
                [[c.extra(float(t)) if c.extra else zero for t in win_t] for c in cells],
                dtype=float,
            )
        if cells[0].base is not None:  # full runs only; resumed runs reject a base
            base_u = np.array([cells[0].base_coeffs(t) for t in times[idx0 : start_idx + 1]])
        cw, cv = _control_step_increments(
            np.stack([c.eta for c in cells]), modes, config.beta, h, config.tau - win_t[:-1]
        )

    a11, a12, a21, a22 = exp_entries(lam, config.beta, h)
    B = basis_matrix(domain, N)
    qw = domain.spacing
    has_f = catalog.f_kind != "zero"

    def base_at(i):
        return zero if base_u is None else base_u[i - idx0]

    def forcing(i, active):
        """Velocity-slot forcing at node i per cell, window control excluded."""
        if active:
            u = win_u[:, i - start_idx]
            F = zero if extra is None else extra[:, i - start_idx]
        else:
            u = F = base_at(i)
        if has_f:
            wd, vd = pre_impulse.get(i - n_r) or (past_w[i - n_r], past_v[i - n_r])
            fvals = catalog.f(times[i], B @ wd, B @ vd, u @ B.T)
            F = F + qw * (fvals @ B)
        if catalog.has_memory:
            F = F + memory[i]
        return F

    # Exact recursion for the trapezoid sum of the exponential kernel: acc
    # carries kappa-free weights decay**(m - k) * h (h/2 for k = 0) times g_k.
    recurse = prefix is None and catalog.has_memory
    if recurse:
        decay = np.exp(-catalog.gamma * h)

        def g_proj(i):
            return qw * (catalog.g(B @ W[0, i - n_r]) @ B)

        acc = 0.5 * h * g_proj(idx0)

    half = 0.5 * h
    for i in range(first, n_total - 1):
        active = start_idx is not None and i >= start_idx
        if i == first or i == start_idx:
            F_left = forcing(i, active)
        if recurse:
            g = g_proj(i + 1)
            acc = decay * acc
            memory[i + 1] = catalog.kappa * (acc + half * g)
            acc = acc + h * g
        F_right = forcing(i + 1, active)

        k = i - lo
        w0, v0 = W[:, k], V[:, k]
        w1 = a11 * w0 + a12 * v0 + half * a12 * F_left
        v1 = a21 * w0 + a22 * v0 + half * (a22 * F_left + F_right)
        if active:
            w1 = w1 + cw[:, i - start_idx]
            v1 = v1 + cv[:, i - start_idx]

        if i + 1 in imp_at:
            # impulses precede every window, so only single-cell full runs meet one
            n_imp = imp_at[i + 1]
            wp, vp = w1[0], v1[0]
            pre_impulse[i + 1] = (wp.copy(), vp.copy())
            jump = config.impulses.jump(
                n_imp, times[i + 1], B @ wp, B @ vp, B @ base_at(i + 1)
            )
            dv = qw * (jump @ B)
            v1 = (vp + dv)[None]
            impulse_events.append((n_imp, float(times[i + 1]), float(np.linalg.norm(dv))))
        W[:, k + 1] = w1
        V[:, k + 1] = v1

        norms = np.sqrt(np.sum((lam * w1) ** 2, axis=1) + np.sum(v1**2, axis=1))
        c = int(np.argmax(norms))
        if norms[c] > config.blowup_threshold:
            cell = cells[c]
            where = "" if cell is None else (
                f" in the cell alpha={cell.alpha}, delta={cell.window.delta:g}"
            )
            raise BlowUpError(f"trajectory norm {norms[c]:.3e} at t={times[i + 1]:.6f}{where}")

        F_left = F_right

    if batched:
        return [BeamState(w.copy(), v.copy()) for w, v in zip(W[:, -1], V[:, -1])]
    control_rec = np.zeros((n_total, N))
    if base_u is not None:
        control_rec[idx0:start_idx] = base_u[:-1]
    if win_u is not None:
        control_rec[start_idx:] = win_u[0]
    return Trajectory(
        times=times,
        w=W[0],
        v=V[0],
        control=control_rec,
        memory=memory,
        start_index=idx0,
        step=h,
        pre_impulse=pre_impulse,
        impulse_events=impulse_events,
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
    N = modes.count
    scales = 10.0 ** rng.uniform(-2, 1, size=samples)
    coords = rng.standard_normal((samples, N, 2)) * scales[:, None, None]
    Wc = coords[:, :, 0] / modes.lambdas
    Vc = coords[:, :, 1]
    Uc = rng.standard_normal((samples, N)) * scales[:, None]
    ts = rng.uniform(0.0, 1.0, size=samples)

    B = basis_matrix(domain, N)
    yg = Wc @ B.T
    vg = Vc @ B.T
    ug = Uc @ B.T
    norms = np.linalg.norm(coords.reshape(samples, -1), axis=1)
    fnorm = np.empty(samples)
    for s in range(samples):
        fvals = catalog.f(ts[s], yg[s], vg[s], ug[s])
        fnorm[s] = np.linalg.norm(domain.spacing * (fvals @ B))

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
