"""Independent numerical oracles shared by the test suite.

These deliberately avoid the closed forms used by the package: the matrix
exponential is Taylor series with scaling and squaring, quadratures are
assembled from scratch.  The stepwise simulator and the memory re-sum reuse
the package's one-step exponential, collocate through their own helper, and
check how the slab integrator and its memory recursion combine the two.  They,
the collocated forcing, the memory re-sum and the sampled growth bound evaluate
the catalog's f and g from its formulas on numpy's sin and cos, so that every
stepped comparison also checks the package's half-angle trig; the
stepwise control increments come from their own quadrature of the values that
``window_coeffs`` evaluates from the costate.  The stepped window response is
the reference for the package's closed-form window sum, and the same sum in
extended precision the reference for its rounding.  The plain sine
transforms, the block generator and the left-limit lookup serve only tests, as
do the package-based helpers below: one modal block with its roots, one block's
exponential, the entries of ``exp_entries`` and the operator-norm sweep in the
energy metric (after the similarity D = diag(lambda, 1) per block), the memory
kernel, the forcing and impulse collocations on their own basis, and the sampled
check of the forcing's growth bound.
"""

from dataclasses import dataclass, replace
from functools import partial

import mpmath
import numpy as np

from beamsteer import BeamState, ModeSet, Trajectory, basis_matrix, dynamics
from beamsteer.dynamics import BLOWUP_THRESHOLD, exact_multiple
from beamsteer.errors import BlowUpError, InvalidArgumentError
from beamsteer.semigroup import _roots, exp_entries


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


def _collocate(B, spacing, fn, *coeffs):
    """Synthesize ``coeffs`` on the grid, apply ``fn`` pointwise, project back.

    ``B`` is the basis matrix of the grid; the leading axes (cells, samples)
    of the coefficient arrays broadcast.
    """
    return spacing * (fn(*[c @ B.T for c in coeffs]) @ B)


def catalog_f(catalog, y, v, u):
    """The catalog's forcing f pointwise, written from its formulas on numpy's sin and cos."""
    if catalog.f_kind == "zero":
        return np.zeros(np.broadcast_shapes(np.shape(y), np.shape(v), np.shape(u)))
    if catalog.f_kind == "linear_growth":
        return catalog.f_a * y * np.cos(u) + catalog.f_b
    return catalog.f_a * np.sin(y) * np.cos(v) + catalog.f_b * np.cos(u)


def catalog_g(catalog, w):
    """The catalog's memory integrand g pointwise, written from its formulas on numpy's sin."""
    if catalog.g_kind == "zero":
        return np.zeros(np.shape(w))
    if catalog.g_kind == "sin":
        return np.sin(w)
    return w / (1.0 + w * w)


def _checked_basis(domain, modes: ModeSet, *coeffs) -> np.ndarray:
    """Basis matrix of the grid, once every coefficient array ends in the mode axis."""
    for c in coeffs:
        if np.shape(c)[-1:] != (modes.count,):
            raise InvalidArgumentError("coefficient arrays must end in the mode axis")
    return basis_matrix(domain, modes.count)


def evaluate_nonlinearity(w, v, u, catalog, domain, modes) -> np.ndarray:
    """Velocity increment of the forcing f at delayed state (w, v) and control u."""
    B = _checked_basis(domain, modes, w, v, u)
    return _collocate(B, domain.spacing, partial(catalog_f, catalog), w, v, u)


def apply_impulse(w, v, k: int, schedule, domain, modes) -> np.ndarray:
    """Velocity jump of impulse k at state (w, v); the deflection is kept."""
    B = _checked_basis(domain, modes, w, v)
    return _collocate(B, domain.spacing, partial(schedule.jump, k), w, v)


def memory_kernel(catalog, dt):
    """The catalog's memory kernel at lags ``dt``: zero, or kappa * exp(-gamma * dt)."""
    dt = np.asarray(dt, dtype=float)
    if catalog.kernel_kind == "zero":
        return np.zeros_like(dt)
    return catalog.kappa * np.exp(-catalog.gamma * dt)


def expm_squaring(A, order=24):
    """Matrix exponential by scaled Taylor summation and repeated squaring."""
    A = np.asarray(A, dtype=float)
    nrm = np.linalg.norm(A, 1)
    s = max(0, int(np.ceil(np.log2(nrm))) + 1) if nrm > 0 else 0
    B = A / 2.0**s
    E = np.eye(A.shape[0])
    T = np.eye(A.shape[0])
    for k in range(1, order + 1):
        T = T @ B / k
        E = E + T
    for _ in range(s):
        E = E @ E
    return E


def modal_reference(lam, beta, t):
    """Energy-coordinate block exp(D K D^-1 t) and Gramian Q(t) of one mode in mpmath.

    Evaluated at 120 working digits from the exact binary values of the
    arguments, so the 1/(r1 - r2)**2 cancellation of the exponential sums still
    leaves more than 50 correct digits; beta = 1 takes the confluent limit
    through incomplete gamma functions.  Returns two 2x2 nested lists of mpf.
    """
    with mpmath.workdps(120):
        lam, beta, t = mpmath.mpf(lam), mpmath.mpf(beta), mpmath.mpf(t)
        m = -beta * lam
        d = lam * mpmath.sqrt(beta**2 - 1)
        em = mpmath.exp(m * t)
        sinhc = mpmath.sinh(d * t) / d if d else t
        a11 = em * (mpmath.cosh(d * t) - m * sinhc)
        a22 = em * (mpmath.cosh(d * t) + m * sinhc)
        phi = em * sinhc
        if d:
            r1, r2 = m + d, m - d
            E = [mpmath.expm1(a * t) / a for a in (2 * r1, r1 + r2, 2 * r2)]
            # integrals of phi**2, phi phi' and phi'**2 with phi = (e^{r1 s} - e^{r2 s}) / (r1 - r2)
            sums = [(1, -2, 1), (r1, -(r1 + r2), r2), (r1**2, -2 * r1 * r2, r2**2)]
            Q = [sum(c * e for c, e in zip(cs, E)) / (r1 - r2) ** 2 for cs in sums]
        else:
            # phi = s e^{m s}; G[k] = integral_0^t s**k exp(2 m s) ds
            G = [mpmath.gammainc(k + 1, 0, -2 * m * t) / (-2 * m) ** (k + 1) for k in range(3)]
            Q = [G[2], G[1] + m * G[2], G[0] + 2 * m * G[1] + m * m * G[2]]
        gram = [[lam**2 * Q[0], lam * Q[1]], [lam * Q[1], Q[2]]]
        return [[a11, lam * phi], [-lam * phi, a22]], gram


def interleaved_generator(lambdas, beta):
    """Dense 2N x 2N generator with per-mode 2x2 blocks on the diagonal."""
    n = len(lambdas)
    A = np.zeros((2 * n, 2 * n))
    for j, lam in enumerate(lambdas):
        A[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = [
            [0.0, 1.0],
            [-lam * lam, -2.0 * beta * lam],
        ]
    return A


def block_matrix(block):
    """Generator [[0, 1], [-lam**2, -2 beta lam]] of one modal block."""
    lam, beta = block.lam, block.beta
    return np.array([[0.0, 1.0], [-lam * lam, -2.0 * beta * lam]])


def project(samples, domain, modes):
    """Coefficients of grid samples against the sine basis.

    Composite trapezoid on the uniform interior grid; the integrand vanishes
    at both boundary nodes, so the rule reduces to a plain weighted sum
    (a discrete sine transform, exact for band-limited samples).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape[-1] != domain.grid_points - 1:
        raise InvalidArgumentError(
            f"expected {domain.grid_points - 1} interior samples, "
            f"got {samples.shape[-1]}"
        )
    B = basis_matrix(domain, modes.count)
    return domain.spacing * (samples @ B)


def synthesize(coeffs, domain):
    """Grid samples sum_j c_j phi_j(x_i) at the interior nodes."""
    coeffs = np.asarray(coeffs, dtype=float)
    B = basis_matrix(domain, coeffs.shape[-1])
    return coeffs @ B.T


def left_limit(trajectory, i):
    """State of a trajectory at node i with pre-jump values at impulse nodes."""
    if i in trajectory.pre_impulse:
        wp, vp = trajectory.pre_impulse[i]
        return BeamState(wp.copy(), vp.copy())
    return trajectory.state(i)


def memory_term(t, trajectory, catalog, domain, modes):
    """Volterra memory increment at time t, recomputed from a trajectory.

    Composite trapezoid over the stored grid of kernel(t - s) * g(w(s - r)),
    collocated and projected.  The cross-check of the simulator, which
    evaluates the same sums by the exact exponential-kernel recursion.
    """
    if t < 0:
        raise InvalidArgumentError("memory term is defined for t >= 0")
    i = trajectory.index_at(t)
    i0 = n_r = trajectory.config.delay_steps  # the grid starts at -delay
    if not catalog.has_memory or i == i0:
        return BeamState.zeros(modes.count)
    h = trajectory.config.step
    B = basis_matrix(domain, modes.count)
    g = partial(catalog_g, catalog)
    gproj = _collocate(B, domain.spacing, g, trajectory.w[: i - n_r + 1])
    dt = (i - np.arange(i0, i + 1)) * h
    weights = np.full(i - i0 + 1, h)
    weights[0] = weights[-1] = h / 2.0
    kern = memory_kernel(catalog, dt)
    return BeamState(np.zeros(modes.count), (kern * weights) @ gproj)


def trapezoid(values, spacing):
    """Plain composite trapezoid for sampled values."""
    values = np.asarray(values, dtype=float)
    return spacing * (values.sum() - 0.5 * (values[0] + values[-1]))


def gauss_integral(f, a, b, nodes=64, panels=1):
    """Composite Gauss-Legendre integral of a scalar or vector function."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    total = None
    width = (b - a) / panels
    for p in range(panels):
        lo = a + p * width
        s = lo + 0.5 * width * (x + 1.0)
        ww = 0.5 * width * w
        for si, wi in zip(s, ww):
            val = wi * np.asarray(f(si), dtype=float)
            total = val if total is None else total + val
    return total


def energy_entries(lambdas, beta, t):
    """Entries of exp(D K D^{-1} t), D = diag(lambda, 1), from the package's exp_entries:
    (a11, lambda a12, -lambda a12, a22), whose second column is the input response."""
    lam = np.asarray(lambdas, dtype=float)
    a11, a12, _, a22 = exp_entries(lam, beta, t)
    return a11, lam * a12, -lam * a12, a22


def costate(control, t, tau):
    """Per-mode costate pairs exp(K^T (tau - t)) eta of every cell of a ControlSignal whose
    window ends at the horizon ``tau``, at time(s) t in [tau - delta, tau], shape
    (cells, ..., N, 2), from one exp(K^T theta) table."""
    t = np.asarray(t, dtype=float)
    # time-to-go, clipped where t overshoots tau by rounding
    theta = np.maximum(tau - t[..., None], 0.0)
    gramians = control.gramians
    A = energy_entries(gramians.modes.lambdas, gramians.beta, theta)
    eta = control.eta.reshape(control.eta.shape[:1] + (1,) * t.ndim + control.eta.shape[1:])
    return np.stack([a * eta[..., 0] + b * eta[..., 1] for a, b in zip(A[:2], A[2:])], -1)


def window_coeffs(control, t, tau):
    """Per-mode control values u_j(t) = b^T p_j(t) of every cell at time(s) t in the window
    that ends at ``tau``."""
    return costate(control, t, tau)[..., 1]


def window_control_quadrature(control, nodes=64, span=50.0):
    """Mapped control G u and energy of a one-cell window control, by quadrature.

    Per mode, composite Gauss-Legendre over the time-to-go theta in
    [0, delta] of exp(A theta) b u(tau - theta) and of u**2, with u sampled
    from ``window_coeffs`` of the control restricted to that mode.  The response exp(A theta) b of the
    energy-coordinate generator A = [[0, lam], [-lam, -2 beta lam]] comes
    from numpy's eigendecomposition of A, not from the package's closed
    forms.  Panels keep each panel's stiffest decay span below ``span``.
    Returns G u as an (N, 2) array and the energy summed over modes.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    gramians = control.gramians
    mapped = np.zeros((gramians.modes.count, 2))
    energy = 0.0
    for j, lam in enumerate(gramians.modes.lambdas):
        A = np.array([[0.0, lam], [-lam, -2.0 * gramians.beta * lam]])
        mu, V = np.linalg.eig(A)
        panels = max(1, int(np.ceil(2.0 * np.abs(mu).max() * gramians.delta / span)))
        width = gramians.delta / panels
        theta = (np.arange(panels)[:, None] * width + 0.5 * width * (x + 1.0)).ravel()
        weights = np.tile(0.5 * width * w, panels)
        coeffs = np.linalg.solve(V, [0.0, 1.0])
        response = V @ (np.exp(np.outer(mu, theta)) * coeffs[:, None])
        one_mode = replace(gramians, modes=ModeSet(lam), blocks=gramians.blocks[j : j + 1])
        single = replace(control, gramians=one_mode, eta=control.eta[:, j : j + 1])
        (u,) = window_coeffs(single, -theta, 0.0)[..., 0]  # times counted from the horizon
        mapped[j] = response @ (weights * u)
        energy += float(np.sum(weights * u * u))
    return mapped, energy


def step_control_quadrature(control, starts, h, tau, nodes=32):
    """Control increments integral_0^h exp(A (h - s)) b u(t + s) ds of steps starting at
    ``starts``, for a one-cell control whose window ends at ``tau``.

    Per mode, Gauss-Legendre in s with the input response exp(A (h - s)) b of the
    energy-coordinate generator A = [[0, lam], [-lam, -2 beta lam]] from the package's
    one-step exponential (critical damping included) and u sampled from
    ``window_coeffs``; one panel per step, so the steps must be short against every
    mode's decay.  Returns (n_steps, N) arrays for w and v.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    s = 0.5 * h * (x + 1.0)
    (u,) = window_coeffs(control, np.asarray(starts)[:, None] + s, tau)  # (n_steps, nodes, N)
    lambdas, beta = control.gramians.modes.lambdas, control.gramians.beta
    _, rw, _, rv = energy_entries(lambdas, beta, (h - s)[:, None])  # (nodes, N)
    weighted = 0.5 * h * w[:, None] * u
    return (weighted * rw).sum(axis=1) / lambdas, (weighted * rv).sum(axis=1)


def block_exp(block, t: float) -> np.ndarray:
    """Exact 2x2 exponential exp(K t) of one modal block."""
    a11, a12, a21, a22 = exp_entries(np.array([block.lam]), block.beta, t)
    return np.array([[a11[0], a12[0]], [a21[0], a22[0]]])


def operator_norms(modes: ModeSet, beta: float, times) -> np.ndarray:
    """Energy-metric norm of the solution operator at each requested time.

    The norm at time t is max_j sigma_max(D_j exp(K_j t) D_j^{-1}), where the
    largest singular value of a 2x2 block [[a, b], [c, d]] is
    (hypot(a + d, c - b) + hypot(a - d, c + b)) / 2.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0):
        raise InvalidArgumentError("times must be nonnegative")
    a11, a12, a21, a22 = energy_entries(modes.lambdas, beta, times[:, None])
    return 0.5 * (np.hypot(a11 + a22, a21 - a12) + np.hypot(a11 - a22, a21 + a12)).max(axis=1)


def verify_f_bound(catalog, domain, modes: ModeSet, samples: int = 1000, seed: int = 0) -> dict:
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


def f_bound_per_sample(catalog, domain, modes, samples, seed):
    """Figures of ``verify_f_bound``, one sample at a time.

    Draws the same random states and controls, synthesizes each sample from
    its own sine table and projects it back by a plain weighted sum.
    """
    rng = np.random.default_rng(seed)
    n = modes.count
    scales = 10.0 ** rng.uniform(-2, 1, size=samples)
    coords = rng.standard_normal((samples, n, 2)) * scales[:, None, None]
    controls = rng.standard_normal((samples, n)) * scales[:, None]
    L = domain.length
    phi = np.sqrt(2.0 / L) * np.sin(np.outer(domain.nodes, np.arange(1, n + 1)) * np.pi / L)
    norms = np.empty(samples)
    fnorm = np.empty(samples)
    for s in range(samples):
        y = phi @ (coords[s, :, 0] / modes.lambdas)
        v = phi @ coords[s, :, 1]
        u = phi @ controls[s]
        increment = domain.spacing * (phi.T @ catalog_f(catalog, y, v, u))
        fnorm[s] = np.linalg.norm(increment)
        norms[s] = np.linalg.norm(coords[s])
    a, b = catalog.bound_constants(domain, modes)
    if np.allclose(fnorm, 0.0):
        a_fit, b_fit = 0.0, 0.0
    else:
        a_fit, b_fit = np.polyfit(norms, fnorm, 1)
    return {
        "max_violation": float(np.max(fnorm - (a * norms + b))),
        "a_fit": float(a_fit),
        "b_fit": float(b_fit),
    }


def simulate_stepwise(config, control=None):
    """Full run of ``simulate`` for one cell, one exponential-integrator step at a time.

    The per-node loop the slab integrator replaced: per step the delayed
    forcing is collocated at both ends, the exponential memory kernel is
    advanced by its one-step recursion, the state by the 2x2 step matrix
    exp(K h), the impulse jump is applied on its node and the blow-up guard
    checks the new state.  ``control`` is None or a one-cell ControlSignal,
    whose per-step increments come from :func:`step_control_quadrature`.
    Returns the Trajectory that ``simulate`` would.
    """
    modes, domain = config.modes, config.domain
    lam, N, h, catalog = modes.lambdas, config.n_modes, config.step, config.catalog
    n_r = exact_multiple(config.delay, h, "the delay")
    idx0 = n_r
    n_total = n_r + exact_multiple(config.tau, h, "the horizon") + 1
    times = (np.arange(n_total) - idx0) * h
    W = np.zeros((n_total, N))
    V = np.zeros_like(W)
    if config.history is not None:
        W[: idx0 + 1], V[: idx0 + 1] = config.history(times[: idx0 + 1])
    pre_impulse, impulse_events, memory = {}, [], np.zeros((n_total, N))
    imp_at = {
        idx0 + exact_multiple(t_k, h, "an impulse time"): k
        for k, t_k in enumerate(config.impulses.times)
    }
    zero = np.zeros(N)
    start_idx = None
    if control is not None:
        start = config.tau - control.gramians.delta
        start_idx = idx0 + exact_multiple(start, h, "the window start")
        win_t = times[start_idx:]
        (win_u,) = window_coeffs(control, win_t, config.tau)
        cw, cv = step_control_quadrature(control, win_t[:-1], h, config.tau)

    a11, a12, a21, a22 = exp_entries(lam, config.beta, h)
    B = basis_matrix(domain, N)
    qw = domain.spacing
    has_memory = catalog.has_memory
    f, g = partial(catalog_f, catalog), partial(catalog_g, catalog)

    def forcing(i, active):
        F = memory[i] if has_memory else zero
        if catalog.f_kind == "zero":  # f = 0 collocates to exact zeros
            return F
        u = win_u[i - start_idx] if active else zero
        wd, vd = pre_impulse.get(i - n_r) or (W[i - n_r], V[i - n_r])
        return _collocate(B, qw, f, wd, vd, u) + F

    if has_memory:
        decay = np.exp(-catalog.gamma * h)
        acc = 0.5 * h * _collocate(B, qw, g, W[idx0 - n_r])
    half = 0.5 * h
    for i in range(idx0, n_total - 1):
        active = start_idx is not None and i >= start_idx
        if i == idx0 or i == start_idx:
            F_left = forcing(i, active)
        if has_memory:
            gi = _collocate(B, qw, g, W[i + 1 - n_r])
            acc = decay * acc
            memory[i + 1] = catalog.kappa * (acc + half * gi)
            acc = acc + h * gi
        F_right = forcing(i + 1, active)
        w1 = a11 * W[i] + a12 * V[i] + half * a12 * F_left
        v1 = a21 * W[i] + a22 * V[i] + half * (a22 * F_left + F_right)
        if active:
            w1 = w1 + cw[i - start_idx]
            v1 = v1 + cv[i - start_idx]
        if i + 1 in imp_at:
            k = imp_at[i + 1]
            pre_impulse[i + 1] = (w1.copy(), v1.copy())
            dv = apply_impulse(w1, v1, k, config.impulses, domain, modes)
            v1 = v1 + dv
            impulse_events.append((k, float(times[i + 1]), float(np.linalg.norm(dv))))
        W[i + 1], V[i + 1] = w1, v1
        norm = np.sqrt(np.sum((lam * w1) ** 2) + np.sum(v1**2))
        if not norm <= BLOWUP_THRESHOLD:
            raise BlowUpError(f"trajectory norm {norm:.3e} at t={times[i + 1]:.6f}")
        F_left = F_right

    return Trajectory(
        times=times, w=W, v=V, memory=memory, pre_impulse=pre_impulse,
        impulse_events=impulse_events, config=config,
    )


def window_response_stepwise(base, control):
    """The forced response R(tau) of every cell of a one-window control, stepped.

    The window steps of :func:`simulate_stepwise` from a zero state, without the
    control increments (the linear steer carries those): per step the forcing of
    both ends, collocated on the oracle's own helper at the base run's delayed
    states (left limits at impulse nodes), the cell's control from ``window_coeffs``
    and the base run's memory forcing, enters by the trapezoid rule through the
    one-step exponential.  Returns (cells, N) arrays for w and v.
    """
    config = base.config
    modes, domain, h, n_r = config.modes, config.domain, config.step, config.delay_steps
    end = n_r + config.horizon_steps
    start = n_r + exact_multiple(config.tau - control.gramians.delta, h, "the window start")
    nodes = np.arange(start, end + 1)
    u = window_coeffs(control, base.times[nodes], config.tau)  # (cells, nodes, N)
    delayed = [left_limit(base, k - n_r) for k in nodes]
    wd, vd = (np.array([getattr(z, name) for z in delayed]) for name in ("w", "v"))
    B = basis_matrix(domain, modes.count)
    f = partial(catalog_f, config.catalog)
    F = _collocate(B, domain.spacing, f, wd, vd, u) + base.memory[nodes]
    a11, a12, a21, a22 = exp_entries(modes.lambdas, config.beta, h)
    rw, rv, half = np.zeros(u.shape[::2]), np.zeros(u.shape[::2]), 0.5 * h
    for i in range(nodes.size - 1):
        left, right = F[:, i], F[:, i + 1]
        rw, rv = (
            a11 * rw + a12 * rv + half * a12 * left,
            a21 * rw + a22 * rv + half * (a22 * left + right),
        )
    return rw, rv


def window_response_extended(base, control):
    """The window sum R = h sum_k omega_k T(tau - t_k) e2 F_k of every cell in extended
    precision: the package's forcing blocks F_k and (a12, a22) table entries, contracted
    in ``np.longdouble`` with omega = 1/2 at both ends.  Returns (cells, N) longdouble
    arrays for w and v.
    """
    config = base.config
    n_r, end = config.delay_steps, config.delay_steps + config.horizon_steps
    start = config.validate_delta(control.gramians.delta)
    response = dynamics._tables(config)[-1][:, start - (end + 1 - n_r) :].astype(np.longdouble)
    blocks = dynamics._window_forcing(base, control, start)
    F = np.concatenate([block.astype(np.longdouble) for _, block in blocks], axis=1)
    F[:, [0, -1]] /= 2
    R = (response[:, None] * F).sum(axis=2) * np.longdouble(config.step)
    return R[0], R[1]
