"""Independent numerical oracles shared by the test suite.

These deliberately avoid the closed forms used by the package: the matrix
exponential is Taylor series with scaling and squaring, quadratures are
assembled from scratch.  The stepwise simulator is the exception: it reuses
the package's one-step pieces and checks how the slab integrator combines
them.
"""

from dataclasses import replace

import numpy as np

from beamsteer import (
    BeamState,
    HistorySegment,
    ModeSet,
    Trajectory,
    apply_impulse,
    basis_matrix,
)
from beamsteer.dynamics import _collocate, _control_step_increments, exact_multiple
from beamsteer.errors import BlowUpError
from beamsteer.semigroup import exp_entries


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


def window_control_quadrature(control, nodes=64, span=50.0):
    """Mapped control G u and energy of a window control, by quadrature.

    Per mode, composite Gauss-Legendre over the time-to-go theta in
    [0, delta] of exp(A theta) b u(tau - theta) and of u**2, with u sampled
    from ``window_coeffs`` of the control restricted to that mode.  The response exp(A theta) b of the
    energy-coordinate generator A = [[0, lam], [-lam, -2 beta lam]] comes
    from numpy's eigendecomposition of A, not from the package's closed
    forms.  Panels keep each panel's stiffest decay span below ``span``.
    Returns G u as an (N, 2) array and the energy summed over modes.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    win = control.window
    mapped = np.zeros((control.modes.count, 2))
    energy = 0.0
    for j, lam in enumerate(control.modes.lambdas):
        A = np.array([[0.0, lam], [-lam, -2.0 * control.beta * lam]])
        mu, V = np.linalg.eig(A)
        panels = max(1, int(np.ceil(2.0 * np.abs(mu).max() * win.delta / span)))
        width = win.delta / panels
        theta = (np.arange(panels)[:, None] * width + 0.5 * width * (x + 1.0)).ravel()
        weights = np.tile(0.5 * width * w, panels)
        coeffs = np.linalg.solve(V, [0.0, 1.0])
        response = V @ (np.exp(np.outer(mu, theta)) * coeffs[:, None])
        single = replace(control, eta=control.eta[j : j + 1], modes=ModeSet(lam))
        u = single.window_coeffs(win.tau - theta)[:, 0]
        mapped[j] = response @ (weights * u)
        energy += float(np.sum(weights * u * u))
    return mapped, energy


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
        increment = domain.spacing * (phi.T @ catalog.f(y, v, u))
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
    checks the new state.  ``control`` is None or one steering ControlSignal.
    Returns the Trajectory that ``simulate`` would.
    """
    modes, domain = config.modes(), config.domain()
    lam, N, h, catalog = modes.lambdas, config.n_modes, config.step, config.catalog
    n_r = exact_multiple(config.delay, h, "the delay")
    idx0 = n_r
    n_total = n_r + exact_multiple(config.tau, h, "the horizon") + 1
    times = (np.arange(n_total) - idx0) * h
    W = np.zeros((n_total, N))
    V = np.zeros_like(W)
    history = config.history or (lambda s: BeamState.zeros(N))
    seg = HistorySegment.sample(history, config.delay, h, N)
    W[: idx0 + 1], V[: idx0 + 1] = seg.w, seg.v
    pre_impulse, impulse_events, memory = {}, [], np.zeros((n_total, N))
    imp_at = {
        idx0 + exact_multiple(t_k, h, "an impulse time"): k
        for k, t_k in enumerate(config.impulses.times)
    }
    zero = np.zeros(N)
    start_idx = None
    if control is not None:
        start_idx = idx0 + exact_multiple(control.window.start, h, "the window start")
        win_t = times[start_idx:]
        win_u = control.window_coeffs(win_t)
        cw, cv = _control_step_increments(
            control.eta[None], modes, config.beta, h, config.tau - win_t[:-1]
        )
        cw, cv = cw[0], cv[0]

    a11, a12, a21, a22 = exp_entries(lam, config.beta, h)
    B = basis_matrix(domain, N)
    qw = domain.spacing
    has_memory = catalog.has_memory

    def forcing(i, active):
        F = memory[i] if has_memory else zero
        u = win_u[i - start_idx] if active else zero
        wd, vd = pre_impulse.get(i - n_r) or (W[i - n_r], V[i - n_r])
        return _collocate(B, qw, catalog.f, wd, vd, u) + F

    if has_memory:
        decay = np.exp(-catalog.gamma * h)
        acc = 0.5 * h * _collocate(B, qw, catalog.g, W[idx0 - n_r])
    half = 0.5 * h
    for i in range(idx0, n_total - 1):
        active = start_idx is not None and i >= start_idx
        if i == idx0 or i == start_idx:
            F_left = forcing(i, active)
        if has_memory:
            g = _collocate(B, qw, catalog.g, W[i + 1 - n_r])
            acc = decay * acc
            memory[i + 1] = catalog.kappa * (acc + half * g)
            acc = acc + h * g
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
        if not norm <= config.blowup_threshold:
            raise BlowUpError(f"trajectory norm {norm:.3e} at t={times[i + 1]:.6f}")
        F_left = F_right

    control_rec = np.zeros((n_total, N))
    if start_idx is not None:
        control_rec[start_idx:] = win_u
    return Trajectory(
        times=times, w=W, v=V, control=control_rec, memory=memory, start_index=idx0,
        step=h, pre_impulse=pre_impulse, impulse_events=impulse_events,
    )
