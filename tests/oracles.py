"""Independent numerical oracles shared by the test suite.

These deliberately avoid the closed forms used by the package: the matrix
exponential is Taylor series with scaling and squaring, quadratures are
assembled from scratch.
"""

from dataclasses import replace

import numpy as np

from beamsteer import ModeSet


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
