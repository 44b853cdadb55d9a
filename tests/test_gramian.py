from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamsteer import (
    ModeSet,
    assemble_gramian,
    gramian_mode_quadrature,
    laplacian_eigenvalues,
    solve_regularized,
)
import beamsteer.gramian as gramian
from beamsteer.errors import InvalidArgumentError
from beamsteer.gramian import PANEL_NODES, PANEL_SPAN, _gauss_rule
from beamsteer.harness import CROSS_PATH_TOL, gramian_cross_check
from beamsteer.semigroup import exp_entries

from oracles import ModeBlock, energy_entries, expm_squaring, gauss_integral


def _closed(block, delta):
    """Closed-form Gramian block of one mode on a window of length delta."""
    return assemble_gramian(ModeSet(block.lam), block.beta, delta).blocks[0]


def _raw_set(blocks):
    """An assembled set of len(blocks) modes carrying the given blocks instead."""
    blocks = np.asarray(blocks, dtype=float)
    modes = laplacian_eigenvalues(1.0, len(blocks))
    return replace(assemble_gramian(modes, 2.0, 0.2), blocks=blocks)


@pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf], ids=["negative", "nan", "inf"])
def test_assemble_gramian_rejects_bad_lengths(bad):
    modes = laplacian_eigenvalues(1.0, 3)
    with pytest.raises(InvalidArgumentError, match="nonnegative and finite"):
        assemble_gramian(modes, 2.0, bad)
    with pytest.raises(InvalidArgumentError, match="nonnegative and finite"):
        assemble_gramian(modes, 2.0, [0.2, bad])


def test_window_validation():
    modes = laplacian_eigenvalues(1.0, 3)
    with pytest.raises(InvalidArgumentError):
        assemble_gramian(modes, 2.0, [])
    assert assemble_gramian(modes, 2.0, 0.0).delta == 0.0  # degenerate probe allowed
    # a set records the system and the length of its window, one length per window
    gset = assemble_gramian(modes, 2.0, 0.2)
    assert gset.modes is modes and (gset.beta, gset.delta) == (2.0, 0.2)
    stacked = assemble_gramian(modes, 2.0, [0.2, 0.1])
    assert stacked.delta == (0.2, 0.1) and stacked[1].delta == 0.1
    assert stacked[1].modes is modes and stacked[1].beta == 2.0


def test_short_window_limit():
    # as delta -> 0 the Gramian approaches delta * diag(0, 1)
    delta = 1e-8
    q = _closed(ModeBlock(1.0, 2.0), delta)
    np.testing.assert_allclose(q, delta * np.diag([0.0, 1.0]), atol=1e-12)


def test_closedform_matches_quadrature_reference_case():
    mb = ModeBlock(1.0, 2.0)
    delta = 1.0
    closed = _closed(mb, delta)
    quad = gramian_mode_quadrature(ModeSet(mb.lam), mb.beta, delta)[0]
    np.testing.assert_allclose(closed, quad, atol=1e-12)


def test_closedform_matches_quadrature_stiff_mode():
    # the stiffest retained mode of the standard experiment
    mb = ModeBlock(64.0 * np.pi**2, 2.0)
    delta = 0.2
    closed = _closed(mb, delta)
    quad = gramian_mode_quadrature(ModeSet(mb.lam), mb.beta, delta)[0]
    assert np.abs(closed - quad).max() <= 1e-12


def test_closedform_matches_independent_oracle():
    # fully independent path: dense matrix exponential inside a Gauss rule
    lam, beta = np.pi**2, 2.0
    mb = ModeBlock(lam, beta)
    delta = 0.2
    K = np.array([[0.0, lam], [-lam, -2.0 * beta * lam]])
    b = np.array([0.0, 1.0])

    def integrand(s):
        eb = expm_squaring(K * s) @ b
        return np.outer(eb, eb)

    oracle = gauss_integral(integrand, 0.0, delta, nodes=64, panels=4)
    np.testing.assert_allclose(_closed(mb, delta), oracle, atol=1e-12)


@pytest.mark.parametrize(
    "length, n_modes, beta, one_panel",
    [(3.5, 32, 2.0, 6), (3.5, 8, 1e8, 0)],
    ids=["steer-wide", "beta1e8"],
)
def test_graded_quadrature_matches_closed_form(length, n_modes, beta, one_panel):
    # all modes in one graded pass; at beta = 1e8 uniform panels of width
    # PANEL_SPAN / |2 r2| would number about 8e7 for the stiffest mode alone
    modes = laplacian_eigenvalues(length, n_modes)
    delta = 0.2
    quad = gramian_mode_quadrature(modes, beta, delta)
    gset = assemble_gramian(modes, beta, delta)
    q_quad, gap = gramian_cross_check(gset)
    np.testing.assert_array_equal(q_quad, quad)
    assert gap <= CROSS_PATH_TOL
    # the gap is relative to the scale sqrt(Q_ii Q_jj) of each entry
    closed = gset.blocks
    d = np.sqrt(np.diagonal(closed, axis1=1, axis2=2))
    assert np.all(np.abs(quad - closed) <= CROSS_PATH_TOL * d[:, :, None] * d[:, None, :])
    # a mode whose transient fits one panel keeps the one-panel rule, bit for bit
    roots = np.array([ModeBlock(lam, beta).roots()[1] for lam in modes.lambdas])
    one = 2.0 * np.abs(roots) * delta <= PANEL_SPAN
    assert one.sum() == one_panel
    x, wts = _gauss_rule()
    s, ww = 0.5 * delta * (x + 1.0), 0.5 * delta * wts
    for j in np.flatnonzero(one):
        _, g1, _, g2 = energy_entries(modes.lambdas[j], beta, s)
        off = np.sum(ww * g1 * g2)
        rule = np.array([[np.sum(ww * g1 * g1), off], [off, np.sum(ww * g2 * g2)]])
        np.testing.assert_array_equal(quad[j], rule)


def test_window_nesting_monotone():
    mb = ModeBlock(np.pi**2, 2.0)
    big = _closed(mb, 1.0)
    small = _closed(mb, 0.5)
    assert np.linalg.eigvalsh(big - small).min() >= -1e-12


def test_zero_window_gives_zero_blocks():
    mb = ModeBlock(1.0, 2.0)
    delta = 0.0
    np.testing.assert_array_equal(_closed(mb, delta), np.zeros((2, 2)))
    np.testing.assert_array_equal(
        gramian_mode_quadrature(ModeSet(mb.lam), mb.beta, delta)[0], np.zeros((2, 2))
    )
    gset = assemble_gramian(laplacian_eigenvalues(1.0, 3), 2.0, delta)
    assert not gset.positive_definite
    assert gramian_cross_check(gset)[1] == 0.0


def test_assemble_all_blocks_positive_definite():
    modes = laplacian_eigenvalues(1.0, 8)
    gset = assemble_gramian(modes, 2.0, 0.2)
    assert gset.positive_definite
    assert gset.min_eigenvalue > 0
    eigs = np.linalg.eigvalsh(gset.blocks)
    assert np.all(eigs[:, 0] > 0)


def test_blocks_symmetric():
    modes = laplacian_eigenvalues(1.0, 8)
    for delta in (0.2, 1.0):
        gset = assemble_gramian(modes, 2.0, delta)
        assert np.abs(gset.blocks - gset.blocks.transpose(0, 2, 1)).max() <= 1e-12


def test_solve_regularized_zero_blocks():
    gset = _raw_set(np.zeros((3, 2, 2)))
    rhs = np.arange(6.0).reshape(3, 2)
    (out,) = solve_regularized(gset, [0.25], rhs)
    np.testing.assert_allclose(out, rhs / 0.25, rtol=1e-14)


def test_solve_regularized_zero_rhs():
    modes = laplacian_eigenvalues(1.0, 4)
    gset = assemble_gramian(modes, 2.0, 0.2)
    out = solve_regularized(gset, [1e-3], np.zeros((4, 2)))
    np.testing.assert_array_equal(out, np.zeros((1, 4, 2)))


def test_solve_regularized_random_spd_residual():
    rng = np.random.default_rng(5)
    blocks = []
    for _ in range(6):
        a = rng.standard_normal((2, 2))
        blocks.append(a @ a.T + 0.1 * np.eye(2))
    gset = _raw_set(np.stack(blocks))
    rhs = rng.standard_normal((6, 2))
    alpha = 1e-3
    (eta,) = solve_regularized(gset, [alpha], rhs)
    for j in range(6):
        res = (alpha * np.eye(2) + gset.blocks[j]) @ eta[j] - rhs[j]
        assert np.linalg.norm(res) <= 1e-12 * max(np.linalg.norm(rhs[j]), 1e-30)


def test_solve_regularized_invalid_alpha():
    gset = _raw_set(np.zeros((1, 2, 2)))
    # one positive alpha per cell, as a sequence: a bare scalar is no batch
    for alpha in ([0.0], [0.1, -1.0], 0.1, [[0.1]]):
        with pytest.raises(InvalidArgumentError):
            solve_regularized(gset, alpha, np.zeros((1, 2)))


def _set_of_blocks(blocks):
    """min_eigenvalue and positive_definite of one-mode windows holding the given
    (D, 2, 2) blocks, one window per block, through assemble_gramian's own path."""
    blocks = np.asarray(blocks, dtype=float)
    entries = (blocks[:, None, 0, 0], blocks[:, None, 0, 1], blocks[:, None, 1, 1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gramian, "gramian_entries", lambda lam, beta, t: entries)
        return assemble_gramian(laplacian_eigenvalues(1.0, 1), 2.0, [0.1] * len(blocks))


def _spd(scale, cond, angle):
    """The symmetric block with eigenvalues scale and scale / cond, rotated by angle."""
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.diag([scale, scale / cond]) @ rot.T


ALPHAS = [1.0, 1e-6, 1e-12, 1e-300]
# zero blocks, and blocks of eigenvalue scale 1e-300 to 1e300, condition 1 to 1e12
# (near singular) and any orientation; each with a right-hand side of O(1)
BLOCK = st.one_of(
    st.just((0.0, 1.0, 0.0)),
    st.tuples(
        st.floats(-300, 300).map(lambda e: 10.0**e),
        st.floats(0, 12).map(lambda e: 10.0**e),
        st.floats(0, np.pi),
    ),
)
RHS = st.tuples(st.floats(-1, 1), st.floats(-1, 1))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.lists(st.tuples(BLOCK, RHS), min_size=1, max_size=6))
def test_two_by_two_closed_forms_match_lapack(cases):
    # LAPACK is the oracle: the same definiteness verdict, the least eigenvalue a few
    # ulps of the block's scale apart, and a solve that is finite where LAPACK's is,
    # within the condition of alpha I + Q times 1e-15
    blocks = np.array([_spd(*block) for block, _ in cases])
    rhs = np.array([d for _, d in cases])
    gset = _set_of_blocks(blocks)
    eigs = np.linalg.eigvalsh(blocks)
    want_pd = eigs[:, 0] > 0
    np.testing.assert_array_equal(gset.min_eigenvalue > 0, want_pd)
    scale = np.abs(eigs).max(axis=1)
    assert np.all(np.abs(gset.min_eigenvalue - eigs[:, 0]) <= 4 * np.finfo(float).eps * scale)
    assert gset.positive_definite == want_pd.all()
    got = solve_regularized(gset, ALPHAS, rhs[:, None])[:, :, 0]  # (blocks, alphas, 2)
    for i, alpha in enumerate(ALPHAS):
        shifted = blocks + alpha * np.eye(2)
        want = np.linalg.solve(shifted, rhs[..., None])[..., 0]
        lam = np.linalg.eigvalsh(shifted)
        cond = lam[:, 1] / lam[:, 0]
        for j in np.flatnonzero(np.isfinite(want).all(axis=1)):
            assert np.isfinite(got[j, i]).all()
            err = np.abs(got[j, i] - want[j]).max()  # max norms: a 2-norm of 1e300 overflows
            assert err <= cond[j] * 1e-15 * np.abs(want[j]).max(), (blocks[j], alpha)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_solve_regularized_keeps_a_tiny_gramian(alpha):
    # Cramer's rule would form a c - b**2 of about 1e-600 here: zero, and a zero divisor
    blocks = np.array([_spd(1e-300, 1e3, 0.3), _spd(1e-300, 1.0, 1.0), np.zeros((2, 2))])
    rhs = np.array([[1.0, -0.5], [0.25, 1.0], [1.0, 1.0]])
    (got,) = solve_regularized(_raw_set(blocks), [alpha], rhs)
    want = np.linalg.solve(blocks + alpha * np.eye(2), rhs[..., None])[..., 0]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_least_eigenvalue_of_zero_and_singular_blocks():
    # a zero block has least eigenvalue +0.0 (not -0.0, which would print as
    # -0.000e+00), and so does the zero-length probe; a singular block is no PD block
    gset = _set_of_blocks([np.zeros((2, 2)), [[1.0, 1.0], [1.0, 1.0]], [[-1.0, 1.0], [1.0, -1.0]]])
    np.testing.assert_array_equal(gset.min_eigenvalue, [0.0, 0.0, -2.0])
    assert not np.signbit(gset.min_eigenvalue[0])
    assert not gset.positive_definite
    probe = assemble_gramian(laplacian_eigenvalues(1.0, 3), 2.0, 0.0)
    assert probe.min_eigenvalue == 0.0 and not np.signbit(probe.min_eigenvalue)


def test_gauss_rule_matches_a_50_digit_rule():
    # the reference rule: Newton's method on the recurrence at 50 digits
    mpmath = pytest.importorskip("mpmath")
    n, nodes, weights = PANEL_NODES, [], []
    with mpmath.workdps(50):
        for k in range(n, 0, -1):
            t = mpmath.cos(mpmath.pi * (4 * k - 1) / (4 * n + 2))
            for _ in range(100):
                p, q = t, mpmath.mpf(1)
                for j in range(1, n):
                    p, q = ((2 * j + 1) * t * p - j * q) / (j + 1), p
                dp = n * (t * p - q) / (t * t - 1)
                if abs(p / dp) < mpmath.mpf(10) ** -45:
                    break
                t -= p / dp
            nodes.append(t)
            weights.append(2 / ((1 - t * t) * dp * dp))
    x, w = _gauss_rule()
    assert x.shape == w.shape == (n,) and np.all(np.diff(x) > 0)
    with mpmath.workdps(50):
        assert max(abs(mpmath.mpf(float(a)) - b) for a, b in zip(x, nodes)) <= 2e-16
        assert max(abs((mpmath.mpf(float(a)) - b) / b) for a, b in zip(w, weights)) <= 1e-13
    # exact for every polynomial of degree 2 n - 1
    for k in range(2 * PANEL_NODES):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.sum(w * x**k) - exact) <= 1e-14, k


def test_propagator_is_the_closed_form_at_the_set_lengths():
    # a set's T(delta) is exp_entries at its own lengths bit for bit, formed once per
    # set; window i of a stack, a set built by hand and one built by replace agree
    modes, deltas = laplacian_eigenvalues(3.5, 8), [0.2, 0.1, 0.05]
    stacked = assemble_gramian(modes, 2.0, deltas)
    assert stacked.propagator is stacked.propagator
    want = exp_entries(modes.lambdas, 2.0, np.array(deltas)[:, None])
    for got, entry in zip(stacked.propagator, want):
        assert got.shape == (3, 8)
        np.testing.assert_array_equal(got, entry)
    for i, delta in enumerate(deltas):
        alone = assemble_gramian(modes, 2.0, delta)
        by_hand = gramian.GramianSet(modes, 2.0, delta, alone.blocks, alone.min_eigenvalue)
        entries = exp_entries(modes.lambdas, 2.0, delta)
        for one in (alone, stacked[i], by_hand, replace(stacked[(i + 1) % 3], delta=delta)):
            for got, entry, of_stack in zip(one.propagator, entries, want):
                np.testing.assert_array_equal(got, entry)
                np.testing.assert_array_equal(got, of_stack[i])
