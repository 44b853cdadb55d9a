from dataclasses import replace

import numpy as np
import pytest

from beamsteer import (
    ModeSet,
    assemble_gramian,
    gramian_mode_quadrature,
    laplacian_eigenvalues,
    solve_regularized,
)
from beamsteer.errors import InvalidArgumentError
from beamsteer.gramian import PANEL_SPAN
from beamsteer.harness import CROSS_PATH_TOL, gramian_cross_check
from beamsteer.semigroup import exp_entries

from oracles import ModeBlock, expm_squaring, gauss_integral


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
    x, wts = np.polynomial.legendre.leggauss(64)
    s, ww = 0.5 * delta * (x + 1.0), 0.5 * delta * wts
    for j in np.flatnonzero(one):
        _, g1, _, g2 = exp_entries(modes.lambdas[j], beta, s, energy=True)
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
