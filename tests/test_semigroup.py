import time

import mpmath
import numpy as np
import pytest

from beamsteer import (
    BeamState,
    apply_semigroup,
    decay_envelope,
    energy_norm,
    laplacian_eigenvalues,
)
from beamsteer.errors import InvalidArgumentError
from beamsteer.semigroup import exp_entries

from oracles import (
    ModeBlock,
    block_exp,
    block_matrix,
    expm_squaring,
    interleaved_generator,
    operator_norms,
)


def test_block_matrix_reference_values():
    K = block_matrix(ModeBlock(1.0, 2.0))
    np.testing.assert_array_equal(K, [[0.0, 1.0], [-1.0, -4.0]])
    K = block_matrix(ModeBlock(np.pi**2, 2.0))
    np.testing.assert_allclose(K, [[0.0, 1.0], [-np.pi**4, -4.0 * np.pi**2]], rtol=1e-15)


def test_block_requires_overdamping():
    for beta in (0.5, float("nan")):
        with pytest.raises(InvalidArgumentError):
            ModeBlock(1.0, beta)
    with pytest.raises(InvalidArgumentError):
        ModeBlock(-1.0, 2.0)


def test_characteristic_roots():
    r1, r2 = ModeBlock(1.0, 2.0).roots()
    assert r1 == pytest.approx(-2.0 + np.sqrt(3.0), abs=1e-12)
    assert r2 == pytest.approx(-2.0 - np.sqrt(3.0), abs=1e-12)
    assert r2 < r1 < 0


def test_block_eigenvalues_match_roots():
    for lam in (1.0, np.pi**2, 50.0):
        for beta in (1.5, 2.0, 4.0):
            mb = ModeBlock(lam, beta)
            eig = np.sort(np.linalg.eigvals(block_matrix(mb)).real)
            r1, r2 = mb.roots()
            np.testing.assert_allclose(eig, [r2, r1], atol=1e-12 * max(1, lam))
            assert eig[1] < 0


def test_block_exp_identity_at_zero():
    np.testing.assert_array_equal(block_exp(ModeBlock(3.0, 2.5), 0.0), np.eye(2))


def test_block_exp_against_squaring_oracle():
    mb = ModeBlock(1.0, 2.0)
    got = block_exp(mb, 1.0)
    want = expm_squaring(block_matrix(mb) * 1.0)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_block_exp_guards():
    mb = ModeBlock(1.0, 2.0)
    with pytest.raises(InvalidArgumentError):
        block_exp(mb, -0.1)


def test_oracle_against_scipy():
    # meta-check that the test oracle itself is sound
    scipy_linalg = pytest.importorskip("scipy.linalg")
    A = np.array([[0.0, 1.0], [-1.0, -4.0]])
    np.testing.assert_allclose(expm_squaring(A), scipy_linalg.expm(A), atol=1e-13)


def test_apply_semigroup_identity():
    modes = laplacian_eigenvalues(1.0, 4)
    z = BeamState(np.arange(1.0, 5.0), -np.arange(1.0, 5.0))
    out = apply_semigroup(z, 0.0, modes, 2.0)
    np.testing.assert_array_equal(out.w, z.w)
    np.testing.assert_array_equal(out.v, z.v)


def test_semigroup_law():
    rng = np.random.default_rng(11)
    modes = laplacian_eigenvalues(1.0, 6)
    for _ in range(10):
        z = BeamState(rng.standard_normal(6), rng.standard_normal(6))
        s, t = rng.uniform(0.0, 5.0, 2)
        one = apply_semigroup(apply_semigroup(z, s, modes, 2.0), t, modes, 2.0)
        two = apply_semigroup(z, s + t, modes, 2.0)
        assert energy_norm(one - two, modes) <= 1e-10 * max(energy_norm(two, modes), 1e-30)


def test_long_time_decay():
    modes = laplacian_eigenvalues(1.0, 4)
    z = BeamState(np.ones(4), np.ones(4))
    out = apply_semigroup(z, 50.0, modes, 2.0)
    assert energy_norm(out, modes) <= 1e-8 * energy_norm(z, modes)


@pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
def test_blockwise_matches_dense_oracle(t):
    modes = laplacian_eigenvalues(1.0, 8)
    beta = 2.0
    dense = expm_squaring(interleaved_generator(modes.lambdas, beta) * t)
    for j, lam in enumerate(modes.lambdas):
        got = block_exp(ModeBlock(lam, beta), t)
        np.testing.assert_allclose(got, dense[2 * j : 2 * j + 2, 2 * j : 2 * j + 2], atol=1e-10)


def test_decay_envelope_rate_closed_form():
    modes = laplacian_eigenvalues(1.0, 4)
    env = decay_envelope(modes, 2.0)
    assert env.rate == pytest.approx(np.pi**2 * (2.0 - np.sqrt(3.0)), rel=1e-14)
    assert env.rate == pytest.approx(2.6447, abs=1e-3)
    assert env.bound >= 1.0


def test_decay_envelope_rejects_critical_damping():
    # at beta = 1, ||T(t)|| exp(lambda_1 t) grows like t: no envelope of that rate
    with pytest.raises(InvalidArgumentError, match="beta > 1"):
        decay_envelope(laplacian_eigenvalues(1.0, 4), 1.0)


@pytest.mark.parametrize("length", [1.0, 3.5])
@pytest.mark.parametrize("beta", [1 + 1e-6, 1.01, 2.0, 100.0])
def test_decay_envelope_is_the_exact_supremum(beta, length):
    modes = laplacian_eigenvalues(length, 8)
    env = decay_envelope(modes, beta)
    with mpmath.workdps(50):  # beta**2 - 1 cancels in double precision near beta = 1
        exact = float(mpmath.mpf(beta) / mpmath.sqrt(mpmath.mpf(beta) ** 2 - 1))
    assert abs(env.bound - exact) <= 1e-15 * exact
    # from the transients out to where every mode has settled on its asymptote
    ts = np.concatenate([[0.0], np.geomspace(1e-6, 200.0, 4000) / env.rate])
    norms = operator_norms(modes, beta, ts)
    assert np.all(norms <= env.value(ts) * (1.0 + 1e-12))


def test_envelope_dominates_operator_norm():
    modes = laplacian_eigenvalues(1.0, 4)
    beta = 2.0
    env = decay_envelope(modes, beta)
    ts = np.arange(0.0, 10.0 + 1e-12, 0.01)
    norms = operator_norms(modes, beta, ts)
    assert np.all(norms <= env.value(ts) * (1.0 + 1e-12))


def test_envelope_single_mode_supremum():
    modes = laplacian_eigenvalues(1.0, 1)
    env = decay_envelope(modes, 2.0)
    # at t = 0 the operator norm is 1, so the envelope constant is at least 1
    assert operator_norms(modes, 2.0, [0.0])[0] == pytest.approx(1.0, rel=1e-12)
    assert env.bound >= 1.0


@pytest.mark.parametrize("beta", [1.0, 1.01, 2.0, 100.0])
def test_operator_norms_match_per_time_svd(beta):
    modes = laplacian_eigenvalues(1.0, 32)
    # from t = 0 through stiff decay
    ts = np.concatenate([[0.0], np.geomspace(1e-6, 1e-2, 100), np.linspace(0.01, 20.0, 4100)])
    got = operator_norms(modes, beta, ts)
    # one LAPACK SVD per (time, mode) block
    blocks = np.stack(exp_entries(modes.lambdas, beta, ts[:, None], energy=True), axis=-1)
    ref = np.linalg.svd(blocks.reshape(ts.size, -1, 2, 2), compute_uv=False)[..., 0].max(axis=1)
    assert got.shape == ts.shape
    assert np.all(np.abs(got - ref) <= 1e-14 * ref)


def test_decay_envelope_at_heavy_damping_is_fast():
    t0 = time.perf_counter()
    env = decay_envelope(laplacian_eigenvalues(1.0, 4), 100.0)
    assert time.perf_counter() - t0 < 0.5
    assert env.bound >= 1.0


def test_decay_envelope_invalid_damping():
    modes = laplacian_eigenvalues(1.0, 2)
    with pytest.raises(InvalidArgumentError):
        decay_envelope(modes, 0.9)
