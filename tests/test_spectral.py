import numpy as np
import pytest

from beamsteer import (
    BeamState,
    SpatialDomain,
    energy_coords,
    energy_norm,
    laplacian_eigenvalues,
    state_from_coords,
)
from beamsteer.errors import InvalidArgumentError

from oracles import project, synthesize, trapezoid


def test_eigenvalues_unit_interval():
    ms = laplacian_eigenvalues(1.0, 3)
    np.testing.assert_allclose(ms.lambdas, [9.8696, 39.4784, 88.8264], atol=1e-3)
    j = np.arange(1, 4)
    np.testing.assert_array_equal(ms.lambdas, (j * np.pi / 1.0) ** 2)


def test_eigenvalues_pi_interval():
    ms = laplacian_eigenvalues(np.pi, 1)
    assert ms.lambdas[0] == pytest.approx(1.0, abs=1e-15)


def test_eigenvalues_invalid():
    with pytest.raises(InvalidArgumentError):
        laplacian_eigenvalues(1.0, 0)
    with pytest.raises(InvalidArgumentError):
        laplacian_eigenvalues(-1.0, 3)


def test_eigenvalues_strictly_increasing():
    ms = laplacian_eigenvalues(2.5, 12)
    assert np.all(np.diff(ms.lambdas) > 0)


def test_project_first_eigenfunction():
    domain = SpatialDomain(1.0, 64)
    modes = laplacian_eigenvalues(1.0, 4)
    samples = np.sqrt(2.0) * np.sin(np.pi * domain.nodes)
    coeffs = project(samples, domain, modes)
    np.testing.assert_allclose(coeffs, [1.0, 0.0, 0.0, 0.0], atol=1e-3)


def test_project_matches_trapezoid_oracle():
    # the first coefficient of phi_1 is the trapezoid value of 2 sin^2(pi x)
    domain = SpatialDomain(1.0, 64)
    modes = laplacian_eigenvalues(1.0, 4)
    x = np.concatenate(([0.0], domain.nodes, [1.0]))
    oracle = trapezoid(2.0 * np.sin(np.pi * x) ** 2, domain.spacing)
    samples = np.sqrt(2.0) * np.sin(np.pi * domain.nodes)
    coeffs = project(samples, domain, modes)
    assert coeffs[0] == pytest.approx(oracle, abs=1e-12)


def test_project_zero_samples():
    domain = SpatialDomain(1.0, 32)
    modes = laplacian_eigenvalues(1.0, 4)
    np.testing.assert_array_equal(project(np.zeros(31), domain, modes), np.zeros(4))


def test_project_orthogonality_second_mode():
    domain = SpatialDomain(1.0, 64)
    modes = laplacian_eigenvalues(1.0, 1)
    samples = np.sqrt(2.0) * np.sin(2.0 * np.pi * domain.nodes)
    coeffs = project(samples, domain, modes)
    np.testing.assert_allclose(coeffs, [0.0], atol=1e-3)


def test_project_size_mismatch():
    domain = SpatialDomain(1.0, 32)
    modes = laplacian_eigenvalues(1.0, 4)
    with pytest.raises(InvalidArgumentError):
        project(np.zeros(30), domain, modes)


def test_synthesize_single_mode():
    domain = SpatialDomain(1.0, 32)
    samples = synthesize(np.array([1.0, 0.0]), domain)
    np.testing.assert_allclose(
        samples, np.sqrt(2.0) * np.sin(np.pi * domain.nodes), atol=1e-12
    )


def test_synthesize_zero():
    domain = SpatialDomain(1.0, 32)
    np.testing.assert_array_equal(synthesize(np.zeros(3), domain), np.zeros(31))


def test_round_trip_random_coeffs():
    rng = np.random.default_rng(42)
    n = 6
    domain = SpatialDomain(1.0, 16 * n)
    modes = laplacian_eigenvalues(1.0, n)
    for _ in range(5):
        c = rng.standard_normal(n)
        back = project(synthesize(c, domain), domain, modes)
        assert np.linalg.norm(back - c) <= 1e-3 * np.linalg.norm(c)


def test_grid_too_coarse_for_modes():
    domain = SpatialDomain(1.0, 8)
    modes = laplacian_eigenvalues(1.0, 5)
    with pytest.raises(InvalidArgumentError):
        project(np.zeros(7), domain, modes)


def test_energy_norm_examples():
    modes = laplacian_eigenvalues(1.0, 3)
    z = BeamState(np.array([1.0, 0.0, 0.0]), np.zeros(3))
    assert energy_norm(z, modes) == pytest.approx(np.pi**2, rel=1e-14)
    z = BeamState(np.zeros(3), np.array([0.0, 1.0, 0.0]))
    assert energy_norm(z, modes) == pytest.approx(1.0, rel=1e-14)
    assert energy_norm(BeamState.zeros(3), modes) == 0.0


def test_energy_norm_is_a_norm():
    rng = np.random.default_rng(7)
    modes = laplacian_eigenvalues(1.0, 5)
    for _ in range(20):
        x = BeamState(rng.standard_normal(5), rng.standard_normal(5))
        y = BeamState(rng.standard_normal(5), rng.standard_normal(5))
        t = rng.uniform(-3, 3)
        assert energy_norm(t * x, modes) == pytest.approx(
            abs(t) * energy_norm(x, modes), abs=1e-12
        )
        assert energy_norm(x + y, modes) <= (
            energy_norm(x, modes) + energy_norm(y, modes) + 1e-12
        )


def test_energy_coords_round_trip():
    rng = np.random.default_rng(3)
    modes = laplacian_eigenvalues(2.0, 4)
    z = BeamState(rng.standard_normal(4), rng.standard_normal(4))
    coords = energy_coords(z, modes)
    assert np.linalg.norm(coords) == pytest.approx(energy_norm(z, modes), rel=1e-14)
    back = state_from_coords(coords, modes)
    np.testing.assert_allclose(back.w, z.w, rtol=1e-14)
    np.testing.assert_allclose(back.v, z.v, rtol=1e-14)

