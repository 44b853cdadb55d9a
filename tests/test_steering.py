from dataclasses import replace

import numpy as np
import pytest

from beamsteer import (
    BeamState,
    ControlSignal,
    GramianSet,
    SteeringProblem,
    alpha_sweep,
    apply_semigroup,
    assemble_gramian,
    control_energy,
    energy_coords,
    energy_norm,
    laplacian_eigenvalues,
    solve_regularized,
    steer_linear,
    synthesize_control,
)
from beamsteer import gramian, semigroup
from beamsteer.errors import InvalidArgumentError

from oracles import costate, window_coeffs, window_control_quadrature

BETA = 2.0
TAU, DELTA = 1.0, 0.2  # the window [TAU - DELTA, TAU]


def _modes(n=8, length=1.0):
    return laplacian_eigenvalues(length, n)


def _control(y0, z1, alpha, modes, delta=DELTA):
    """The control synthesized on the window of length ``delta`` of the system (modes, BETA)."""
    return synthesize_control(SteeringProblem(y0, z1, alpha), assemble_gramian(modes, BETA, delta))


def _identity_set(n):
    """A set of n identity blocks, least eigenvalue 1."""
    blocks = np.broadcast_to(np.eye(2), (n, 2, 2)).copy()
    return GramianSet(_modes(n), BETA, DELTA, blocks, 1.0)


def _right_inverse_norms(gramians, alphas, probe):
    """||alpha (alpha I + Q)^-1 z|| of the probe z for each alpha, as linear-check forms it."""
    alphas = np.asarray(alphas)
    return alphas * np.linalg.norm(solve_regularized(gramians, alphas, probe), axis=(1, 2))


def _random_state(modes, rng, scale=1.0):
    n = modes.count
    return BeamState(
        scale * rng.standard_normal(n) / modes.lambdas, scale * rng.standard_normal(n)
    )


def test_control_vanishes_on_free_trajectory_target():
    modes = _modes(4)
    rng = np.random.default_rng(0)
    y0 = _random_state(modes, rng)
    z1 = apply_semigroup(y0, DELTA, modes, BETA)
    control = _control(y0, z1, 1e-2, modes)
    samples = np.linspace(TAU - DELTA, TAU, 256)
    assert np.abs(window_coeffs(control, samples, TAU)).max() == 0.0
    assert np.abs(control.eta).max() == 0.0


def test_unit_deflection_target_energy_identity():
    # single mode, unit deflection target from rest
    modes = laplacian_eigenvalues(1.0, 1)
    y0 = BeamState.zeros(1)
    z1 = BeamState(np.array([1.0]), np.array([0.0]))
    gramians = assemble_gramian(modes, BETA, DELTA)
    control = synthesize_control(SteeringProblem(y0, z1, 1e-4), gramians)
    (energy,) = control_energy(control)
    assert np.isfinite(energy) and energy > 0
    (eta,) = control.eta
    quad_form = float(eta[0] @ gramians.blocks[0] @ eta[0])
    assert energy == pytest.approx(quad_form, rel=1e-8)
    # the mapped control agrees with Q eta evaluated independently
    mapped, _ = window_control_quadrature(control)
    np.testing.assert_allclose(mapped, (gramians.blocks @ eta[:, :, None])[:, :, 0], atol=1e-8)


def test_energy_identity_multimode():
    modes = _modes(8)
    rng = np.random.default_rng(1)
    y0 = _random_state(modes, rng)
    z1 = _random_state(modes, rng)
    gramians = assemble_gramian(modes, BETA, DELTA)
    control = synthesize_control(SteeringProblem(y0, z1, 1e-3), gramians)
    _, energy = window_control_quadrature(control)
    (eta,) = control.eta
    quad_form = float(np.sum(eta[:, None, :] @ gramians.blocks @ eta[:, :, None]))
    assert energy == pytest.approx(quad_form, rel=1e-8)


def test_zero_control_is_free_flow():
    modes = _modes(5)
    rng = np.random.default_rng(2)
    y0 = _random_state(modes, rng)
    control = ControlSignal(assemble_gramian(modes, BETA, DELTA), np.zeros((1, 5, 2)), alpha=[1.0])
    out = steer_linear(y0, control)
    free = apply_semigroup(y0, DELTA, modes, BETA)
    assert energy_norm(out - free, modes) <= 1e-13


@pytest.mark.parametrize("alpha", [1.0, 1e-2, 1e-4])
def test_residual_identity_per_mode(alpha):
    modes = _modes(8)
    rng = np.random.default_rng(4)
    y0 = _random_state(modes, rng)
    z1 = _random_state(modes, rng)
    gramians = assemble_gramian(modes, BETA, DELTA)
    control = synthesize_control(SteeringProblem(y0, z1, alpha), gramians)
    y_tau = steer_linear(y0, control)
    d = energy_coords(z1, modes) - energy_coords(
        apply_semigroup(y0, DELTA, modes, BETA), modes
    )
    expected = -alpha * solve_regularized(gramians, [alpha], d)
    got = energy_coords(y_tau, modes) - energy_coords(z1, modes)
    np.testing.assert_allclose(got, expected, atol=1e-8)


def test_steering_linearity():
    modes = _modes(4)
    rng = np.random.default_rng(5)
    y0 = _random_state(modes, rng)
    u1 = _control(y0, _random_state(modes, rng), 1e-2, modes)
    u2 = _control(y0, _random_state(modes, rng), 1e-1, modes)
    both = ControlSignal(u1.gramians, u1.eta + u2.eta, alpha=u1.alpha)
    left = steer_linear(y0, both)
    right = steer_linear(y0, u1) + steer_linear(BeamState.zeros(4), u2)
    assert energy_norm(left - right, modes) <= 1e-10


def test_alpha_sweep_decreasing_and_bounded():
    modes = _modes(8)
    rng = np.random.default_rng(6)
    y0 = _random_state(modes, rng)
    z1 = _random_state(modes, rng)
    alphas = [10.0**-k for k in range(7)]
    control = _control(y0, z1, alphas, modes)
    sweep = alpha_sweep(y0, z1, control)
    errs = [e for _, e in sweep]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    gramians = assemble_gramian(modes, BETA, DELTA)
    d = energy_coords(z1, modes) - energy_coords(
        apply_semigroup(y0, DELTA, modes, BETA), modes
    )
    d_norm = np.linalg.norm(d)
    q_min = gramians.min_eigenvalue
    for alpha, err in sweep:
        assert err <= alpha * d_norm / (alpha + q_min) + 1e-9


def test_alpha_monotone_per_block():
    modes = _modes(6)
    rng = np.random.default_rng(12)
    gramians = assemble_gramian(modes, BETA, DELTA)
    d = rng.standard_normal((6, 2))
    prev = None
    for alpha in [1.0, 0.5, 1e-1, 1e-2, 1e-3, 1e-4]:
        per_block = np.linalg.norm(alpha * solve_regularized(gramians, [alpha], d)[0], axis=1)
        if prev is not None:
            assert np.all(per_block <= prev + 1e-12)
        prev = per_block


def test_alpha_sweep_zero_mismatch():
    modes = _modes(3)
    rng = np.random.default_rng(7)
    y0 = _random_state(modes, rng)
    z1 = apply_semigroup(y0, DELTA, modes, BETA)
    control = _control(y0, z1, [1.0, 0.1, 0.01], modes)
    sweep = alpha_sweep(y0, z1, control)
    assert all(e == 0.0 for _, e in sweep)


def test_alpha_sweep_validation():
    modes = _modes(2)
    y0 = BeamState.zeros(2)
    z1 = BeamState.zeros(2)
    # the problem rejects an empty grid and an alpha outside (0, 1]
    for alphas in ([], [2.0, 1.0]):
        with pytest.raises(InvalidArgumentError):
            SteeringProblem(y0, z1, alphas)
    control = _control(y0, z1, [0.1, 0.5], modes)
    with pytest.raises(InvalidArgumentError, match="strictly decreasing"):
        alpha_sweep(y0, z1, control)


def test_right_inverse_identity_blocks():
    gset = _identity_set(4)
    probe = np.full((4, 2), 0.5)
    # with q = 1 and alpha = 1 the deviation is exactly half the probe norm
    assert _right_inverse_norms(gset, [1.0], probe).tolist() == [0.5 * np.linalg.norm(probe)]


def test_right_inverse_limit_and_ratio():
    modes = _modes(6)
    rng = np.random.default_rng(8)
    gset = assemble_gramian(modes, BETA, DELTA)
    probe = rng.standard_normal((6, 2))
    alphas = np.array([10.0**-k for k in range(7)])
    errors = _right_inverse_norms(gset, alphas, probe)
    # decreasing, and within the spectral bound alpha ||z|| / (alpha + q_min)
    assert np.all(errors[1:] <= errors[:-1] + 1e-15)
    z_norm = np.linalg.norm(probe)
    assert np.all(errors <= alphas * z_norm / (alphas + gset.min_eigenvalue) + 1e-12)
    assert np.all(errors / alphas <= z_norm / gset.min_eigenvalue + 1e-9)


def test_right_inverse_zero_probe():
    gset = _identity_set(3)
    assert _right_inverse_norms(gset, [1.0, 0.5], np.zeros((3, 2))).tolist() == [0.0, 0.0]


def test_problem_validation():
    modes = _modes(2)
    y0 = BeamState.zeros(2)
    with pytest.raises(InvalidArgumentError):
        SteeringProblem(y0, y0, 0.0)
    with pytest.raises(InvalidArgumentError):
        SteeringProblem(y0, y0, 1.5)
    with pytest.raises(InvalidArgumentError):
        _control(y0, y0, 0.5, modes, delta=0.0)


@pytest.mark.parametrize("alpha", [1.0, 1e-4])
@pytest.mark.parametrize("delta", [0.05, 0.2, 0.5])
@pytest.mark.parametrize("n", [1, 8, 32])
def test_closed_form_matches_quadrature_oracle(n, delta, alpha):
    # G u = Q eta and ||u||^2 = eta^T Q eta against quadrature of the control
    modes = _modes(n)
    rng = np.random.default_rng(13)
    y0 = _random_state(modes, rng)
    control = _control(y0, _random_state(modes, rng), alpha, modes, delta)
    mapped, energy = window_control_quadrature(control)
    y_tau = steer_linear(BeamState.zeros(n), control)
    got = energy_coords(y_tau, modes)
    assert np.linalg.norm(got - mapped) <= 1e-12 * np.linalg.norm(mapped)
    (closed_form,) = control_energy(control)
    assert closed_form == pytest.approx(energy, rel=1e-12)


def test_window_coeffs_at_rounded_horizon():
    # grid times can overshoot tau by an ulp (e.g. 273 steps of 1/91 reach
    # 3 + 4.4e-16); such a node is the window end, not an invalid time
    modes = _modes(3)
    control = ControlSignal(assemble_gramian(modes, BETA, DELTA), np.ones((1, 3, 2)), alpha=[1.0])
    late = np.nextafter(TAU, 2.0)
    want = window_coeffs(control, TAU, TAU)
    np.testing.assert_array_equal(window_coeffs(control, late, TAU), want)


def test_control_batch_costate_and_validation():
    # a batch's costate comes from one table of the times; each cell equals
    # its one-cell control's costate bitwise
    modes = _modes(3)
    eta = np.random.default_rng(5).standard_normal((2, 3, 2))
    gset = assemble_gramian(modes, BETA, DELTA)
    batch = ControlSignal(gset, eta, alpha=[0.1, 0.01])
    t = np.linspace(TAU - DELTA, TAU, 7)
    got = costate(batch, t, TAU)
    assert got.shape == (2, 7, 3, 2)
    for cell, e, a in zip(got, eta, batch.alpha):
        (want,) = costate(ControlSignal(gset, e[None], [a]), t, TAU)
        np.testing.assert_array_equal(cell, want)
    for alpha in ([0.1], 0.1, None):
        with pytest.raises(InvalidArgumentError, match="one alpha per cell"):
            ControlSignal(gset, eta, alpha=alpha)
    for bad in (eta[None], eta[0]):  # every control is a batch of cells
        with pytest.raises(InvalidArgumentError, match="cells, N, 2"):
            ControlSignal(gset, bad, alpha=[0.1, 0.01])
    # a control carries the blocks of its own modes, not those of another mode count
    wider = replace(gset, blocks=assemble_gramian(_modes(4), BETA, DELTA).blocks)
    with pytest.raises(InvalidArgumentError, match="those of its modes"):
        ControlSignal(wider, eta, alpha=[0.1, 0.01])
    with pytest.raises(InvalidArgumentError):
        SteeringProblem(BeamState.zeros(3), BeamState.zeros(3), [0.1, 1.5])


def test_stacked_sweeps_match_per_alpha_loops():
    # alpha_sweep and the right-inverse check solve all alphas in one stack;
    # the per-alpha loops they replaced agree to a few ulps (norms summed in
    # another order)
    modes = _modes(8)
    rng = np.random.default_rng(11)
    y0, z1 = _random_state(modes, rng), _random_state(modes, rng)
    alphas = [10.0**-k for k in range(7)]
    gramians = assemble_gramian(modes, BETA, DELTA)
    loop = []
    for alpha in alphas:
        control = _control(y0, z1, alpha, modes)
        y_tau = steer_linear(y0, control)
        loop.append(np.linalg.norm(energy_coords(y_tau, modes) - energy_coords(z1, modes)))
    control = _control(y0, z1, alphas, modes)
    sweep = alpha_sweep(y0, z1, control)
    assert [a for a, _ in sweep] == alphas
    np.testing.assert_allclose([e for _, e in sweep], loop, rtol=1e-14, atol=0.0)
    probe = rng.standard_normal((8, 2))
    loop = [alpha * np.linalg.norm(solve_regularized(gramians, [alpha], probe)) for alpha in alphas]
    stacked = _right_inverse_norms(gramians, alphas, probe)
    np.testing.assert_allclose(stacked, loop, rtol=1e-14, atol=0.0)


def test_alpha_sweep_reuses_a_given_gramian_set(monkeypatch):
    modes = _modes(8)
    rng = np.random.default_rng(12)
    y0, z1 = _random_state(modes, rng), _random_state(modes, rng)
    alphas = [1.0, 1e-2, 1e-4]
    control = _control(y0, z1, alphas, modes)
    want = alpha_sweep(y0, z1, control)

    def refused(*args):
        raise AssertionError("alpha_sweep evaluated a Gramian its control carries")

    # the control holds the set that solved it, so steering evaluates no Gramian
    monkeypatch.setattr(gramian, "gramian_entries", refused)
    monkeypatch.setattr(semigroup, "gramian_entries", refused)
    assert alpha_sweep(y0, z1, control) == want


def test_stacked_control_validation_and_windows():
    # the control of D windows has one eta per window and one alpha per cell, and
    # control[i] is window i's control, as gramians[i] is its set
    modes = _modes(3)
    stacked = assemble_gramian(modes, BETA, [DELTA, 0.1])
    eta = np.random.default_rng(6).standard_normal((2, 3, 3, 2))
    alphas = [0.1, 0.01, 0.001]
    control = ControlSignal(stacked, eta, alpha=alphas)
    for i in range(2):
        window = control[i]
        assert window.gramians.delta == stacked.delta[i] and window.alpha == control.alpha
        np.testing.assert_array_equal(window.gramians.blocks, stacked.blocks[i])
        np.testing.assert_array_equal(window.eta, eta[i])
    with pytest.raises(InvalidArgumentError, match="one eta per window"):
        ControlSignal(stacked, np.concatenate([eta, eta[:1]]), alpha=alphas)
    for gramians, bad in ((stacked, eta[0]), (stacked[0], eta)):  # a window axis or none
        with pytest.raises(InvalidArgumentError, match="cells, N, 2"):
            ControlSignal(gramians, bad, alpha=alphas)
    with pytest.raises(InvalidArgumentError, match="one alpha per cell"):
        ControlSignal(stacked, eta, alpha=alphas[:2])  # as many as the windows
    with pytest.raises(InvalidArgumentError, match="positive length"):
        ControlSignal(assemble_gramian(modes, BETA, [DELTA, 0.0]), eta, alpha=alphas)


def test_readers_of_a_stacked_control_follow_its_windows_or_reject_it():
    # with as many windows as cells a silent broadcast would mix them: control_energy
    # gives each window's energies bitwise, alpha_sweep takes one window only
    modes = _modes(4)
    rng = np.random.default_rng(9)
    deltas, alphas = [DELTA, 0.1, 0.05], [1e-1, 1e-2, 1e-3]
    ends = [_random_state(modes, rng) for _ in deltas]
    starts = BeamState(np.stack([y.w for y in ends]), np.stack([y.v for y in ends]))
    z1 = _random_state(modes, rng)
    control = synthesize_control(
        SteeringProblem(starts, z1, alphas), assemble_gramian(modes, BETA, deltas)
    )
    energy = control_energy(control)
    assert energy.shape == (len(deltas), len(alphas))
    for i, (delta, y0) in enumerate(zip(deltas, ends)):
        np.testing.assert_array_equal(energy[i], control_energy(control[i]))
        alone = _control(y0, z1, alphas, modes, delta)
        np.testing.assert_array_equal(energy[i], control_energy(alone))
    with pytest.raises(InvalidArgumentError, match="one window, not a stack"):
        alpha_sweep(starts, z1, control)


def test_a_single_window_takes_no_window_index():
    # only a stack of windows is indexed by window: a one-window set or control says so
    # in one line, where a float used to end in "not subscriptable"
    gramians = assemble_gramian(_modes(3), BETA, DELTA)
    control = ControlSignal(gramians, np.zeros((1, 3, 2)), alpha=[0.1])
    for single in (gramians, control):
        with pytest.raises(InvalidArgumentError, match="only a stack of windows takes a window"):
            single[0]


def test_control_keeps_its_alphas_as_a_tuple_of_floats():
    # as SteeringProblem does, whatever sequence of alphas the control is given
    modes = _modes(3)
    gramians = assemble_gramian(modes, BETA, DELTA)
    for alpha in ([0.1, 0.01], np.array([0.1, 0.01]), (np.float64(0.1), 0.01)):
        control = ControlSignal(gramians, np.zeros((2, 3, 2)), alpha=alpha)
        assert control.alpha == (0.1, 0.01)
        assert [type(a) for a in control.alpha] == [float, float]
    stacked = assemble_gramian(modes, BETA, [DELTA, 0.1])
    assert ControlSignal(stacked, np.zeros((2, 2, 3, 2)), alpha=[0.1, 0.01])[1].alpha == (0.1, 0.01)
