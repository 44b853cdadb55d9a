from dataclasses import replace

import numpy as np
import pytest

from beamsteer import (
    BeamState,
    ControlSignal,
    ImpulseSchedule,
    NonlinearityCatalog,
    SimConfig,
    SpatialDomain,
    SteerWindow,
    SteeringProblem,
    apply_impulse,
    apply_semigroup,
    energy_norm,
    evaluate_nonlinearity,
    laplacian_eigenvalues,
    memory_term,
    simulate,
    steer_linear,
    synthesize,
    synthesize_control,
    verify_f_bound,
)
from beamsteer.errors import BlowUpError, InvalidArgumentError

BETA = 2.0


def _config(**kw):
    base = dict(
        n_modes=4,
        length=1.0,
        grid_points=64,
        beta=BETA,
        tau=1.0,
        delay=0.3,
        step=1 / 600,
    )
    base.update(kw)
    return SimConfig(**base)


def test_catalog_validation():
    with pytest.raises(InvalidArgumentError):
        NonlinearityCatalog(f_kind="cubic")
    with pytest.raises(InvalidArgumentError):
        NonlinearityCatalog(g_kind="exp")
    with pytest.raises(InvalidArgumentError):
        NonlinearityCatalog(kernel_kind="gaussian")
    with pytest.raises(InvalidArgumentError):
        NonlinearityCatalog(f_a=-1.0)


def test_nonlinearity_zero_kind():
    domain = SpatialDomain(1.0, 64)
    modes = laplacian_eigenvalues(1.0, 4)
    z = BeamState(np.ones(4), np.ones(4))
    out = evaluate_nonlinearity(0.5, z, np.zeros(4), NonlinearityCatalog(), domain, modes)
    np.testing.assert_array_equal(out.w, np.zeros(4))
    np.testing.assert_array_equal(out.v, np.zeros(4))


def test_nonlinearity_constant_forcing_norm():
    # f == b projects onto the odd sine modes; the retained-mode norm equals
    # the truncated series b * sqrt(sum_{odd j<=N} 8 L / (j pi)^2) and is
    # bounded by b sqrt(L)
    b = 0.7
    length = 2.0
    domain = SpatialDomain(length, 128)
    modes = laplacian_eigenvalues(length, 8)
    cat = NonlinearityCatalog(f_kind="linear_growth", f_a=0.0, f_b=b)
    out = evaluate_nonlinearity(0.0, BeamState.zeros(8), np.zeros(8), cat, domain, modes)
    got = energy_norm(out, modes)
    series = b * np.sqrt(sum(8.0 * length / (j * np.pi) ** 2 for j in (1, 3, 5, 7)))
    assert got == pytest.approx(series, abs=1e-3)
    assert got <= b * np.sqrt(length) + 1e-12


def test_nonlinearity_growth_bound():
    domain = SpatialDomain(1.0, 64)
    modes = laplacian_eigenvalues(1.0, 4)
    a = 0.8
    cat = NonlinearityCatalog(f_kind="linear_growth", f_a=a)
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = BeamState(rng.standard_normal(4), rng.standard_normal(4))
        u = rng.standard_normal(4)
        out = evaluate_nonlinearity(0.3, z, u, cat, domain, modes)
        assert energy_norm(out, modes) <= a * energy_norm(z, modes) + 1e-3


def test_memory_term_zero_cases():
    cfg = _config(catalog=NonlinearityCatalog())
    traj = simulate(cfg, None)
    domain, modes = cfg.domain(), cfg.modes()
    out = memory_term(0.5, traj, cfg.catalog, domain, modes)
    assert energy_norm(out, modes) == 0.0
    cat = NonlinearityCatalog(g_kind="rational", kernel_kind="exponential", kappa=1.0)
    out = memory_term(0.0, traj, cat, domain, modes)
    assert energy_norm(out, modes) == 0.0


def test_memory_term_constant_history_oracle():
    # flat kernel, constant history: the integral is t * projected g(w0)
    cat = NonlinearityCatalog(g_kind="rational", kernel_kind="exponential", kappa=1.0, gamma=0.0)
    w0 = np.array([0.4, 0.0, 0.1, 0.0])
    hist = lambda s: BeamState(w0.copy(), np.zeros(4))
    cfg = _config(catalog=cat, history=hist)
    domain, modes = cfg.domain(), cfg.modes()
    traj = simulate(cfg, None)
    t = cfg.delay  # delayed reads still inside the constant history
    got = memory_term(t, traj, cat, domain, modes)
    from beamsteer import project

    g_vals = cat.g(synthesize(w0, domain))
    expected = t * project(g_vals, domain, modes)
    np.testing.assert_allclose(got.v, expected, atol=1e-6)
    np.testing.assert_array_equal(got.w, np.zeros(4))


@pytest.mark.parametrize("gamma", [0.0, 1.0, 30.0], ids=["gamma0", "gamma1", "gamma30"])
@pytest.mark.parametrize("step", [1 / 600, 1 / 4800], ids=["h600", "h4800"])
def test_memory_term_matches_recorded_diagnostics(step, gamma):
    # the simulator's exponential recursion against the trapezoid re-sum
    cat = NonlinearityCatalog(
        f_kind="linear_growth", f_a=0.3, g_kind="sin",
        kernel_kind="exponential", kappa=0.5, gamma=gamma,
    )
    hist = lambda s: BeamState(0.2 * np.cos(s) * np.ones(4) / np.arange(1, 5) ** 2, np.zeros(4))
    cfg = _config(catalog=cat, history=hist, step=step)
    traj = simulate(cfg, None)
    domain, modes = cfg.domain(), cfg.modes()
    for t in (0.1, 0.5, 1.0):
        recomputed = memory_term(t, traj, cat, domain, modes)
        i = traj.index_at(t)
        assert energy_norm(recomputed, modes) == pytest.approx(traj.memory_norms[i], rel=1e-12)


def test_apply_impulse_zero_gain():
    domain = SpatialDomain(1.0, 64)
    modes = laplacian_eigenvalues(1.0, 4)
    schedule = ImpulseSchedule(times=(0.5,), gains=(0.0,))
    z = BeamState(np.ones(4) * 0.2, np.ones(4) * -0.1)
    out = apply_impulse(z, 0, np.zeros(4), schedule, domain, modes)
    np.testing.assert_array_equal(out.w, z.w)
    np.testing.assert_array_equal(out.v, z.v)


def test_apply_impulse_preserves_deflection_and_bounds_jump():
    domain = SpatialDomain(1.0, 64)
    modes = laplacian_eigenvalues(1.0, 4)
    schedule = ImpulseSchedule(times=(0.5,), gains=(0.1,))
    rng = np.random.default_rng(1)
    for _ in range(10):
        z = BeamState(rng.standard_normal(4), rng.standard_normal(4))
        out = apply_impulse(z, 0, rng.standard_normal(4), schedule, domain, modes)
        np.testing.assert_array_equal(out.w, z.w)
        assert np.linalg.norm(out.v - z.v) <= 0.1 * np.sqrt(domain.length) + 1e-12


def test_apply_impulse_index_range():
    domain = SpatialDomain(1.0, 64)
    modes = laplacian_eigenvalues(1.0, 4)
    schedule = ImpulseSchedule(times=(0.5,), gains=(0.1,))
    with pytest.raises(InvalidArgumentError):
        apply_impulse(BeamState.zeros(4), 1, np.zeros(4), schedule, domain, modes)


def test_impulse_schedule_validation():
    with pytest.raises(InvalidArgumentError):
        ImpulseSchedule(times=(0.5, 0.4), gains=(0.1, 0.1))
    with pytest.raises(InvalidArgumentError):
        ImpulseSchedule(times=(0.5,), gains=())
    with pytest.raises(InvalidArgumentError):
        ImpulseSchedule(times=(-0.1,), gains=(0.1,))


def test_free_simulation_matches_semigroup():
    z0 = BeamState(np.array([0.3, -0.1, 0.05, 0.02]), np.array([0.1, 0.0, -0.2, 0.01]))
    cfg = _config(history=lambda s: z0.copy())
    traj = simulate(cfg, None)
    modes = cfg.modes()
    ref = apply_semigroup(z0, cfg.tau, modes, BETA)
    assert energy_norm(traj.terminal() - ref, modes) <= 1e-6


def test_simulation_reproduces_history():
    z0 = BeamState(np.full(4, 0.2), np.full(4, -0.3))
    hist = lambda s: (1.0 + s) * z0
    cfg = _config(history=hist)
    traj = simulate(cfg, None)
    i = traj.index_at(-0.3)
    np.testing.assert_allclose(traj.state(i).w, 0.7 * z0.w, rtol=1e-14)
    assert traj.index_at(0.0) == traj.start_index


def test_steered_linear_simulation_matches_quadrature_path():
    z0 = BeamState(np.array([0.2, -0.05, 0.02, 0.0]), np.zeros(4))
    cfg = _config(history=lambda s: z0.copy())
    modes = cfg.modes()
    traj = simulate(cfg, None)
    window = SteerWindow(1.0, 0.2)
    y0 = traj.state_at(0.8)
    rng = np.random.default_rng(2)
    z1 = BeamState(rng.standard_normal(4) * 0.1 / modes.lambdas, rng.standard_normal(4) * 0.1)
    control = synthesize_control(SteeringProblem(y0, z1, window, 1e-2), modes, BETA)
    steered = simulate(cfg, control)
    linear = steer_linear(y0, control, modes, BETA)
    assert energy_norm(steered.terminal() - linear, modes) <= 1e-6


def test_prefix_bitwise_invariance():
    cat = NonlinearityCatalog(
        f_kind="linear_growth", f_a=0.5, g_kind="rational",
        kernel_kind="exponential", kappa=0.5, gamma=1.0,
    )
    imp = ImpulseSchedule(times=(0.4, 0.7), gains=(0.05, 0.05))
    hist = lambda s: BeamState(0.2 * np.ones(4) / np.arange(1, 5) ** 2, np.zeros(4))
    cfg = _config(catalog=cat, impulses=imp, history=hist)
    modes = cfg.modes()
    traj = simulate(cfg, None)
    window = SteerWindow(1.0, 0.2)
    y0 = traj.state_at(0.8)
    z1 = BeamState.zeros(4)
    z1.v[0] = 1.0
    u_a = synthesize_control(SteeringProblem(y0, z1, window, 1e-1), modes, BETA)
    u_b = synthesize_control(SteeringProblem(y0, z1, window, 1e-4), modes, BETA)
    ta = simulate(cfg, u_a)
    tb = simulate(cfg, u_b)
    cut = ta.index_at(0.8)
    assert np.array_equal(ta.w[: cut + 1], tb.w[: cut + 1])
    assert np.array_equal(ta.v[: cut + 1], tb.v[: cut + 1])
    # and they do differ afterwards
    assert not np.array_equal(ta.v[cut + 1 :], tb.v[cut + 1 :])


def _resume_setup():
    cfg = _config(history=lambda s: BeamState(np.full(4, 0.1), np.zeros(4)))
    base = simulate(cfg, None)
    window = SteerWindow(1.0, 0.2)
    z1 = BeamState.zeros(4)
    z1.v[0] = 0.3
    problem = SteeringProblem(base.state_at(window.start), z1, window, 1e-2)
    return cfg, base, problem


@pytest.mark.parametrize(
    "change, what",
    [
        (dict(step=1 / 1200), "step"),
        (dict(delay=0.25), "delay"),
        (dict(tau=1.2), "horizon"),
        (dict(n_modes=3), "mode count"),
    ],
    ids=["step", "delay", "horizon", "modes"],
)
def test_resume_rejects_prefix_of_another_config(change, what):
    _, base, _ = _resume_setup()
    other = _config(**change)
    control = ControlSignal(
        SteerWindow(other.tau, 0.2), np.zeros((other.n_modes, 2)), other.modes(), BETA
    )
    with pytest.raises(InvalidArgumentError, match=f"prefix run has {what}"):
        simulate(other, control, prefix=base)


def test_resume_rejects_cells_on_different_windows():
    cfg, base, problem = _resume_setup()
    modes = cfg.modes()
    wide = synthesize_control(problem, modes, BETA)
    short = SteeringProblem(base.state_at(0.9), problem.z1, SteerWindow(1.0, 0.1), 1e-2)
    with pytest.raises(InvalidArgumentError, match="share one window"):
        simulate(cfg, [wide, synthesize_control(short, modes, BETA)], prefix=base)


def test_resume_rejects_window_not_ending_at_horizon():
    cfg, base, _ = _resume_setup()
    control = ControlSignal(SteerWindow(0.9, 0.2), np.zeros((4, 2)), cfg.modes(), BETA)
    with pytest.raises(InvalidArgumentError, match="end at the horizon"):
        simulate(cfg, [control], prefix=base)


def test_resume_rejects_control_with_base_signal():
    cfg, base, problem = _resume_setup()
    control = synthesize_control(problem, cfg.modes(), BETA, base=lambda t: np.full(4, 0.1))
    with pytest.raises(InvalidArgumentError, match="base signal"):
        simulate(cfg, control, prefix=base)


def test_blowup_in_batched_window_names_cell():
    cfg, base, _ = _resume_setup()
    modes = cfg.modes()
    window = SteerWindow(1.0, 0.1)
    z1 = BeamState.zeros(4)
    z1.v[0] = 1e3  # far target: the weakly regularised cell needs a huge control
    controls = [
        synthesize_control(SteeringProblem(base.state_at(0.9), z1, window, alpha), modes, BETA)
        for alpha in (1e-1, 1e-4)
    ]
    guarded = replace(cfg, blowup_threshold=100.0)
    with pytest.raises(BlowUpError, match=r"at t=0\.9\d+ in the cell alpha=0\.0001, delta=0\.1"):
        simulate(guarded, controls, prefix=base)


def test_deflection_continuity_at_impulses():
    cat = NonlinearityCatalog(f_kind="bounded_trig", f_a=0.2, f_b=0.1)
    imp = ImpulseSchedule(times=(0.4, 0.7), gains=(0.3, 0.2))
    hist = lambda s: BeamState(0.3 * np.ones(4), 0.1 * np.ones(4))
    cfg = _config(catalog=cat, impulses=imp, history=hist)
    traj = simulate(cfg, None)
    assert len(traj.pre_impulse) == 2
    for idx, (w_pre, v_pre) in traj.pre_impulse.items():
        np.testing.assert_array_equal(traj.w[idx], w_pre)
        assert np.any(traj.v[idx] != v_pre)
        left = traj.left_limit(idx)
        np.testing.assert_array_equal(left.v, v_pre)


def test_impulse_jump_recorded():
    imp = ImpulseSchedule(times=(0.5,), gains=(0.2,))
    hist = lambda s: BeamState(np.full(4, 0.5), np.zeros(4))
    cfg = _config(impulses=imp, history=hist)
    traj = simulate(cfg, None)
    assert len(traj.impulse_events) == 1
    k, t, size = traj.impulse_events[0]
    assert k == 0 and t == pytest.approx(0.5) and 0 < size <= 0.2


def test_second_order_self_convergence():
    cat = NonlinearityCatalog(
        f_kind="linear_growth", f_a=0.5, g_kind="rational",
        kernel_kind="exponential", kappa=0.5, gamma=1.0,
    )
    imp = ImpulseSchedule(times=(0.2,), gains=(0.05,))
    hist = lambda s: BeamState(0.3 * np.cos(s) * np.ones(4) / np.arange(1, 5) ** 2, np.zeros(4))

    def terminal(step):
        cfg = _config(tau=0.5, delay=0.1, step=step, catalog=cat, impulses=imp, history=hist)
        return simulate(cfg, None).terminal()

    modes = laplacian_eigenvalues(1.0, 4)
    ref = terminal(1 / 800)
    e1 = energy_norm(terminal(1 / 100) - ref, modes)
    e2 = energy_norm(terminal(1 / 200) - ref, modes)
    assert 3.0 <= e1 / e2 <= 5.0


def test_blowup_guard_triggers():
    cat = NonlinearityCatalog(f_kind="linear_growth", f_a=0.0, f_b=1e14)
    cfg = _config(catalog=cat)
    with pytest.raises(BlowUpError):
        simulate(cfg, None)


def test_grid_alignment_enforced():
    with pytest.raises(InvalidArgumentError):
        _config(delay=0.3, step=1 / 601)  # 0.3/step not integral
    with pytest.raises(InvalidArgumentError):
        _config(impulses=ImpulseSchedule(times=(0.35001,), gains=(0.1,)))
    with pytest.raises(InvalidArgumentError):
        _config(delta=0.4)  # delta >= delay
    with pytest.raises(InvalidArgumentError):
        _config(impulses=ImpulseSchedule(times=(0.9,), gains=(0.1,)), delta=0.2)


def test_verify_f_bound_zero():
    domain = SpatialDomain(1.0, 64)
    modes = laplacian_eigenvalues(1.0, 4)
    report = verify_f_bound(NonlinearityCatalog(), domain, modes, samples=100, seed=1)
    assert report["passed"]
    assert report["a_fit"] == 0.0 and report["b_fit"] == 0.0


def test_verify_f_bound_linear_growth():
    domain = SpatialDomain(1.0, 64)
    modes = laplacian_eigenvalues(1.0, 4)
    cat = NonlinearityCatalog(f_kind="linear_growth", f_a=0.5)
    report = verify_f_bound(cat, domain, modes, samples=500, seed=2)
    assert report["passed"]
    assert report["max_violation"] <= 1e-3
    assert report["a_declared"] == pytest.approx(0.5)
    assert report["b_declared"] == 0.0


def test_verify_f_bound_constant():
    domain = SpatialDomain(2.0, 64)
    modes = laplacian_eigenvalues(2.0, 4)
    cat = NonlinearityCatalog(f_kind="linear_growth", f_a=0.0, f_b=0.3)
    report = verify_f_bound(cat, domain, modes, samples=300, seed=3)
    assert report["passed"]
    assert report["b_declared"] == pytest.approx(0.3 * np.sqrt(2.0))


def test_verify_f_bound_bounded_trig():
    domain = SpatialDomain(1.0, 64)
    modes = laplacian_eigenvalues(1.0, 4)
    cat = NonlinearityCatalog(f_kind="bounded_trig", f_a=0.4, f_b=0.2)
    report = verify_f_bound(cat, domain, modes, samples=500, seed=4)
    assert report["passed"]
