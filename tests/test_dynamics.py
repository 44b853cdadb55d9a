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
    simulate,
    steer_linear,
    synthesize_control,
    verify_f_bound,
)
from beamsteer.dynamics import SLAB
from beamsteer.errors import BlowUpError, InvalidArgumentError
from oracles import (
    f_bound_per_sample,
    left_limit,
    memory_term,
    project,
    simulate_stepwise,
    synthesize,
)

BETA = 2.0
# the catalogs of acceptance criterion 7
CRITERION_7_CATALOGS = [
    NonlinearityCatalog(),
    NonlinearityCatalog(f_kind="linear_growth", f_a=0.5, f_b=0.0),
    NonlinearityCatalog(f_kind="linear_growth", f_a=0.0, f_b=0.3),
    NonlinearityCatalog(f_kind="linear_growth", f_a=0.7, f_b=0.4),
    NonlinearityCatalog(f_kind="bounded_trig", f_a=0.4, f_b=0.2),
]


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


def _constant_history(w, v):
    """Array history holding the state (w, v) at every time."""
    return lambda s: (np.tile(w, (s.size, 1)), np.tile(v, (s.size, 1)))


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
    out = evaluate_nonlinearity(z.w, z.v, np.zeros(4), NonlinearityCatalog(), domain, modes)
    np.testing.assert_array_equal(out, np.zeros(4))


def test_nonlinearity_constant_forcing_norm():
    # f == b projects onto the odd sine modes; the retained-mode norm equals
    # the truncated series b * sqrt(sum_{odd j<=N} 8 L / (j pi)^2) and is
    # bounded by b sqrt(L)
    b = 0.7
    length = 2.0
    domain = SpatialDomain(length, 128)
    modes = laplacian_eigenvalues(length, 8)
    cat = NonlinearityCatalog(f_kind="linear_growth", f_a=0.0, f_b=b)
    out = evaluate_nonlinearity(np.zeros(8), np.zeros(8), np.zeros(8), cat, domain, modes)
    got = np.linalg.norm(out)
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
        out = evaluate_nonlinearity(z.w, z.v, u, cat, domain, modes)
        assert np.linalg.norm(out) <= a * energy_norm(z, modes) + 1e-3


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
    cfg = _config(catalog=cat, history=_constant_history(w0, np.zeros(4)))
    domain, modes = cfg.domain(), cfg.modes()
    traj = simulate(cfg, None)
    t = cfg.delay  # delayed reads still inside the constant history
    got = memory_term(t, traj, cat, domain, modes)
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
    hist = lambda s: (
        0.2 * np.cos(s)[:, None] * np.ones(4) / np.arange(1, 5) ** 2, np.zeros((s.size, 4))
    )
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
    out = apply_impulse(z.w, z.v, 0, schedule, domain, modes)
    np.testing.assert_array_equal(out, np.zeros(4))


def test_apply_impulse_preserves_deflection_and_bounds_jump():
    domain = SpatialDomain(1.0, 64)
    modes = laplacian_eigenvalues(1.0, 4)
    schedule = ImpulseSchedule(times=(0.5,), gains=(0.1,))
    rng = np.random.default_rng(1)
    for _ in range(10):
        z = BeamState(rng.standard_normal(4), rng.standard_normal(4))
        out = apply_impulse(z.w, z.v, 0, schedule, domain, modes)
        assert np.linalg.norm(out) <= 0.1 * np.sqrt(domain.length) + 1e-12


def test_apply_impulse_index_range():
    domain = SpatialDomain(1.0, 64)
    modes = laplacian_eigenvalues(1.0, 4)
    schedule = ImpulseSchedule(times=(0.5,), gains=(0.1,))
    with pytest.raises(InvalidArgumentError):
        apply_impulse(np.zeros(4), np.zeros(4), 1, schedule, domain, modes)


@pytest.mark.parametrize(
    "cat",
    [
        NonlinearityCatalog(),
        NonlinearityCatalog(f_kind="linear_growth", f_a=0.7, f_b=0.4),
        NonlinearityCatalog(f_kind="bounded_trig", f_a=0.4, f_b=0.2),
    ],
    ids=["zero", "linear_growth", "bounded_trig"],
)
def test_stacked_rows_match_row_by_row_calls(cat):
    domain = SpatialDomain(1.0, 64)
    modes = laplacian_eigenvalues(1.0, 4)
    rng = np.random.default_rng(5)
    W, V, U = rng.standard_normal((3, 5, 4))
    stacked = evaluate_nonlinearity(W, V, U, cat, domain, modes)
    rows = [evaluate_nonlinearity(w, v, u, cat, domain, modes) for w, v, u in zip(W, V, U)]
    np.testing.assert_allclose(stacked, rows, rtol=1e-13, atol=1e-15)
    # a leading axis carried by the control alone survives every kind
    shared = evaluate_nonlinearity(W[0], V[0], U, cat, domain, modes)
    rows = [evaluate_nonlinearity(W[0], V[0], u, cat, domain, modes) for u in U]
    assert shared.shape == U.shape
    np.testing.assert_allclose(shared, rows, rtol=1e-13, atol=1e-15)
    schedule = ImpulseSchedule(times=(0.5,), gains=(0.3,))
    jumps = apply_impulse(W, V, 0, schedule, domain, modes)
    rows = [apply_impulse(w, v, 0, schedule, domain, modes) for w, v in zip(W, V)]
    np.testing.assert_allclose(jumps, rows, rtol=1e-13, atol=1e-15)


def test_collocated_maps_reject_wrong_mode_axis():
    domain = SpatialDomain(1.0, 64)
    modes = laplacian_eigenvalues(1.0, 4)
    cat = NonlinearityCatalog(f_kind="linear_growth", f_a=0.5)
    schedule = ImpulseSchedule(times=(0.5,), gains=(0.1,))
    with pytest.raises(InvalidArgumentError, match="mode axis"):
        evaluate_nonlinearity(np.zeros(4), np.zeros(4), np.zeros(3), cat, domain, modes)
    with pytest.raises(InvalidArgumentError, match="mode axis"):
        evaluate_nonlinearity(np.zeros((2, 5)), np.zeros(4), np.zeros(4), cat, domain, modes)
    with pytest.raises(InvalidArgumentError, match="mode axis"):
        apply_impulse(np.zeros(4), np.zeros((4, 1)), 0, schedule, domain, modes)


def test_impulse_schedule_validation():
    with pytest.raises(InvalidArgumentError):
        ImpulseSchedule(times=(0.5, 0.4), gains=(0.1, 0.1))
    with pytest.raises(InvalidArgumentError):
        ImpulseSchedule(times=(0.5,), gains=())
    with pytest.raises(InvalidArgumentError):
        ImpulseSchedule(times=(-0.1,), gains=(0.1,))


def test_free_simulation_matches_semigroup():
    z0 = BeamState(np.array([0.3, -0.1, 0.05, 0.02]), np.array([0.1, 0.0, -0.2, 0.01]))
    cfg = _config(history=_constant_history(z0.w, z0.v))
    traj = simulate(cfg, None)
    modes = cfg.modes()
    ref = apply_semigroup(z0, cfg.tau, modes, BETA)
    assert energy_norm(traj.terminal() - ref, modes) <= 1e-6


def test_simulation_reproduces_history():
    z0 = BeamState(np.full(4, 0.2), np.full(4, -0.3))
    hist = lambda s: ((1.0 + s)[:, None] * z0.w, (1.0 + s)[:, None] * z0.v)
    cfg = _config(history=hist)
    traj = simulate(cfg, None)
    i = traj.index_at(-0.3)
    np.testing.assert_allclose(traj.state(i).w, 0.7 * z0.w, rtol=1e-14)
    assert traj.index_at(0.0) == traj.start_index


def test_history_evaluated_once_on_the_delay_grid():
    calls = []
    w0 = np.array([0.2, -0.1, 0.05, 0.0])

    def hist(s):
        calls.append(s.copy())
        return (1.0 + s)[:, None] * w0, np.zeros((s.size, 4))

    cfg = _config(history=hist)
    traj = simulate(cfg, None)
    assert len(calls) == 1
    s = calls[0]
    assert s.shape == (181,)
    assert s[0] == pytest.approx(-0.3) and s[-1] == 0.0
    np.testing.assert_allclose(np.diff(s), cfg.step, rtol=1e-9)
    np.testing.assert_array_equal(traj.w[:181], (1.0 + s)[:, None] * w0)


@pytest.mark.parametrize(
    "returned",
    [
        (np.zeros((180, 4)), np.zeros((180, 4))),
        (np.zeros((182, 4)), np.zeros((182, 4))),
        (np.zeros((181, 3)), np.zeros((181, 3))),
        (np.zeros((181, 4)), np.zeros((181, 3))),
        (np.zeros(181), np.zeros(181)),
        BeamState.zeros(4),
    ],
    ids=["nodes_short", "nodes_long", "modes", "velocity_modes", "flat_nodes", "one_state"],
)
def test_simulate_rejects_history_of_wrong_shape(returned):
    cfg = _config(history=lambda s: returned)
    with pytest.raises(InvalidArgumentError, match=r"history must give .* \(181, 4\)"):
        simulate(cfg, None)


@pytest.mark.parametrize("beta", [1.0, 1.01, 2.0], ids=["beta1", "beta1.01", "beta2"])
@pytest.mark.parametrize("step", [1 / 600, 1 / 4800], ids=["h600", "h4800"])
def test_steered_linear_simulation_matches_quadrature_path(beta, step):
    # with f, g and the kernel zero the window dynamics are exactly linear
    z0 = BeamState(np.array([0.2, -0.05, 0.02, 0.0]), np.zeros(4))
    cfg = _config(history=_constant_history(z0.w, z0.v), beta=beta, step=step)
    modes = cfg.modes()
    traj = simulate(cfg, None)
    window = SteerWindow(1.0, 0.2)
    y0 = traj.state_at(0.8)
    rng = np.random.default_rng(2)
    z1 = BeamState(rng.standard_normal(4) * 0.1 / modes.lambdas, rng.standard_normal(4) * 0.1)
    control = synthesize_control(SteeringProblem(y0, z1, window, 1e-2), modes, beta)
    steered = simulate(cfg, control)
    linear = steer_linear(y0, control, modes, beta)
    assert energy_norm(steered.terminal() - linear, modes) <= 1e-12 * energy_norm(linear, modes)


def test_prefix_bitwise_invariance():
    cat = NonlinearityCatalog(
        f_kind="linear_growth", f_a=0.5, g_kind="rational",
        kernel_kind="exponential", kappa=0.5, gamma=1.0,
    )
    imp = ImpulseSchedule(times=(0.4, 0.7), gains=(0.05, 0.05))
    hist = _constant_history(0.2 * np.ones(4) / np.arange(1, 5) ** 2, np.zeros(4))
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
    cfg = _config(history=_constant_history(np.full(4, 0.1), np.zeros(4)))
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
    hist = _constant_history(0.3 * np.ones(4), 0.1 * np.ones(4))
    cfg = _config(catalog=cat, impulses=imp, history=hist)
    traj = simulate(cfg, None)
    assert len(traj.pre_impulse) == 2
    for idx, (w_pre, v_pre) in traj.pre_impulse.items():
        np.testing.assert_array_equal(traj.w[idx], w_pre)
        assert np.any(traj.v[idx] != v_pre)
        left = left_limit(traj, idx)
        np.testing.assert_array_equal(left.v, v_pre)


def test_impulse_jump_recorded():
    imp = ImpulseSchedule(times=(0.5,), gains=(0.2,))
    hist = _constant_history(np.full(4, 0.5), np.zeros(4))
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
    hist = lambda s: (
        0.3 * np.cos(s)[:, None] * np.ones(4) / np.arange(1, 5) ** 2, np.zeros((s.size, 4))
    )

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


def test_blowup_guard_trips_on_non_finite_state():
    cfg = _config(history=_constant_history(np.full(4, np.nan), np.zeros(4)))
    for run in (simulate, simulate_stepwise):
        with pytest.raises(BlowUpError, match=r"norm nan at t=0\.001667$"):
            run(cfg, None)


def test_blowup_guard_names_first_trip_like_stepwise_oracle():
    # a constant forcing crosses the threshold inside the first slab
    cfg = _config(
        catalog=NonlinearityCatalog(f_kind="linear_growth", f_b=50.0), blowup_threshold=1.0
    )
    messages = []
    for run in (simulate, simulate_stepwise):
        with pytest.raises(BlowUpError) as err:
            run(cfg, None)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    trip = round(float(messages[0].rsplit("t=", 1)[1]) / cfg.step)
    assert 0 < trip < SLAB


STEPWISE_F = {
    "zero": dict(),
    "linear_growth": dict(f_kind="linear_growth", f_a=0.5, f_b=0.1),
    "bounded_trig": dict(f_kind="bounded_trig", f_a=0.4, f_b=0.2),
}
STEPWISE_CASES = [
    pytest.param(f, memory, 1 / 600, 0.3, 0.15, id=f"{f}-{'mem' if memory else 'nomem'}-h600")
    for f in STEPWISE_F
    for memory in (False, True)
] + [
    pytest.param("linear_growth", True, 1 / 4800, 0.3, 0.15, id="linear_growth-mem-h4800"),
    # n_r = 6 < SLAB: the delay bounds the slabs
    pytest.param("bounded_trig", True, 1 / 600, 0.01, 0.005, id="bounded_trig-mem-short_delay"),
]


@pytest.mark.parametrize("f_kind, memory, step, delay, delta", STEPWISE_CASES)
def test_slabs_match_stepwise_oracle(f_kind, memory, step, delay, delta):
    # at h = 1/600 the impulses at 0.25 and 0.55 and the window start 0.85
    # fall inside slabs of 32 steps
    memory_kw = dict(g_kind="rational", kernel_kind="exponential", kappa=0.5, gamma=1.0)
    cat = NonlinearityCatalog(**STEPWISE_F[f_kind], **(memory_kw if memory else {}))
    k = np.arange(1, 5)
    hist = lambda s: (0.3 * np.cos(3 * s)[:, None] / k**2, 0.2 * np.sin(2 * s)[:, None] / k)
    imp = ImpulseSchedule(times=(0.25, 0.55), gains=(0.1, -0.05))
    cfg = _config(catalog=cat, impulses=imp, history=hist, step=step, delay=delay)
    window = SteerWindow(cfg.tau, delta)
    z1 = BeamState.zeros(4)
    z1.v[0] = 0.5
    free = simulate(cfg, None)
    problem = SteeringProblem(free.state_at(window.start), z1, window, 1e-3)
    modes = cfg.modes()
    for control in (None, synthesize_control(problem, modes, BETA)):
        got, ref = simulate(cfg, control), simulate_stepwise(cfg, control)
        for a, b in ((got.w, ref.w), (got.v, ref.v), (got.memory, ref.memory)):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
        gap = energy_norm(got.terminal() - ref.terminal(), modes)
        assert gap <= 1e-12 * energy_norm(ref.terminal(), modes)
        assert got.pre_impulse.keys() == ref.pre_impulse.keys()
        assert [e[:2] for e in got.impulse_events] == [e[:2] for e in ref.impulse_events]
        np.testing.assert_array_equal(got.control, ref.control)
    # the loop's last pass leaves the steered control and its stepwise run;
    # resumed from the free run, singly and as a batch of one, it must agree
    # too, and the prefix must come back bitwise unchanged
    before = [a.tobytes() for a in (free.w, free.v, free.memory)]
    resumed = simulate(cfg, control, prefix=free)
    (terminal,) = simulate(cfg, [control], prefix=free)
    for a, b in ((resumed.w, ref.w), (resumed.v, ref.v), (resumed.memory, ref.memory)):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
    np.testing.assert_array_equal(resumed.control, ref.control)
    for z in (resumed.terminal(), terminal):
        assert energy_norm(z - ref.terminal(), modes) <= 1e-12 * energy_norm(ref.terminal(), modes)
    assert [a.tobytes() for a in (free.w, free.v, free.memory)] == before


def test_grid_alignment_enforced():
    with pytest.raises(InvalidArgumentError):
        _config(delay=0.3, step=1 / 601)  # 0.3/step not integral
    with pytest.raises(InvalidArgumentError):
        _config(impulses=ImpulseSchedule(times=(0.35001,), gains=(0.1,)))
    with pytest.raises(InvalidArgumentError):
        _config().validate_delta(0.4)  # delta >= delay
    with pytest.raises(InvalidArgumentError):
        _config(impulses=ImpulseSchedule(times=(0.9,), gains=(0.1,))).validate_delta(0.2)


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


@pytest.mark.parametrize("k, cat", list(enumerate(CRITERION_7_CATALOGS)))
def test_verify_f_bound_matches_per_sample_loop(k, cat):
    domain = SpatialDomain(1.0, 128)
    modes = laplacian_eigenvalues(1.0, 8)
    report = verify_f_bound(cat, domain, modes, samples=1000, seed=20240811 + k)
    expected = f_bound_per_sample(cat, domain, modes, samples=1000, seed=20240811 + k)
    for key in ("max_violation", "a_fit", "b_fit"):
        assert report[key] == pytest.approx(expected[key], rel=1e-12, abs=1e-15), key


def test_verify_f_bound_bounded_trig():
    domain = SpatialDomain(1.0, 64)
    modes = laplacian_eigenvalues(1.0, 4)
    cat = NonlinearityCatalog(f_kind="bounded_trig", f_a=0.4, f_b=0.2)
    report = verify_f_bound(cat, domain, modes, samples=500, seed=4)
    assert report["passed"]
