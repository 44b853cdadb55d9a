import threading
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

from beamsteer import (
    BeamState,
    ImpulseSchedule,
    NonlinearityCatalog,
    SimConfig,
    SpatialDomain,
    SteeringProblem,
    apply_semigroup,
    assemble_gramian,
    energy_norm,
    laplacian_eigenvalues,
    load_experiment,
    parse_experiment,
    run_pullback_experiment,
    simulate,
    steer_linear,
    synthesize_control,
)
from beamsteer import dynamics, spectral
from beamsteer.config import DEFAULT_CONFIG
from beamsteer.dynamics import (
    BLOWUP_THRESHOLD,
    CHUNK,
    F_READS,
    G_KINDS,
    OUTER,
    exact_multiple,
    window_response,
)
from beamsteer.errors import BlowUpError, InvalidArgumentError
from beamsteer.harness import pullback_setup
from oracles import (
    apply_impulse,
    catalog_f,
    evaluate_nonlinearity,
    f_bound_per_sample,
    left_limit,
    memory_forcing_extended,
    memory_term,
    project,
    simulate_stepwise,
    synthesize,
    verify_f_bound,
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
    traj = simulate(cfg)
    domain, modes = cfg.domain, cfg.modes
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
    domain, modes = cfg.domain, cfg.modes
    traj = simulate(cfg)
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
    traj = simulate(cfg)
    domain, modes = cfg.domain, cfg.modes
    for t in (0.1, 0.5, 1.0):
        recomputed = memory_term(t, traj, cat, domain, modes)
        i = traj.index_at(t)
        norm = np.linalg.norm(traj.memory[i])
        assert energy_norm(recomputed, modes) == pytest.approx(norm, rel=1e-12)


@pytest.mark.parametrize("name", ["sweep-default", "sweep-long"])
def test_memory_forcing_matches_the_extended_precision_sum(name):
    # the memory's tables hold exp(-gamma t) at each lag, not powers of the rounded
    # exp(-gamma h), whose bias grows with the lag: within 2e-15 of the largest memory value
    # (measured 4.3e-16), where the powers drifted to 7.9e-14 on sweep-long
    config, base, _ = pullback_setup(_workload(name))
    nodes = np.arange(config.delay_steps + 1, base.times.size, 13)
    gap = np.abs(base.memory[nodes] - memory_forcing_extended(base, nodes)).max()
    assert gap <= 2e-15 * np.abs(base.memory).max(), gap / np.abs(base.memory).max()


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
    # the pointwise maps take scalars as well as arrays
    np.testing.assert_allclose(cat.f(W[0, 0], V[0, 0], U[0, 0]), cat.f(W, V, U)[0, 0], rtol=1e-15)
    schedule = ImpulseSchedule(times=(0.5,), gains=(0.3,))
    jumps = apply_impulse(W, V, 0, schedule, domain, modes)
    rows = [apply_impulse(w, v, 0, schedule, domain, modes) for w, v in zip(W, V)]
    np.testing.assert_allclose(jumps, rows, rtol=1e-13, atol=1e-15)


HALF_ANGLE = {
    "cos": (dynamics._cos, np.cos, mpmath.cos, (1.0, 0.3)),
    "sin": (lambda x, out=None, scale=1.0: dynamics._sin(x, out), np.sin, mpmath.sin, (1.0,)),
}


@pytest.mark.parametrize("name", HALF_ANGLE)
def test_half_angle_trig_within_two_ulps_of_one(name):
    # the catalog's scale * cos and sin from t = tan(x / 2) miss by at most
    # 2 * scale * 2**-52: against extended precision up to 1e4, and against mpmath
    # for huge arguments and the doubles around k pi / 2
    ours, libm, exact, scales = HALF_ANGLE[name]
    rng = np.random.default_rng(13)
    x = np.concatenate([rng.uniform(-r, r, 50_000) for r in (1.0, 10.0, 100.0, 1e4)])
    y = np.pi / 2 * np.arange(1, 201)
    edge = [y, *(np.nextafter(y, s * np.inf) for s in (-1, 1))]
    edge += [np.nextafter(z, s * np.inf) for z, s in zip(edge[1:], (-1, 1))]
    edge = np.concatenate([10.0 ** rng.uniform(4, 15, 500), *edge])
    with mpmath.workdps(40):
        want = np.array([float(exact(mpmath.mpf(a))) for a in edge])
    for scale in scales:
        bound = 2 * scale * 2.0**-52
        assert np.abs(ours(x, scale=scale) - scale * libm(x.astype(np.longdouble))).max() <= bound
        assert np.abs(ours(edge, scale=scale) - scale * want).max() <= bound
    # libm's special values, the sign of zero included
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    with np.errstate(invalid="ignore"):
        got, ref = ours(special), libm(special)
    np.testing.assert_array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))
    # the same bits whatever the layout: scalars, strided views, in place
    x = rng.uniform(-10, 10, (64, 33))
    want = ours(x)
    assert [ours(a) for a in x[0]] == list(want[0])
    assert np.array_equal(ours(x[::3, 1::2]), want[::3, 1::2])
    assert np.array_equal(ours(x.T), want.T)
    out = np.full(x.shape, np.nan)
    assert ours(x, out) is out and np.array_equal(out, want)
    assert ours(x, x) is x and np.array_equal(x, want)


@pytest.mark.parametrize("f_b", [0.0, 0.3])
@pytest.mark.parametrize("kind", F_READS)
@pytest.mark.parametrize("u", ["scalar", "array"])
def test_forcing_in_place_matches_fresh_call(kind, f_b, u):
    # f written into a buffer, or into the control's own synthesis, is f bitwise
    # and leaves y and v alone
    cat = NonlinearityCatalog(f_kind=kind, f_a=0.7, f_b=f_b)
    rng = np.random.default_rng(11)
    y, v = rng.standard_normal((2, 6, 64))
    u = 0.4 if u == "scalar" else rng.standard_normal((3, 6, 64))
    want, kept = cat.f(y, v, u), (y.copy(), v.copy())
    cases = [(u, np.full(want.shape, np.nan))]
    if np.ndim(u):
        alias = u.copy()
        cases.append((alias, alias))
    for arg, out in cases:
        got = cat.f(y, v, arg, out=out)
        assert got is out and np.array_equal(got, want)
        assert np.array_equal(y, kept[0]) and np.array_equal(v, kept[1])


@pytest.mark.parametrize("kind", G_KINDS)
def test_memory_integrand_in_place_matches_fresh_call(kind):
    cat = NonlinearityCatalog(g_kind=kind)
    w = np.random.default_rng(12).standard_normal((6, 64))
    want, kept, out = cat.g(w), w.copy(), np.full(w.shape, np.nan)
    got = cat.g(w, out=out)
    assert got is out and np.array_equal(got, want) and np.array_equal(w, kept)


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
    traj = simulate(cfg)
    modes = cfg.modes
    ref = apply_semigroup(z0, cfg.tau, modes, BETA)
    assert energy_norm(traj.terminal() - ref, modes) <= 1e-6


def test_simulation_reproduces_history():
    z0 = BeamState(np.full(4, 0.2), np.full(4, -0.3))
    hist = lambda s: ((1.0 + s)[:, None] * z0.w, (1.0 + s)[:, None] * z0.v)
    cfg = _config(history=hist)
    traj = simulate(cfg)
    i = traj.index_at(-0.3)
    np.testing.assert_allclose(traj.state(i).w, 0.7 * z0.w, rtol=1e-14)
    assert traj.index_at(0.0) == cfg.delay_steps


def test_history_evaluated_once_on_the_delay_grid():
    calls = []
    w0 = np.array([0.2, -0.1, 0.05, 0.0])

    def hist(s):
        calls.append(s.copy())
        return (1.0 + s)[:, None] * w0, np.zeros((s.size, 4))

    cfg = _config(history=hist)
    traj = simulate(cfg)
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
        simulate(cfg)


@pytest.mark.parametrize("beta", [1.0, 1.01, 2.0], ids=["beta1", "beta1.01", "beta2"])
@pytest.mark.parametrize("step", [1 / 600, 1 / 4800], ids=["h600", "h4800"])
def test_steered_linear_simulation_matches_quadrature_path(beta, step):
    # with f, g and the kernel zero the window dynamics are exactly linear: the
    # window sum adds nothing, and the stepwise run, whose control increments come
    # from quadrature, ends where the closed-form linear steer does
    z0 = BeamState(np.array([0.2, -0.05, 0.02, 0.0]), np.zeros(4))
    cfg = _config(history=_constant_history(z0.w, z0.v), beta=beta, step=step)
    modes = cfg.modes
    traj = simulate(cfg)
    y0 = traj.state_at(0.8)
    rng = np.random.default_rng(2)
    z1 = BeamState(rng.standard_normal(4) * 0.1 / modes.lambdas, rng.standard_normal(4) * 0.1)
    control = _steer(cfg, SteeringProblem(y0, z1, 1e-2), 0.2)
    linear = steer_linear(y0, control)
    response = window_response(traj, control, linear)
    assert not response.w.any() and not response.v.any()
    steered = simulate_stepwise(cfg, control).terminal()
    assert energy_norm(steered - linear, modes) <= 1e-12 * energy_norm(linear, modes)


def test_prefix_bitwise_invariance():
    # the window sum reads the zero-control run up to the window start only: with
    # every later state NaN its responses come out bitwise the same, and they
    # differ between the alphas
    cat = NonlinearityCatalog(
        f_kind="linear_growth", f_a=0.5, g_kind="rational",
        kernel_kind="exponential", kappa=0.5, gamma=1.0,
    )
    imp = ImpulseSchedule(times=(0.4, 0.7), gains=(0.05, 0.05))
    hist = _constant_history(0.2 * np.ones(4) / np.arange(1, 5) ** 2, np.zeros(4))
    cfg = _config(catalog=cat, impulses=imp, history=hist)
    traj = simulate(cfg)
    z1 = BeamState.zeros(4)
    z1.v[0] = 1.0
    for delta in (0.2, 0.165):
        y0 = traj.state_at(1.0 - delta)
        control = _steer(cfg, SteeringProblem(y0, z1, (1e-1, 1e-4)), delta)
        linear = steer_linear(y0, control)
        cut = traj.index_at(1.0 - delta)
        blind = replace(traj, w=traj.w.copy(), v=traj.v.copy())
        blind.w[cut + 1 :] = blind.v[cut + 1 :] = np.nan
        got, want = (window_response(run, control, linear) for run in (blind, traj))
        assert np.array_equal(got.w, want.w) and np.array_equal(got.v, want.v)
        assert not np.array_equal(want.v[0], want.v[1])


def _steer(config, problem, delta):
    """The control of ``problem`` on the window of length ``delta`` of the config's system."""
    return synthesize_control(problem, assemble_gramian(config.modes, config.beta, delta))


def _resume_setup(**kw):
    """A config (``kw`` changing it), its zero-control run and a problem posed at the
    start of the window of length 0.2."""
    cfg = _config(history=_constant_history(np.full(4, 0.1), np.zeros(4)), **kw)
    base = simulate(cfg)
    z1 = BeamState.zeros(4)
    z1.v[0] = 0.3
    problem = SteeringProblem(base.state_at(0.8), z1, 1e-2)
    return cfg, base, problem


def test_window_sum_rejects_a_stacked_control():
    # a window sum takes one window: the control of a stack of windows is rejected
    # in one line
    cfg, base, problem = _resume_setup()
    ends = [base.state_at(0.8), base.state_at(0.9)]
    starts = BeamState(np.stack([y.w for y in ends]), np.stack([y.v for y in ends]))
    stacked = _steer(cfg, replace(problem, y0=starts), [0.2, 0.1])
    with pytest.raises(InvalidArgumentError, match="one window, not a stack") as info:
        window_response(base, stacked, steer_linear(starts, stacked))
    assert "\n" not in str(info.value)


@pytest.mark.parametrize(
    "system", [dict(beta=3.0), dict(length=1.5), dict(n_modes=3)], ids=["beta", "length", "modes"]
)
def test_window_sum_rejects_controls_of_another_system(system):
    # a 3-mode control on the 4-mode config would fail inside numpy, the others run silently
    cfg, base, problem = _resume_setup()
    other = _config(**system)
    modes = other.modes
    z1 = BeamState.zeros(modes.count)
    z1.v[0] = 0.3
    y0 = BeamState.zeros(modes.count)
    control = _steer(other, SteeringProblem(y0, z1, 1e-2), 0.2)
    with pytest.raises(InvalidArgumentError, match="synthesized for the config's system"):
        window_response(base, control, steer_linear(y0, control))


def test_resume_takes_a_control_batch_like_a_sequence():
    # each cell of a window sum's batch equals, bitwise, its lone window sum
    catalog = NonlinearityCatalog(f_kind="bounded_trig", f_a=0.4, f_b=0.2)
    cfg, base, problem = _resume_setup(catalog=catalog)
    alphas = (1e-1, 1e-3)
    gramians = assemble_gramian(cfg.modes, BETA, 0.2)
    batch = synthesize_control(replace(problem, alpha=alphas), gramians)
    got = window_response(base, batch, steer_linear(problem.y0, batch))
    assert got.w.shape == (2, 4)
    for c, alpha in enumerate(alphas):
        lone = synthesize_control(replace(problem, alpha=alpha), gramians)
        want = window_response(base, lone, steer_linear(problem.y0, lone))
        assert np.array_equal(got.w[c], want.w[0]) and np.array_equal(got.v[c], want.v[0])
    assert not np.array_equal(got.v[0], got.v[1])


@pytest.mark.parametrize("kind", F_READS)
def test_forcing_reads_table_matches_f(kind):
    # simulate synthesizes only the arguments the table lists, so f must
    # ignore every other one and depend on each listed one
    cat = NonlinearityCatalog(f_kind=kind, f_a=0.7, f_b=0.3)
    args = np.random.default_rng(3).standard_normal((3, 50))
    base = cat.f(*args)
    for i, name in enumerate("yvu"):
        moved = args.copy()
        moved[i] += 1.0
        assert np.array_equal(cat.f(*moved), base) == (name not in F_READS[kind])


def _blowup_window():
    cfg, base, _ = _resume_setup()
    z1 = BeamState.zeros(4)
    z1.v[0] = 1e13  # far target: the weakly regularised cell needs a huge control
    problem = SteeringProblem(base.state_at(0.9), z1, (1e-1, 1e-4))
    controls = _steer(cfg, problem, 0.1)
    return base, controls, steer_linear(problem.y0, controls)


def test_blowup_in_batched_window_names_cell():
    # the sum forms no state inside the window, so the terminal states trip, at tau
    with pytest.raises(BlowUpError, match=r"at t=1\.000000 in the cell alpha=0\.0001, delta=0\.1$"):
        window_response(*_blowup_window())


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"


def _workload(name):
    return load_experiment(str(WORKLOADS / f"{name}.ini"))


def _sweep_specs():
    return [_workload("sweep-default"), _workload("sweep-long")]


def _cut_first_slab_spec():
    # an impulse 30 steps in cuts the base run's first slab, whose rows past the
    # cut are then read before any slab of the phase has written them
    return parse_experiment(DEFAULT_CONFIG.replace("times = 0.4, 0.7", "times = 0.05, 0.7"))


def _rows(spec):
    return [(r.alpha, r.delta, r.error_total, r.error_nl, r.error_lin)
            for r in run_pullback_experiment(spec)]


def _clean_rows(specs):
    """Each spec's rows from fresh held buffers, which are then left sized for all specs."""
    rows = []
    for spec in specs:
        vars(dynamics._held).clear()
        rows.append(_rows(spec))
    for spec in specs:
        _rows(spec)
    return rows


def test_warm_resumed_run_allocates_less_than_one_grid_workspace():
    # the window sum, which took over from the resumed run, forms its blocks in the
    # workspaces the base run holds, so a warm call allocates far less than one of them
    spec = _workload("sweep-long")
    config, base, target = pullback_setup(spec)
    delta = max(spec.deltas)
    assert delta / config.step >= OUTER  # the window takes more than one block
    problem = SteeringProblem(base.state_at(config.tau - delta), target, spec.alphas)
    control = _steer(config, problem, delta)
    linear = steer_linear(problem.y0, control)
    window_response(base, control, linear)
    held = dynamics._held.buffer
    window_response(base, control, linear)
    assert list(vars(dynamics._held)) == ["buffer"]  # one held buffer, kept warm
    assert dynamics._held.buffer is held
    tracemalloc.start()
    try:
        window_response(base, control, linear)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (OUTER + 1) * (config.grid_points - 1) * 8


def test_held_buffers_leak_nothing_between_calls():
    # whatever an earlier call left in the held buffers (NaN here, a blow-up's
    # infinities below) never reaches a later call's rows
    specs = [*_sweep_specs(), _cut_first_slab_spec()]
    clean = _clean_rows(specs)
    for spec, rows in zip(specs, clean):
        for buffer in vars(dynamics._held).values():
            buffer.fill(np.nan)
        assert _rows(spec) == rows
    with pytest.raises(BlowUpError):
        window_response(*_blowup_window())
    assert [_rows(spec) for spec in specs] == clean


def test_held_buffers_are_per_thread():
    # two threads sweep at once, each in its own buffers, and match the serial rows
    specs = _sweep_specs()
    clean = _clean_rows(specs)
    passes = [[] for _ in specs]

    def sweep(spec, out):
        out.extend(_rows(spec) for _ in range(10))

    threads = [threading.Thread(target=sweep, args=job) for job in zip(specs, passes)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert passes == [[rows] * 10 for rows in clean]


def test_deflection_continuity_at_impulses():
    cat = NonlinearityCatalog(f_kind="bounded_trig", f_a=0.2, f_b=0.1)
    imp = ImpulseSchedule(times=(0.4, 0.7), gains=(0.3, 0.2))
    hist = _constant_history(0.3 * np.ones(4), 0.1 * np.ones(4))
    cfg = _config(catalog=cat, impulses=imp, history=hist)
    traj = simulate(cfg)
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
    traj = simulate(cfg)
    assert len(traj.impulse_events) == 1
    k, t, size = traj.impulse_events[0]
    assert k == 0 and t == pytest.approx(0.5) and 0 < size <= 0.2


def test_rerun_with_cached_tables_builds_no_basis(monkeypatch):
    # impulses are collocated with the run's cached basis, so once the slab
    # tables of a config exist a second run makes no sine table at all
    imp = ImpulseSchedule(times=(0.4, 0.7), gains=(0.05, 0.05))
    hist = _constant_history(np.full(4, 0.5), np.zeros(4))
    cfg = _config(impulses=imp, history=hist)
    simulate(cfg)
    calls = []
    original = spectral.basis_matrix

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (spectral, dynamics):
        monkeypatch.setattr(module, "basis_matrix", counted)
    traj = simulate(cfg)
    assert len(traj.impulse_events) == 2
    assert calls == []


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
        return simulate(cfg).terminal()

    modes = laplacian_eigenvalues(1.0, 4)
    ref = terminal(1 / 800)
    e1 = energy_norm(terminal(1 / 100) - ref, modes)
    e2 = energy_norm(terminal(1 / 200) - ref, modes)
    assert 3.0 <= e1 / e2 <= 5.0


def test_blowup_guard_triggers():
    cat = NonlinearityCatalog(f_kind="linear_growth", f_a=0.0, f_b=1e14)
    cfg = _config(catalog=cat)
    with pytest.raises(BlowUpError):
        simulate(cfg)


def test_blowup_guard_trips_on_non_finite_state():
    cfg = _config(history=_constant_history(np.full(4, np.nan), np.zeros(4)))
    for run in (simulate, simulate_stepwise):
        with pytest.raises(BlowUpError, match=r"norm nan at t=0\.001667$"):
            run(cfg)


def test_blowup_guard_names_first_trip_like_stepwise_oracle():
    # a constant forcing crosses the threshold inside the first chunk
    cfg = _config(catalog=NonlinearityCatalog(f_kind="linear_growth", f_b=50 * BLOWUP_THRESHOLD))
    messages = []
    for run in (simulate, simulate_stepwise):
        with pytest.raises(BlowUpError) as err:
            run(cfg)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    trip = round(float(messages[0].rsplit("t=", 1)[1]) / cfg.step)
    assert 0 < trip < CHUNK


STEPWISE_F = {
    "zero": dict(),
    "linear_growth": dict(f_kind="linear_growth", f_a=0.5, f_b=0.1),
    "bounded_trig": dict(f_kind="bounded_trig", f_a=0.4, f_b=0.2),
}
STEPWISE_CASES = [
    # n_r = 180 is no multiple of CHUNK: slabs of 180 steps end inside their sixth
    # chunk; the impulse at 0.25 falls mid-chunk, the impulse at 0.55 and the window
    # start 0.85 end full-delay slabs, and the 90-node window runs 3 chunks
    pytest.param(f, g, 1 / 600, 0.3, 0.15, 1.0, id=f"{f}-{'mem' if g else 'nomem'}-h600")
    for f in STEPWISE_F
    for g in (None, "rational")
] + [
    # g = sin memory, on the half-angle sine in the base run's memory recursion
    pytest.param("linear_growth", "sin", 1 / 600, 0.3, 0.15, 1.0, id="linear_growth-mem_sin-h600"),
    pytest.param(
        "linear_growth", "rational", 1 / 4800, 0.3, 0.15, 1.0, id="linear_growth-mem-h4800"
    ),
    # n_r = 720 > OUTER: slabs of 8 chunks, the impulse at 0.25 lands in the
    # third slab's third chunk, the window start 0.85 208 steps into a slab
    pytest.param(
        "bounded_trig", "rational", 1 / 2400, 0.3, 0.15, 1.0, id="bounded_trig-mem-h2400"
    ),
    # n_r = 150: slabs of 150 steps end inside their fifth chunk, the impulse at
    # 0.25 and the window start end full-delay slabs, and the impulse at 0.55 cuts
    # one mid-chunk after 30 steps
    pytest.param(
        "linear_growth", "rational", 1 / 600, 0.25, 0.2, 1.0, id="linear_growth-mem-mid_chunk"
    ),
    # n_r = 6 < CHUNK: the delay bounds the chunks and the slabs
    pytest.param(
        "bounded_trig", "rational", 1 / 600, 0.01, 0.005, 1.0, id="bounded_trig-mem-short_delay"
    ),
    # the memory recursion's edges: at gamma = 0 every decay power is 1; at
    # gamma = 1e5 decay**k underflows to 0 from k = 5 on, so the chunk-start
    # table is the identity and the memory forcing is, to 1e-72 relative, the
    # last trapezoid term
    pytest.param(
        "linear_growth", "rational", 1 / 600, 0.3, 0.15, 0.0, id="linear_growth-mem-gamma0"
    ),
    pytest.param(
        "linear_growth", "rational", 1 / 600, 0.3, 0.15, 1e5, id="linear_growth-mem-gamma1e5"
    ),
]


@pytest.mark.parametrize("f_kind, g_kind, step, delay, delta, gamma", STEPWISE_CASES)
def test_slabs_match_stepwise_oracle(f_kind, g_kind, step, delay, delta, gamma):
    memory_kw = dict(g_kind=g_kind, kernel_kind="exponential", kappa=0.5, gamma=gamma)
    cat = NonlinearityCatalog(**STEPWISE_F[f_kind], **(memory_kw if g_kind else {}))
    k = np.arange(1, 5)
    hist = lambda s: (0.3 * np.cos(3 * s)[:, None] / k**2, 0.2 * np.sin(2 * s)[:, None] / k)
    imp = ImpulseSchedule(times=(0.25, 0.55), gains=(0.1, -0.05))
    cfg = _config(catalog=cat, impulses=imp, history=hist, step=step, delay=delay)
    z1 = BeamState.zeros(4)
    z1.v[0] = 0.5
    free, ref = simulate(cfg), simulate_stepwise(cfg)
    for a, b in ((free.w, ref.w), (free.v, ref.v), (free.memory, ref.memory)):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
    modes = cfg.modes
    gap = energy_norm(free.terminal() - ref.terminal(), modes)
    assert gap <= 1e-12 * energy_norm(ref.terminal(), modes)
    assert free.pre_impulse.keys() == ref.pre_impulse.keys()
    assert [e[:2] for e in free.impulse_events] == [e[:2] for e in ref.impulse_events]
    assert free.config is ref.config is cfg
    # the window sum of a batch of two cells: each cell's linear steer plus its
    # response must end where its stepwise run does, and the base run must come
    # back bitwise unchanged
    problem = SteeringProblem(free.state_at(cfg.tau - delta), z1, (1e-3, 1e-1))
    gramians = assemble_gramian(modes, BETA, delta)
    both = synthesize_control(problem, gramians)
    before = [a.tobytes() for a in (free.w, free.v, free.memory)]
    linear = steer_linear(problem.y0, both)
    response = window_response(free, both, linear)
    for c, alpha in enumerate(problem.alpha):
        control = synthesize_control(replace(problem, alpha=alpha), gramians)
        want = simulate_stepwise(cfg, control).terminal()
        got = BeamState(linear.w[c] + response.w[c], linear.v[c] + response.v[c])
        assert energy_norm(got - want, modes) <= 1e-12 * energy_norm(want, modes)
    assert [a.tobytes() for a in (free.w, free.v, free.memory)] == before


def test_slab_cut_inside_its_first_piece_matches_stepwise_oracle():
    # an impulse 30 steps in cuts the first slab inside its first collocation
    # piece, whose rows past the cut hold the workspaces' initial values: they
    # must be finite, so that the zeros above the tables' diagonals keep them out
    cat = NonlinearityCatalog(
        f_kind="linear_growth", f_a=0.5, f_b=0.1, g_kind="rational",
        kernel_kind="exponential", kappa=0.5, gamma=1.0,
    )
    hist = _constant_history(np.full(4, 0.3), np.full(4, 0.1))
    imp = ImpulseSchedule(times=(0.05,), gains=(0.1,))
    cfg = _config(catalog=cat, impulses=imp, history=hist)
    got, ref = simulate(cfg), simulate_stepwise(cfg)
    for a, b in ((got.w, ref.w), (got.v, ref.v), (got.memory, ref.memory)):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_slab_tables_cached_per_system():
    # runs on configs differing from the first only in beta, step, modes,
    # length, grid, horizon, delay or kernel rate must match runs from an empty
    # table cache, and the first config must come back bitwise after them
    cat = NonlinearityCatalog(
        f_kind="linear_growth", f_a=0.5, f_b=0.2, g_kind="rational",
        kernel_kind="exponential", kappa=0.5, gamma=1.0,
    )
    first = _config(catalog=cat)
    configs = [first] + [
        replace(first, **change)
        for change in (
            dict(beta=3.0), dict(step=1 / 1200), dict(n_modes=6), dict(length=1.5),
            dict(grid_points=96), dict(tau=1.2), dict(delay=0.25),
            dict(catalog=replace(cat, gamma=2.0)),
        )
    ]

    def run(cfg):
        free = simulate(cfg)
        z1 = BeamState.zeros(cfg.n_modes)
        y0 = free.state_at(cfg.tau - 0.2)
        z1.v[0] = 0.3
        control = _steer(cfg, SteeringProblem(y0, z1, 1e-2), 0.2)
        response = window_response(free, control, steer_linear(y0, control))
        return [free.w, free.v, free.memory, response.w, response.v]

    dynamics._slab_tables.cache_clear()
    runs = [run(cfg) for cfg in configs + [first]]
    assert all(np.array_equal(a, b) for a, b in zip(runs[0], runs[-1]))
    for cfg, cached in zip(configs[1:], runs[1:-1]):
        dynamics._slab_tables.cache_clear()
        assert all(np.array_equal(a, b) for a, b in zip(cached, run(cfg)))
    tables = dynamics._slab_tables(
        first.domain, first.n_modes, first.beta, first.step, first.tau, first.delay_steps, cat.gamma
    )
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[...] = 0.0


def test_grid_alignment_enforced():
    with pytest.raises(InvalidArgumentError):
        _config(delay=0.3, step=1 / 601)  # 0.3/step not integral
    with pytest.raises(InvalidArgumentError):
        _config(impulses=ImpulseSchedule(times=(0.35001,), gains=(0.1,)))
    with pytest.raises(InvalidArgumentError):
        _config().validate_delta(0.4)  # delta >= delay
    with pytest.raises(InvalidArgumentError):
        _config(impulses=ImpulseSchedule(times=(0.9,), gains=(0.1,))).validate_delta(0.2)


def test_config_is_frozen_and_derives_its_system():
    imp = ImpulseSchedule(times=(0.4, 0.7), gains=(0.05, 0.05))
    cfg = _config(impulses=imp)
    assert (cfg.delay_steps, cfg.horizon_steps, cfg.impulse_steps) == (180, 600, (240, 420))
    np.testing.assert_array_equal(cfg.modes.lambdas, laplacian_eigenvalues(1.0, 4).lambdas)
    assert cfg.domain == SpatialDomain(1.0, 64)
    for name, value in (("n_modes", 8), ("step", 1 / 1200), ("modes", cfg.modes)):
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, name, value)
    # replace builds a new config, which derives every fact from its own fields
    other = replace(cfg, n_modes=2, length=2.0, grid_points=32, step=1 / 1200)
    np.testing.assert_array_equal(other.modes.lambdas, laplacian_eigenvalues(2.0, 2).lambdas)
    assert other.domain == SpatialDomain(2.0, 32)
    assert (other.delay_steps, other.horizon_steps, other.impulse_steps) == (360, 1200, (480, 840))
    assert replace(cfg, n_modes=3).modes.count == 3
    with pytest.raises(ValueError):
        replace(cfg, modes=cfg.modes)  # derived, never passed in
    # the derived facts neither show in the repr nor take part in equality
    assert "lambdas" not in repr(cfg) and cfg == _config(impulses=imp)


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


def _base_run_g_rows(monkeypatch, spec):
    """Rows of every memory-integrand evaluation of the base run of ``spec``: one per slab."""
    rows, g = [], NonlinearityCatalog.g

    def counted(self, w, out=None):
        rows.append(len(w))
        return g(self, w, out=out)

    monkeypatch.setattr(NonlinearityCatalog, "g", counted)
    pullback_setup(spec)
    return rows


def test_zero_control_slabs_step_a_full_delay(monkeypatch):
    # the method of steps lets a slab step the whole delay: the default base run
    # steps 180 = delay/h steps per slab, the impulse at 0.7 cutting one after 60
    # (4 slabs, each 6 chunks of 32 wide), where 160-step slabs took 6
    spec = load_experiment(None)
    assert spec.config.delay_steps == 180 and spec.config.delay_steps % CHUNK
    assert _base_run_g_rows(monkeypatch, spec) == [181, 61, 181, 181]


def test_zero_control_slabs_past_outer_stay_outer_long(monkeypatch):
    # delay/h = 1440 > OUTER: the slabs of sweep-long step OUTER steps, cut at the
    # impulses 1920 and 3360 steps in, as before
    spec = _workload("sweep-long")
    assert spec.config.delay_steps > OUTER
    rows = _base_run_g_rows(monkeypatch, spec)
    assert rows == [OUTER + 1] * 7 + [129] + ([OUTER + 1] * 5 + [161]) * 2


def _collocation_gate(grid_points):
    """Gate on |(spacing B)^T B - I|, see test_sine_collocation_inverts_synthesis."""
    return grid_points * 2.0**-52


@pytest.mark.parametrize("grid_points, n", [(16, 8), (128, 8), (128, 64), (1024, 512)])
def test_sine_collocation_inverts_synthesis(grid_points, n):
    """The spacing-scaled projector inverts the sine synthesis on the retained modes,
    (spacing B)^T B = I for n < grid_points; grid_points = 2n is the validator's edge.

    Entry (j, k) is a sum of grid_points - 1 products spacing B_ij B_ik whose absolute
    values add up to at most 1 (Cauchy-Schwarz on the discrete orthonormality), so its
    summation error is below (grid_points - 1) 2**-53; the entries' own rounding adds
    terms of either sign.  The gate, grid_points 2**-52, is twice the summation bound;
    the largest value measured is 0.26 of it, at (128, 64) and length 1e3.
    """
    for length in (1e-3, 1.0, 3.5, 1e3):
        domain = SpatialDomain(length, grid_points)
        B = spectral.basis_matrix(domain, n)
        gap = np.abs((domain.spacing * B).T @ B - np.eye(n)).max()
        assert gap <= _collocation_gate(grid_points), length


def _spy_rows(monkeypatch, name):
    """Rows of every call of the catalog's method ``name`` from now on."""
    rows, method = [], getattr(NonlinearityCatalog, name)

    def counted(self, *args, **kwargs):
        rows.append(len(args[0]))
        return method(self, *args, **kwargs)

    monkeypatch.setattr(NonlinearityCatalog, name, counted)
    return rows


@pytest.mark.parametrize("memory", [False, True], ids=["nomem", "mem"])
def test_zero_control_linear_growth_forcing_is_affine(monkeypatch, memory):
    # at zero control linear_growth's f is f_a y + f_b, which the base run projects as
    # f_a w + f_b Bq^T 1: the last slab's forcing rows match f on the grid followed by
    # projection within the gate of test_sine_collocation_inverts_synthesis, f is never
    # called, and no grid rows are carved for f (none at all without memory)
    memory_kw = dict(g_kind="rational", kernel_kind="exponential", kappa=0.5, gamma=1.0)
    cat = NonlinearityCatalog(
        f_kind="linear_growth", f_a=0.7, f_b=0.4, **(memory_kw if memory else {})
    )
    k = np.arange(1, 5)
    hist = lambda s: (0.3 * np.cos(3 * s)[:, None] / k**2, 0.2 * np.sin(2 * s)[:, None] / k)
    imp = ImpulseSchedule(times=(0.4, 0.7), gains=(0.1, -0.05))
    cfg = _config(catalog=cat, impulses=imp, history=hist)
    held, carve = [], dynamics._carve

    def kept(*shapes):
        held[:] = carve(*shapes)
        return held

    monkeypatch.setattr(dynamics, "_carve", kept)
    calls = _spy_rows(monkeypatch, "f")
    vars(dynamics._held).clear()
    traj = simulate(cfg)
    assert calls == []
    # the held forcing rows, the first workspace, end as those of the last slab, 600..780,
    # which read the delayed rows 420..600 across both impulse nodes
    n_r, s1 = cfg.delay_steps, traj.times.size - 1
    s0 = s1 - n_r
    forcing = held[0][: n_r + 1]
    y = synthesize(traj.w[s0 - n_r : s1 - n_r + 1], cfg.domain)
    want = project(catalog_f(cat, y, 0.0, 0.0), cfg.domain, cfg.modes) + traj.memory[s0 : s1 + 1]
    assert np.abs(forcing - want).max() <= _collocation_gate(cfg.grid_points) * np.abs(want).max()
    # a grid-row workspace holds L + 1 rows, L the chunks covering a full-delay slab
    grid_rows = (-(-n_r // CHUNK) * CHUNK + 1) * (cfg.grid_points - 1)
    size = dynamics._held.buffer.size
    assert 2 * grid_rows <= size < 3 * grid_rows if memory else size < grid_rows


def test_zero_control_bounded_trig_collocates_once_per_slab(monkeypatch):
    # bounded_trig has no modal form: f is collocated on each slab's live rows, like g
    memory_kw = dict(g_kind="rational", kernel_kind="exponential", kappa=0.5, gamma=1.0)
    cat = NonlinearityCatalog(f_kind="bounded_trig", f_a=0.4, f_b=0.2, **memory_kw)
    imp = ImpulseSchedule(times=(0.4, 0.7), gains=(0.1, -0.05))
    cfg = _config(catalog=cat, impulses=imp, history=_constant_history(np.full(4, 0.3), np.zeros(4)))
    f_rows, g_rows = _spy_rows(monkeypatch, "f"), _spy_rows(monkeypatch, "g")
    simulate(cfg)
    assert f_rows == g_rows == [181, 61, 181, 181]


@pytest.mark.parametrize("name", ["sweep-default", "sweep-long", "bounded_trig"])
def test_run_bytes_estimate_bounds_the_held_bytes(monkeypatch, name):
    # check_run_bytes sizes a run before it is made: the held buffers and the base
    # run's node arrays never pass its estimate, for the base run alone and with the
    # sweep's window sums, whose blocks reuse the base run's workspaces; bounded_trig
    # is sweep-default with the f that the base run collocates, on grid rows of its own
    if name == "bounded_trig":
        text = (WORKLOADS / "sweep-default.ini").read_text()
        spec = parse_experiment(text.replace("f = linear_growth", "f = bounded_trig"))
    else:
        spec = _workload(name)
    assert (spec.config.catalog.f_kind == "bounded_trig") == (name == "bounded_trig")
    config = spec.config
    vars(dynamics._held).clear()
    _, base, _ = pullback_setup(spec)
    nodes = sum(a.base.nbytes for a in (base.w, base.v, base.memory))
    held = [nodes + sum(b.nbytes for b in vars(dynamics._held).values())]
    run_pullback_experiment(spec)
    held.append(nodes + sum(b.nbytes for b in vars(dynamics._held).values()))
    window_steps = exact_multiple(max(spec.deltas), config.step, "the window")
    for actual, args in zip(held, [(), (len(spec.alphas), window_steps)]):
        monkeypatch.setattr(dynamics, "RUN_BYTES", actual - 1)
        with pytest.raises(InvalidArgumentError, match="bytes or more"):
            config.check_run_bytes(*args)
