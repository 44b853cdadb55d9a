import configparser
import importlib.util
import os
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import beamsteer.cli as cli
import beamsteer.dynamics as dynamics
import beamsteer.gramian as gramian
import beamsteer.harness as harness
import beamsteer.semigroup as semigroup
import beamsteer.steering as steering
from beamsteer import (
    BeamState,
    ExperimentSpec,
    ImpulseSchedule,
    ModeSet,
    NonlinearityCatalog,
    ResultRow,
    SimConfig,
    SpatialDomain,
    SteeringProblem,
    assemble_gramian,
    emit_csv,
    energy_coords,
    energy_norm,
    laplacian_eigenvalues,
    make_history,
    make_random_state,
    make_target,
    parse_experiment,
    run_linear_suite,
    run_pullback_experiment,
    simulate,
    solve_regularized,
    steer_linear,
    suite_ok,
    summarize_rows,
    synthesize_control,
)
from beamsteer.config import DEFAULT_CONFIG, SCHEMA, load_experiment
from beamsteer.errors import BlowUpError, ConfigError, InvalidArgumentError
from beamsteer.gramian import PANEL_SPAN
from beamsteer.harness import (
    CROSS_PATH_TOL,
    gramian_cross_check,
    pullback_setup,
    residual_identity,
)

from blas_kernel import openblas_corename
from oracles import (
    expm_squaring,
    gauss_integral,
    window_response_extended,
    window_response_stepwise,
)


def _spec(**kw):
    catalog = kw.pop(
        "catalog",
        NonlinearityCatalog(
            f_kind="linear_growth", f_a=0.5, g_kind="rational",
            kernel_kind="exponential", kappa=0.5, gamma=1.0,
        ),
    )
    config = SimConfig(
        n_modes=kw.pop("n_modes", 4),
        length=kw.pop("length", 3.5),
        grid_points=64,
        beta=2.0,
        tau=1.0,
        delay=0.3,
        step=kw.pop("step", 1 / 600),
        catalog=catalog,
        impulses=kw.pop("impulses", ImpulseSchedule(times=(0.4, 0.7), gains=(0.05, 0.05))),
    )
    base = dict(
        config=config,
        deltas=[0.2, 0.1],
        alphas=[1e-1, 1e-3, 1e-5],
        epsilon=1e-2,
        target_kind="single_mode",
        target_scale=0.3,
        history_kind="single_mode",
        history_amplitude=0.1,
        seed=99,
    )
    base.update(kw)
    return ExperimentSpec(**base)


def test_spec_validation():
    with pytest.raises(InvalidArgumentError):
        _spec(deltas=[0.4])  # not below the delay
    with pytest.raises(InvalidArgumentError):
        _spec(alphas=[2.0])
    with pytest.raises(InvalidArgumentError):
        _spec(deltas=[])
    with pytest.raises(InvalidArgumentError):
        _spec(target_kind="mystery")


def test_rows_triangle_inequality_and_order():
    spec = _spec()
    rows = run_pullback_experiment(spec)
    assert len(rows) == 6
    for r in rows:
        assert r.error_total <= r.error_nl + r.error_lin + 1e-10
        assert r.steps == 600
    deltas = [r.delta for r in rows]
    alphas = [r.alpha for r in rows]
    assert deltas == sorted(deltas, reverse=True)
    assert alphas[:3] == sorted(alphas[:3], reverse=True)


def test_zero_catalog_rows_have_no_nonlinear_error():
    spec = _spec(catalog=NonlinearityCatalog(), impulses=ImpulseSchedule())
    rows = run_pullback_experiment(spec)
    assert all(r.error_nl <= 1e-12 for r in rows)


def test_error_nl_halving_factor():
    # memory-dominant configuration: halving the window from 0.2 to 0.1
    # shrinks the nonlinear window effect by a factor in [1.5, 3]
    spec = _spec(catalog=NonlinearityCatalog(
        g_kind="rational", kernel_kind="exponential", kappa=0.5, gamma=1.0))
    rows = run_pullback_experiment(spec)
    by = {(r.delta, r.alpha): r for r in rows}
    for alpha in (1e-1, 1e-3, 1e-5):
        ratio = by[(0.2, alpha)].error_nl / by[(0.1, alpha)].error_nl
        assert 1.5 <= ratio <= 3.0


@pytest.mark.parametrize(
    "make_spec",
    [
        lambda: load_experiment(None),
        lambda: _spec(catalog=NonlinearityCatalog(
            g_kind="rational", kernel_kind="exponential", kappa=0.5, gamma=1.0)),
        lambda: _spec(catalog=NonlinearityCatalog(
            f_kind="linear_growth", f_a=0.5, g_kind="rational")),
    ],
    ids=["default", "f_zero", "kernel_zero"],
)
def test_batched_cells_match_from_scratch_runs(make_spec):
    # every cell of the sweep, its window stepped from scratch: the row errors must
    # match the linear steer of the cell alone plus its stepped forced response
    spec = make_spec()
    config, base, target = pullback_setup(spec)
    modes = config.modes
    rows = {(r.delta, r.alpha): r for r in run_pullback_experiment(spec)}
    assert len(rows) == len(spec.deltas) * len(spec.alphas)
    for delta in spec.deltas:
        z_mid = base.state_at(config.tau - delta)
        problem = SteeringProblem(z_mid, target, spec.alphas)
        gramians = assemble_gramian(modes, config.beta, delta)
        rw, rv = window_response_stepwise(base, synthesize_control(problem, gramians))
        for c, alpha in enumerate(spec.alphas):
            control = synthesize_control(replace(problem, alpha=alpha), gramians)
            y_tau = steer_linear(z_mid, control)
            response = BeamState(rw[c], rv[c])
            row = rows[(delta, alpha)]
            np.testing.assert_allclose(
                [row.error_total, row.error_nl, row.error_lin],
                [
                    energy_norm(y_tau + response - target, modes)[0],
                    energy_norm(response, modes),
                    energy_norm(y_tau - target, modes)[0],
                ],
                rtol=1e-13,
                atol=0.0,
            )


@pytest.mark.parametrize("name", ["sweep-default", "sweep-long"])
def test_error_nl_matches_the_extended_precision_sum(name):
    # error_nl is the norm of the window sum, not the difference of two nearby
    # states: within 2e-15 of the same sum contracted in extended precision
    # (measured 6.3e-16), where the difference of the stepped states missed it by
    # up to 9.1e-12 on sweep-default and 3.1e-13 on sweep-long
    root = Path(__file__).resolve().parents[1]
    spec = load_experiment(str(root / "perfbench" / "workloads" / f"{name}.ini"))
    config, base, target = pullback_setup(spec)
    rows = {(r.delta, r.alpha): r.error_nl for r in run_pullback_experiment(spec)}
    lam = config.modes.lambdas.astype(np.longdouble)
    for delta in spec.deltas:
        z_mid = base.state_at(config.tau - delta)
        gramians = assemble_gramian(config.modes, config.beta, delta)
        rw, rv = window_response_extended(
            base, synthesize_control(SteeringProblem(z_mid, target, spec.alphas), gramians)
        )
        want = np.sqrt(np.sum((lam * rw) ** 2 + rv**2, axis=-1))
        got = np.array([rows[(delta, a)] for a in spec.alphas], dtype=np.longdouble)
        assert np.all(np.abs(got - want) <= 2e-15 * want), (delta, got / want - 1)


BATCH_SPECS = [
    lambda: load_experiment(None),
    lambda: _spec(catalog=NonlinearityCatalog(
        g_kind="rational", kernel_kind="exponential", kappa=0.5, gamma=1.0)),
    lambda: _spec(catalog=NonlinearityCatalog(
        f_kind="linear_growth", f_a=0.5, g_kind="rational")),
    # shaped like the long sweep: the window's last slab is 192 of 256 steps,
    # so its collocation products hold dead rows with one cell and with two
    lambda: _spec(step=1 / 4800, deltas=[0.2], alphas=[1e-1, 1e-5]),
]


@pytest.mark.parametrize(
    "make_spec", BATCH_SPECS, ids=["default", "f_zero", "kernel_zero", "long_clipped"]
)
def test_rows_do_not_depend_on_their_batch(make_spec):
    # a cell's row is the same, bitwise, whether its alpha runs alone or in
    # the window batch of every alpha, and whether its delta runs alone or in
    # the linear batch of every window
    spec = make_spec()
    rows = {(r.delta, r.alpha): r for r in run_pullback_experiment(spec)}
    alone = [replace(spec, alphas=[a]) for a in spec.alphas]
    alone += [replace(spec, deltas=[d]) for d in spec.deltas]
    for part in alone:
        for row in run_pullback_experiment(part):
            batched = rows[(row.delta, row.alpha)]
            assert (row.error_total, row.error_nl, row.error_lin) == (
                batched.error_total, batched.error_nl, batched.error_lin
            )


# the child checks that OPENBLAS_CORETYPE took effect, then runs the tests it is given
KERNEL_CHILD = """
import sys, pytest
from blas_kernel import openblas_corename
if openblas_corename() != sys.argv[1]:
    sys.exit(f"OPENBLAS_CORETYPE={sys.argv[1]} did not take effect: {openblas_corename()}")
sys.exit(pytest.main(sys.argv[2:]))
"""


KERNELS = [("Nehalem", None), ("Haswell", "avx2"), ("SkylakeX", "avx512f")]


def _kernel_skip(kernel, flag):
    """Why a kernel's child cannot run here, or None."""
    if openblas_corename() is None:
        return "numpy's OpenBLAS does not report its kernel"
    cpuinfo = Path("/proc/cpuinfo")
    if flag and flag not in (cpuinfo.read_text().split() if cpuinfo.exists() else ()):
        return f"this CPU lacks {flag}"
    return None


@pytest.fixture(scope="module")
def kernel_children():
    """The child of every kernel this CPU runs, all started at once."""
    root = Path(__file__).resolve().parents[1]
    paths = os.pathsep.join(str(root / d) for d in ("src", "tests"))
    tests = (test_rows_do_not_depend_on_their_batch, test_batched_cells_match_from_scratch_runs)
    children = {
        kernel: subprocess.Popen(
            [sys.executable, "-c", KERNEL_CHILD, kernel, "-q", "-p", "no:cacheprovider",
             *(f"tests/test_harness.py::{t.__name__}" for t in tests)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=root,
            env=dict(os.environ, OPENBLAS_CORETYPE=kernel, PYTHONPATH=paths),
        )
        for kernel, flag in KERNELS
        if _kernel_skip(kernel, flag) is None
    }
    yield children
    for child in children.values():  # the child of a deselected case still runs
        child.kill()
        child.communicate()


@pytest.mark.parametrize("kernel, flag", KERNELS)
def test_bitwise_contracts_hold_on_every_kernel(kernel_children, kernel, flag):
    # a blocked GEMM may round a row by the micro-tile it lands in, so the batch
    # and cut invariances rest on one result per product shape: rerun their tests
    # under each OpenBLAS kernel this CPU runs, forced for the child process
    reason = _kernel_skip(kernel, flag)
    if reason is not None:
        pytest.skip(reason)
    child = kernel_children[kernel]
    stdout, stderr = child.communicate()
    assert child.returncode == 0, stdout[-3000:] + stderr


def test_sweep_builds_its_window_table_once(monkeypatch):
    # every window of a sweep slices the one window table of its system: a
    # cold sweep over three deltas builds it once, a warm sweep not at all
    spec = load_experiment(None)
    assert len(spec.deltas) == 3
    calls = []
    original = dynamics.exp_entries

    def counted(*args, **kwargs):
        calls.append(kwargs.get("energy", False))
        return original(*args, **kwargs)

    monkeypatch.setattr(dynamics, "exp_entries", counted)
    dynamics._slab_tables.cache_clear()
    run_pullback_experiment(spec)
    assert calls.count(True) == 1
    calls.clear()
    run_pullback_experiment(spec)
    assert calls == []


def test_stacked_synthesis_matches_single_alpha_calls():
    # one stacked solve gives every alpha's eta bitwise, and one batched
    # linear steer every alpha's terminal state; a sequence of windows gives
    # every window's eta and terminal states bitwise as its single-window calls
    spec = load_experiment(None)
    config, base, target = pullback_setup(spec)
    modes = config.modes
    delta = max(spec.deltas)
    z_mid = base.state_at(config.tau - delta)
    problem = SteeringProblem(z_mid, target, spec.alphas)
    gramians = assemble_gramian(modes, config.beta, delta)
    batch = synthesize_control(problem, gramians)
    assert batch.eta.shape == (len(spec.alphas), modes.count, 2)
    assert batch.alpha == tuple(spec.alphas)
    steered = steer_linear(z_mid, batch)
    for alpha, eta, w, v in zip(spec.alphas, batch.eta, steered.w, steered.v):
        single = synthesize_control(replace(problem, alpha=alpha), gramians)
        assert np.array_equal(single.eta, eta[None])
        want = steer_linear(z_mid, single)
        assert np.array_equal(want.w[0], w) and np.array_equal(want.v[0], v)
    for deltas in (spec.deltas, spec.deltas[:1]):
        at = [base.index_at(config.tau - d) for d in deltas]
        starts = BeamState(base.w[at], base.v[at])
        stacked_set = assemble_gramian(modes, config.beta, deltas)
        for alphas in (spec.alphas, spec.alphas[0]):
            stacked = SteeringProblem(starts, target, alphas)
            controls = synthesize_control(stacked, stacked_set)
            assert controls.gramians is stacked_set
            steered = steer_linear(starts, controls)
            # a single alpha is a batch of one cell
            assert steered.w.shape == (len(deltas), np.size(alphas), modes.count)
            for i, delta in enumerate(deltas):
                y0 = BeamState(starts.w[i], starts.v[i])
                own = assemble_gramian(modes, config.beta, delta)
                single = synthesize_control(SteeringProblem(y0, target, alphas), own)
                control = controls[i]
                assert control.gramians.delta == delta
                assert control.alpha == tuple(np.atleast_1d(alphas))
                assert np.array_equal(single.eta, control.eta)
                # its own window's Gramian, and its system
                assert np.array_equal(control.gramians.blocks, own.blocks)
                assert control.gramians.modes is modes and control.gramians.beta == config.beta
                want = steer_linear(y0, single)
                assert np.array_equal(want.w, steered.w[i]) and np.array_equal(want.v, steered.v[i])


def test_stacked_windows_reject_mismatched_inputs():
    spec = load_experiment(None)
    modes = spec.config.modes
    d = len(spec.deltas)
    stacked = assemble_gramian(modes, spec.config.beta, spec.deltas)
    assert stacked.blocks.shape == (d, modes.count, 2, 2)
    assert stacked.min_eigenvalue.shape == (d,)
    with pytest.raises(InvalidArgumentError, match="rhs must have shape"):
        solve_regularized(stacked, [0.1], np.zeros((d - 1, modes.count, 2)))
    with pytest.raises(InvalidArgumentError, match="rhs must have shape"):
        solve_regularized(stacked, [0.1, 0.01], np.zeros((modes.count, 2)))
    starts = BeamState(np.zeros((d, modes.count)), np.zeros((d, modes.count)))
    target = BeamState.zeros(modes.count)
    # one start state per window of the set: not one for a stack, not a stack for one
    for y0, gramians in ((BeamState.zeros(modes.count), stacked), (starts, stacked[0])):
        with pytest.raises(InvalidArgumentError, match="one start state each"):
            synthesize_control(SteeringProblem(y0, target, 0.1), gramians)
    # a window whose Gramian lost positive definiteness is named by its delta
    blocks = stacked.blocks.copy()
    blocks[1, 3] = -blocks[1, 3]
    min_eig = np.linalg.eigvalsh(blocks)[..., 0].min(axis=-1)
    broken = replace(stacked, blocks=blocks, min_eigenvalue=min_eig)
    assert not broken.positive_definite and broken.min_eigenvalue[1] < 0
    problem = SteeringProblem(starts, target, [0.1, 0.01])
    with pytest.raises(InvalidArgumentError, match=f"delta={spec.deltas[1]:g}"):
        synthesize_control(problem, broken)


def test_library_writes_nothing_to_stdout(capfd):
    # results go to return values and files, and only the command line prints:
    # nothing reaches standard output, from Python or below it
    spec = load_experiment(None)
    run_pullback_experiment(spec)
    run_linear_suite(spec)
    assert capfd.readouterr().out == ""


def test_warm_passes_reuse_the_config_modes(monkeypatch):
    # the config derives its mode set and domain once: the config with the seeded
    # history keeps them, so neither a warm sweep nor a warm linear suite builds one
    spec = load_experiment(None)
    run_pullback_experiment(spec)
    run_linear_suite(spec)
    built = []
    for cls in (ModeSet, SpatialDomain):
        def counted(self, original=cls.__post_init__):
            built.append(self)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    run_pullback_experiment(spec)
    assert built == []
    run_linear_suite(spec)
    assert built == []


def test_config_with_history_keeps_its_system_and_compares_the_history():
    # the run's config shares the spec config's derived facts, and a config whose
    # history is another compares unequal
    spec = load_experiment(None)
    config, base, target = pullback_setup(spec)
    other, _, _ = pullback_setup(spec)
    assert config.history is not None and other.history is not config.history
    for name in ("modes", "domain", "delay_steps", "horizon_steps", "impulse_steps"):
        assert getattr(config, name) is getattr(spec.config, name)
    assert spec.config.history is None  # the spec's config is left as it was
    assert other != config  # the histories differ


def test_traced_names_resolve_in_the_package():
    # the benchmark's tracer wraps every name of TRACED; one missing from its
    # module would silently drop that function's metrics from a traced run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    found = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(found)
    found.loader.exec_module(tracing)
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"beamsteer.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_emit_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_text() == "alpha,delta,error_total,error_nl,error_lin,runtime_s,steps\n"


def test_emit_csv_ordering_and_seed(tmp_path):
    rows = [
        ResultRow(alpha, delta, 1.0, 0.5, 0.5, 0.0, 10)
        for delta in (0.1, 0.2)
        for alpha in (1e-3, 1e-1)
    ]
    path = tmp_path / "rows.csv"
    emit_csv(rows, path, seed=7)
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed=7"
    assert lines[1].startswith("alpha,delta")
    data = [line.split(",")[:2] for line in lines[2:]]
    assert data == [
        ["0.1", "0.2"],
        ["0.001", "0.2"],
        ["0.1", "0.1"],
        ["0.001", "0.1"],
    ]


def test_csv_determinism_with_injected_timer(tmp_path):
    spec = _spec()
    fake_timer = lambda: 0.0
    rows1 = run_pullback_experiment(spec, timer=fake_timer)
    rows2 = run_pullback_experiment(spec, timer=fake_timer)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(rows1, p1, seed=spec.seed)
    emit_csv(rows2, p2, seed=spec.seed)
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_csv_bad_path():
    rows = [ResultRow(0.1, 0.2, 1.0, 0.5, 0.5, 0.0, 10)]
    with pytest.raises(RuntimeError, match="no/such/dir"):
        emit_csv(rows, "no/such/dir/out.csv")


def test_summarize_rows():
    spec = _spec()
    rows = run_pullback_experiment(spec)
    summary = summarize_rows(rows, spec.epsilon)
    assert summary["error_lin_monotone"]
    assert summary["nl_slope"] >= 0
    assert len(summary["nl_ratios"]) == 3


def test_residual_identity_batch_matches_single_alphas():
    # the suite checks its three identity alphas as one batch: one value per cell,
    # each what the single-alpha problem gives
    modes = laplacian_eigenvalues(3.5, 8)
    rng = np.random.default_rng(3)
    y0, z1 = make_random_state(modes, rng, 1.0), make_random_state(modes, rng, 1.0)
    gramians = assemble_gramian(modes, 2.0, 0.2)
    q_quad, _ = gramian_cross_check(gramians)
    alphas = [1.0, 1e-2, 1e-4]
    problem = SteeringProblem(y0, z1, alphas)
    control, measured, formula = residual_identity(problem, gramians, q_quad)
    assert control.eta.shape == (3, 8, 2) and measured.shape == formula.shape == (3,)
    for k, alpha in enumerate(alphas):
        single = SteeringProblem(y0, z1, alpha)
        _, (m,), (f,) = residual_identity(single, gramians, q_quad)
        np.testing.assert_allclose([measured[k], formula[k]], [m, f], rtol=1e-14, atol=0.0)
    assert np.abs(measured - formula).max() <= CROSS_PATH_TOL


def test_linear_suite_passes_and_probe_reports_expected_failure():
    spec = _spec()
    results = run_linear_suite(spec)
    assert suite_ok(results)
    probe = [r for r in results if r.name == "degenerate_window_probe"]
    assert len(probe) == 1 and probe[0].expected_fail and probe[0].passed
    names = {r.name for r in results}
    assert "residual_identity" in names and "gramian_cross_validation" in names


def test_single_mode_pipeline_against_hand_computation():
    # N = 1: rebuild the whole steering chain with dense numpy primitives
    modes = laplacian_eigenvalues(1.0, 1)
    lam = float(modes.lambdas[0])
    beta = 2.0
    delta = 0.25
    alpha = 1e-3
    y0 = BeamState(np.array([0.4]), np.array([-0.2]))
    z1 = BeamState(np.array([0.1]), np.array([0.3]))

    K = np.array([[0.0, lam], [-lam, -2 * beta * lam]])  # energy coordinates
    b = np.array([0.0, 1.0])
    Q = gauss_integral(
        lambda s: np.outer(expm_squaring(K * s) @ b, expm_squaring(K * s) @ b),
        0.0, delta, nodes=64, panels=4,
    )
    d = np.array([lam * z1.w[0], z1.v[0]]) - expm_squaring(K * delta) @ np.array(
        [lam * y0.w[0], y0.v[0]]
    )
    eta = np.linalg.solve(alpha * np.eye(2) + Q, d)
    y_tau = expm_squaring(K * delta) @ np.array([lam * y0.w[0], y0.v[0]])
    y_tau = y_tau + gauss_integral(
        lambda s: (expm_squaring(K * s) @ b) * float(b @ (expm_squaring(K * s).T @ eta)),
        0.0, delta, nodes=64, panels=4,
    )

    gramians = assemble_gramian(modes, beta, delta)
    control = synthesize_control(SteeringProblem(y0, z1, alpha), gramians)
    np.testing.assert_allclose(control.eta[0, 0], eta, atol=1e-10)
    got = steer_linear(y0, control)
    np.testing.assert_allclose(energy_coords(got, modes)[0, 0], y_tau, atol=1e-10)


def test_make_target_presets():
    modes = laplacian_eigenvalues(1.0, 4)
    rng = np.random.default_rng(0)
    z = make_target("single_mode", modes, rng, scale=0.5, mode_index=2)
    assert z.v[1] == 0.5 and np.all(z.w == 0)
    z = make_target("random", modes, rng, scale=0.25)
    assert energy_norm(z, modes) == pytest.approx(0.25, rel=1e-12)
    free = BeamState(np.ones(4), np.ones(4))
    z = make_target("free_trajectory", modes, rng, free_point=free)
    np.testing.assert_array_equal(z.w, free.w)
    with pytest.raises(InvalidArgumentError):
        make_target("free_trajectory", modes, rng)


def test_make_history_presets():
    # each preset maps n times to (n, N) arrays matching its closed form at
    # s = -delay, an interior node and s = 0
    modes = laplacian_eigenvalues(1.0, 4)
    delay, amp = 0.3, 0.5
    freq = np.pi / (2.0 * delay)
    s = np.array([-delay, -0.1, 0.0])

    w, v = make_history("zero", amp, delay, modes, np.random.default_rng(0))(s)
    assert w.shape == v.shape == (3, 4)
    assert not np.any(w) and not np.any(v)

    w, v = make_history("single_mode", amp, delay, modes, np.random.default_rng(0), 2)(s)
    assert w.shape == v.shape == (3, 4)
    np.testing.assert_allclose(w[:, 1], amp * np.cos(freq * s), rtol=1e-15, atol=1e-16)
    np.testing.assert_allclose(v[:, 1], -amp * freq * np.sin(freq * s), rtol=1e-15)
    assert w[0, 1] == pytest.approx(0.0, abs=1e-15) and w[2, 1] == pytest.approx(amp)
    assert v[0, 1] == pytest.approx(amp * freq) and v[2, 1] == 0.0
    assert not np.any(np.delete(w, 1, axis=1)) and not np.any(np.delete(v, 1, axis=1))

    w, v = make_history("random", amp, delay, modes, np.random.default_rng(7))(s)
    assert w.shape == v.shape == (3, 4)
    rng = np.random.default_rng(7)
    anchor = make_random_state(modes, rng, amp)
    wobble = make_random_state(modes, rng, 0.5 * amp)
    for row, wave in zip(range(3), np.sin(freq * s)):
        np.testing.assert_allclose(w[row], anchor.w + wave * wobble.w, rtol=1e-15)
        np.testing.assert_allclose(v[row], anchor.v + wave * wobble.v, rtol=1e-15)
    np.testing.assert_allclose(w[0], anchor.w - wobble.w, rtol=1e-15)
    np.testing.assert_array_equal(w[2], anchor.w)
    assert energy_norm(BeamState(w[2], v[2]), modes) == pytest.approx(amp)


def test_free_trajectory_target_experiment():
    spec = _spec(target_kind="free_trajectory")
    rows = run_pullback_experiment(spec)
    # steering towards the base run's own terminal point: tiny corrections
    assert min(r.error_total for r in rows) < 1e-2


def test_config_default_parses():
    spec = load_experiment(None)
    assert spec.config.n_modes == 8
    assert spec.config.length == 3.5
    assert spec.deltas == [0.2, 0.1, 0.05]
    assert spec.seed == 20240811


def test_config_seed_override():
    spec = load_experiment(None, seed_override=123)
    assert spec.seed == 123


# (default line, replacement, a word of the error): values the validator must
# reject; NaN passes every comparison of the form `x < 0`
CONFIG_VIOLATIONS = [
    ("history_mode = 1", "history_mode = 0", "history_mode"),
    ("history_mode = 1", "history_mode = 9", "history_mode"),
    ("kappa = 0.5", "kappa = nan", "catalog"),
    ("f_a = 0.5", "f_a = nan", "catalog"),
    ("f_b = 0.0", "f_b = nan", "catalog"),
    ("gamma = 1.0", "gamma = nan", "catalog"),
    ("gains = 0.05, 0.05", "gains = 0.05, nan", "gains"),
    ("epsilon = 0.01", "epsilon = nan", "epsilon"),
    ("target_scale = 0.3", "target_scale = nan", "target_scale"),
    ("history_amplitude = 0.1", "history_amplitude = nan", "history_amplitude"),
    ("length = 3.5", "length = -1", "length"),
    # infinities pass every comparison of the form `x >= 0`
    ("f_a = 0.5", "f_a = inf", "catalog"),
    ("gamma = 1.0", "gamma = inf", "catalog"),
    ("beta = 2.0", "beta = inf", "damping"),
    ("length = 3.5", "length = inf", "length"),
    ("tau = 1.0", "tau = inf", "tau"),
    ("epsilon = 0.01", "epsilon = inf", "epsilon"),
    # a misspelt key or section would silently fall back to its default
    ("kappa = 0.5", "kapa = 0.5", "kapa"),
    ("[impulses]", "[impulse]", "impulse"),
    # configparser folds [DEFAULT] into every section unless told otherwise
    ("[impulses]", "[DEFAULT]", "DEFAULT"),
    # a repeated grid value gave duplicate rows and a false monotonicity failure
    ("alphas = 0.1, 0.01, 0.001, 0.0001, 0.00001", "alphas = 0.1, 0.1, 0.01",
     "alphas repeat the value 0.1"),
    ("deltas = 0.2, 0.1, 0.05", "deltas = 0.2, 0.2", "deltas repeat the value 0.2"),
]


def _violating(line, replacement):
    assert DEFAULT_CONFIG.count(line) == 1
    return DEFAULT_CONFIG.replace(line, replacement)


def test_config_violations_named():
    bad = DEFAULT_CONFIG.replace("deltas = 0.2, 0.1, 0.05", "deltas = 0.5")
    with pytest.raises(ConfigError, match="delay"):
        parse_experiment(bad)
    bad = DEFAULT_CONFIG.replace("beta = 2.0", "beta = 0.5")
    with pytest.raises(ConfigError, match="damping"):
        parse_experiment(bad)
    bad = DEFAULT_CONFIG.replace("times = 0.4, 0.7", "times = 0.4, oops")
    with pytest.raises(ConfigError):
        parse_experiment(bad)
    for line, replacement, word in CONFIG_VIOLATIONS:
        with pytest.raises(ConfigError, match=word):
            parse_experiment(_violating(line, replacement))
    with pytest.raises(ConfigError, match=r"^unknown configuration section \[DEFAULT\]$"):
        parse_experiment("[DEFAULT]\nx = 1\n" + DEFAULT_CONFIG)


def test_config_left_out_keys_take_the_dataclass_defaults():
    spec = parse_experiment("[simulation]\n[catalog]\n[sweep]\ndeltas = 0.2\nalphas = 0.1\n")
    assert spec == ExperimentSpec(SimConfig(), deltas=[0.2], alphas=[0.1])
    assert spec.history_kind == "zero" and spec.history_amplitude == 0.0


def test_default_config_sets_every_schema_key_in_its_field():
    spec = load_experiment(None)
    owners = {
        "config": spec.config, "catalog": spec.config.catalog,
        "impulses": spec.config.impulses, "spec": spec,
    }
    parser = configparser.ConfigParser()
    parser.read_string(DEFAULT_CONFIG)
    assert parser.sections() == list(SCHEMA)
    targets = [entry[:2] for keys in SCHEMA.values() for entry in keys.values()]
    assert len(set(targets)) == len(targets)
    for name, keys in SCHEMA.items():
        assert set(parser[name]) == set(keys)
        for key, (owner, field, parse) in keys.items():
            want = parse(parser[name][key])
            assert getattr(owners[owner], field) == (tuple(want) if owner == "impulses" else want)


def test_config_missing_section():
    with pytest.raises(ConfigError, match="section"):
        parse_experiment("[simulation]\nmodes = 4\n")


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(DEFAULT_CONFIG)
    spec = load_experiment(str(path))
    assert spec.config.beta == 2.0
    with pytest.raises(ConfigError):
        load_experiment(str(tmp_path / "missing.ini"))


def test_cli_linear_check():
    assert cli.main(["linear-check", "--quiet"]) == 0


def test_cli_gramian_check():
    assert cli.main(["gramian-check", "--quiet"]) == 0


@pytest.mark.parametrize(
    "lines",
    [
        ["beta = 1.0"],
        ["beta = 1.000002"],
        ["beta = 1.01"],
        ["length = 20"],
        ["beta = 1e5"],
        ["beta = 1e8"],
        ["length = 0.05", "modes = 32"],
    ],
    ids=["beta1", "beta1+2e-6", "beta1.01", "L20", "beta1e5", "beta1e8", "L0.05-N32"],
)
def test_cli_checks_pass_at_critical_damping_and_soft_spectrum(tmp_path, lines):
    # the last three are stiff: the cross-check's quadrature panels are graded
    # from s = 0, so their count grows only like log(|r2| delta)
    rows = DEFAULT_CONFIG.splitlines()
    for line in lines:
        key = line.split(" = ")[0]
        rows = [line if row.startswith(key + " = ") else row for row in rows]
    path = tmp_path / "c.ini"
    path.write_text("\n".join(rows))
    t0 = time.perf_counter()
    for command in ("linear-check", "gramian-check", "steer"):
        assert cli.main([command, "--config", str(path), "--quiet"]) == 0
    assert time.perf_counter() - t0 < 1.0


def test_cli_gramian_check_and_steer_pass_at_huge_damping(tmp_path):
    # sqrt(beta - 1) sqrt(beta + 1) stays finite where (beta - 1)(beta + 1) overflows
    path = tmp_path / "c.ini"
    path.write_text(_violating("beta = 2.0", "beta = 1e160"))
    for command in ("gramian-check", "steer"):
        assert cli.main([command, "--config", str(path), "--quiet"]) == 0


@pytest.mark.parametrize(
    "line, replacement",
    [
        ("f_a = 0.5", "f_a = 1e300"),
        ("history_amplitude = 0.1", "history_amplitude = 1e300"),
        ("gains = 0.05, 0.05", "gains = 1e300, 0.05"),
    ],
    ids=["f_a", "history_amplitude", "gains"],
)
def test_overflow_blowup_raises_blowup_error(line, replacement):
    # the suite turns warnings into errors, so an overflow warning would escape first
    with pytest.raises(BlowUpError, match="trajectory norm inf"):
        run_pullback_experiment(parse_experiment(_violating(line, replacement)))


def test_cli_steer():
    assert cli.main(["steer", "--quiet"]) == 0


@pytest.mark.parametrize("scale", ["1", "1e3", "1e12"])
def test_cli_steer_gates_the_identity_relative_to_the_residual(tmp_path, monkeypatch, scale):
    # the identity's gap grows with the residual (2.6e-12 on a residual of 17.9 at
    # 1e3): it holds at every admitted scale, and a q_quad off by 1e-10 still fails
    path = tmp_path / "c.ini"
    path.write_text(
        _violating("target_scale = 0.3", f"target_scale = {scale}").replace(
            "target = single_mode", "target = random"
        )
    )
    assert cli.main(["steer", "--config", str(path), "--quiet"]) == 0
    original = cli.gramian_cross_check

    def perturbed(*args, **kwargs):
        q_quad, cross = original(*args, **kwargs)
        return q_quad * (1 + 1e-10), cross

    monkeypatch.setattr(cli, "gramian_cross_check", perturbed)
    assert cli.main(["steer", "--config", str(path), "--quiet"]) == 1


def test_cli_steer_reports_free_trajectory_target_as_invalid(tmp_path, capsys):
    # steer has no base run to take the free-trajectory target from
    path = tmp_path / "free.ini"
    path.write_text(DEFAULT_CONFIG.replace("target = single_mode", "target = free_trajectory"))
    assert cli.main(["steer", "--config", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:") and "free-trajectory" in err
    for command in ("linear-check", "gramian-check", "sweep"):
        out = tmp_path / f"{command}.csv"
        assert cli.main([command, "--config", str(path), "--out", str(out), "--quiet"]) == 0


def test_cli_invalid_config(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text(DEFAULT_CONFIG.replace("beta = 2.0", "beta = 0.5"))
    assert cli.main(["linear-check", "--config", str(bad), "--quiet"]) == 2


def test_cli_critical_damping_runs_and_underdamping_exits_2(tmp_path, monkeypatch, capsys):
    # the damping cases pin the entry point in fresh interpreters, for exits 0 and 2
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for beta, code in (("1.0", 0), ("1.0000005", 0), ("0.5", 2), ("nan", 2)):
        run_dir = tmp_path / beta
        run_dir.mkdir()
        (run_dir / "c.ini").write_text(DEFAULT_CONFIG.replace("beta = 2.0", f"beta = {beta}"))
        proc = subprocess.run(
            [sys.executable, "-m", "beamsteer", "sweep", "--config", "c.ini", "--quiet"],
            capture_output=True, text=True, cwd=run_dir, env=env,
        )
        assert proc.returncode == code, (beta, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert (run_dir / "pullback.csv").exists() == (code == 0)
        if code:
            assert proc.stderr.startswith("invalid configuration: damping coefficient")
    # the violations run in process: an uncaught exception or a warning fails the test
    for k, (line, replacement, word) in enumerate(CONFIG_VIOLATIONS):
        run_dir = tmp_path / f"violation{k}"
        run_dir.mkdir()
        (run_dir / "c.ini").write_text(_violating(line, replacement))
        monkeypatch.chdir(run_dir)
        code = cli.main(["sweep", "--config", "c.ini", "--quiet"])
        err = capsys.readouterr().err
        assert code == 2, (replacement, err)
        assert err.startswith("invalid configuration:") and word in err
        assert err.count("\n") == 1 and err.endswith("\n"), err  # one line
        assert "Traceback" not in err
        assert not (run_dir / "pullback.csv").exists()


def test_cli_sweep_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--quiet", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# seed=20240811"
    assert len(lines) == 2 + 15  # comment, header, 3 deltas x 5 alphas


def test_cli_pullback(tmp_path):
    out = tmp_path / "cell.csv"
    assert cli.main(["pullback", "--quiet", "--out", str(out)]) == 0
    assert out.exists()


# case -> (arguments, config text or None, exit code, start of the one stderr line)
CLI_FAILURES = {
    "seed_flag_sweep": (["sweep", "--seed", "-1"], None, 2, "invalid configuration: seed"),
    "seed_flag_linear_check": (
        ["linear-check", "--seed", "-3"], None, 2, "invalid configuration: seed"
    ),
    "seed_file": (
        ["sweep"], _violating("seed = 20240811", "seed = -1"), 2, "invalid configuration: seed"
    ),
    "out_sweep": (
        ["sweep", "--out", "missing/x.csv"], None, 1, "error: could not write CSV to missing/x.csv"
    ),
    "out_pullback": (
        ["pullback", "--out", "missing/x.csv"], None, 1,
        "error: could not write CSV to missing/x.csv",
    ),
    "unknown_key": (
        ["sweep"], _violating("kappa = 0.5", "kapa = 0.5"), 2,
        "invalid configuration: unknown key 'kapa'",
    ),
    "blowup": (["sweep"], _violating("f_b = 0.0", "f_b = 1e14"), 1, "error: trajectory norm"),
    # a blow-up by overflow used to print numpy's warnings first
    "blowup_overflow": (
        ["sweep"], _violating("f_a = 0.5", "f_a = 1e300"), 1, "error: trajectory norm inf"
    ),
    # damping past 1e154 used to overflow beta**2 - 1: a false blow-up or a traceback;
    # at 1e300 the Gramian underflows to zero
    "huge_beta_sweep": (
        ["sweep"], _violating("beta = 2.0", "beta = 1e300"), 1,
        "error: Gramian is not positive definite on the window delta=0.2",
    ),
    "huge_beta_linear_check": (
        ["linear-check"], _violating("beta = 2.0", "beta = 1e300"), 1,
        "error: Gramian is not positive definite on the window delta=0.2",
    ),
    # values are read as written: a % used to end in an interpolation traceback
    "percent_value": (
        ["sweep"], _violating("beta = 2.0", "beta = 2%"), 2,
        "invalid configuration: invalid numeric value",
    ),
    # the stiffest mode's generator overflows: lambda_8**2 at L = 2e-76 (a false
    # blow-up), lambda_8 itself at L = 1e-160 and 2 beta lambda_8 at beta = 1e300,
    # L = 1e-3 (tracebacks)
    "stiff_length_sweep": (
        ["sweep"], _violating("length = 3.5", "length = 2e-76"), 2,
        "invalid configuration: the generator of mode 8 overflows",
    ),
    "stiffer_length_linear_check": (
        ["linear-check"], _violating("length = 3.5", "length = 1e-160"), 2,
        "invalid configuration: the generator of mode 8 overflows",
    ),
    "stiff_damping_gramian_check": (
        ["gramian-check"],
        _violating("length = 3.5", "length = 1e-3").replace("beta = 2.0", "beta = 1e300"), 2,
        "invalid configuration: the generator of mode 8 overflows",
    ),
    # a random target of this size used to overflow its norms: numpy's warnings,
    # then an infinite terminal error and a NaN identity gap
    "huge_target_scale_steer": (
        ["steer"],
        _violating("target_scale = 0.3", "target_scale = 1e300").replace(
            "target = single_mode", "target = random"
        ), 2,
        "invalid configuration: target_scale",
    ),
    # a file that is not UTF-8 used to end in a UnicodeDecodeError traceback
    "non_utf8_config": (
        ["sweep"], b"\xff" + DEFAULT_CONFIG.encode(), 2,
        "invalid configuration: could not read configuration c.ini: 'utf-8' codec",
    ),
    # configparser's messages run over several lines: each is one, with its line number
    "missing_section_header": (
        ["sweep"], "modes = 8\n" + DEFAULT_CONFIG, 2,
        "invalid configuration: malformed configuration: File contains no section headers."
        " file: '<string>', line: 1 'modes = 8\\n'",
    ),
    "indented_continuation": (
        ["sweep"], _violating("[simulation]\n", "[simulation]\n  indented\n"), 2,
        "invalid configuration: malformed configuration: Source contains parsing errors:"
        " '<string>' [line  2]: '  indented\\n'",
    ),
}


def _cli_case(tmp_path, case):
    """The case's arguments, with its config file, text or bytes, written to ``tmp_path``."""
    argv, text, code, prefix = CLI_FAILURES[case]
    if text is not None:
        (tmp_path / "c.ini").write_bytes(text if isinstance(text, bytes) else text.encode())
        argv = argv + ["--config", "c.ini"]
    return [*argv, "--quiet"], code, prefix


@pytest.mark.parametrize("case", CLI_FAILURES)
def test_cli_failure_contract(tmp_path, monkeypatch, capsys, case):
    # every failure ends with its exit code and one stderr line, no traceback; in
    # process, an uncaught exception or a warning fails the test
    argv, code, prefix = _cli_case(tmp_path, case)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["sweep"], ["pullback"], ["sweep", "--config", "out.ini"]])
def test_missing_csv_folder_fails_before_any_run(tmp_path, monkeypatch, capsys, argv):
    # the CSV path is checked before the base run, a folder that does not exist and a
    # path that names a directory alike: no simulate call, and the one stderr line and
    # exit code that the late write would give
    calls, simulate = [], harness.simulate
    monkeypatch.setattr(harness, "simulate", lambda *a, **k: calls.append(a) or simulate(*a, **k))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").mkdir()
    for path in ("missing/x.csv", "taken"):
        (tmp_path / "out.ini").write_text(_violating("out = pullback.csv", f"out = {path}"))
        out = [] if "--config" in argv else ["--out", path]
        assert cli.main([*argv, *out, "--quiet"]) == 1
        with pytest.raises(RuntimeError) as late:
            emit_csv([], path)
        assert capsys.readouterr().err == f"error: {late.value}\n"
    assert calls == [] and sorted(p.name for p in tmp_path.iterdir()) == ["out.ini", "taken"]
    assert not any((tmp_path / "taken").iterdir())


@pytest.mark.parametrize("command", ["sweep", "pullback"])
def test_failed_run_leaves_no_csv(tmp_path, monkeypatch, capsys, command):
    # a folder that exists passes the early check; a run that then blows up writes nothing
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.ini").write_text(_violating("f_b = 0.0", "f_b = 1e14"))
    assert cli.main([command, "--config", "c.ini", "--out", "x.csv", "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error: trajectory norm")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("case", ["gramian_check", "huge_beta_linear_check", "seed_flag_sweep"])
def test_cli_entry_point_exit_codes(tmp_path, case):
    # python -m beamsteer ends its process with each exit code: 0, 1 and 2
    if case == "gramian_check":
        argv, code, prefix = ["gramian-check", "--quiet"], 0, ""
    else:
        argv, code, prefix = _cli_case(tmp_path, case)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "beamsteer", *argv],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == (code > 0), proc.stderr
    assert "Traceback" not in proc.stderr


def test_sweep_without_draws_never_imports_numpy_random(tmp_path):
    # pytest and hypothesis import numpy.random themselves, so a fresh interpreter
    # runs the default config, whose presets draw nothing; steer always draws
    script = (
        "import sys\n"
        "from beamsteer import cli\n"
        "assert cli.main(['sweep', '--quiet', '--out', 'sweep.csv']) == 0\n"
        "assert cli.main(['pullback', '--quiet']) == 0\n"
        "print('numpy.random' in sys.modules)\n"
        "assert cli.main(['steer', '--quiet']) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_linear_check_never_imports_numpy_polynomial(tmp_path):
    # pytest imports numpy.polynomial itself, so a fresh interpreter runs the two
    # commands that take the Gauss rule
    script = (
        "import sys\n"
        "from beamsteer import cli\n"
        "assert cli.main(['linear-check', '--quiet']) == 0\n"
        "assert cli.main(['gramian-check', '--quiet']) == 0\n"
        "print('numpy.polynomial' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


LAPACK = ("solve", "eigvalsh", "eigh", "eig", "inv", "lstsq", "cholesky", "svd")


@pytest.mark.parametrize("workload", [None, "sweep-default", "sweep-long", "steer-wide"])
def test_production_paths_call_no_lapack(monkeypatch, workload):
    # the 2x2 algebra and the Gauss rule are closed form: with numpy's LAPACK
    # routines and leggauss made to raise, and the rule rebuilt under that guard,
    # the sweep and the linear suite still pass
    root = Path(__file__).resolve().parents[1]
    spec = load_experiment(workload and str(root / "perfbench" / "workloads" / f"{workload}.ini"))

    def refuse(*args, **kwargs):
        raise AssertionError("a production path called LAPACK or leggauss")

    for name in LAPACK:
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    monkeypatch.setattr(gramian, "_gauss_rule", gramian._gauss_rule.__wrapped__)
    summary = summarize_rows(run_pullback_experiment(spec), spec.epsilon)
    assert summary["goal_met"] and summary["error_lin_monotone"]
    assert suite_ok(run_linear_suite(spec))


@pytest.mark.parametrize("target_kind", ["single_mode", "random", "free_trajectory"])
@pytest.mark.parametrize("history_kind", ["zero", "single_mode", "random"])
def test_pullback_setup_draws_history_then_target(history_kind, target_kind):
    # the generator is built only when a preset draws, yet every pair sees the
    # stream of one eager default_rng(seed): the history's draws first, then the target's
    spec = _spec(history_kind=history_kind, target_kind=target_kind)
    config, base, target = pullback_setup(spec)
    modes, delay = spec.config.modes, spec.config.delay
    rng = np.random.default_rng(spec.seed)
    history = make_history(
        history_kind, spec.history_amplitude, delay, modes, rng, spec.history_mode
    )
    want_base = simulate(replace(spec.config, history=history))
    want = make_target(
        target_kind, modes, rng, spec.target_scale, spec.target_mode, want_base.terminal()
    )
    s = np.linspace(-delay, 0.0, 181)
    for got, expected in zip(config.history(s), history(s)):
        np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(base.w, want_base.w)
    np.testing.assert_array_equal(target.w, want.w)
    np.testing.assert_array_equal(target.v, want.v)


@pytest.mark.parametrize(
    "length, beta, outside",
    [("2.59e-76", "2.0", 2.57e-76), ("0.00375", "1e300", 0.00374)],
    ids=["lambda_squared", "beta_lambda"],
)
def test_generator_limit_admits_a_config_just_inside(tmp_path, length, beta, outside):
    # just inside the limit on 2 lambda_8**2 (near 1.77e308), or on 4 beta lambda_8
    # (near 1.797e308), the Gramian underflows and the run ends with one error line
    text = _violating("length = 3.5", f"length = {length}").replace("beta = 2.0", f"beta = {beta}")
    (tmp_path / "c.ini").write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "beamsteer", "linear-check", "--config", "c.ini", "--quiet"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "error: Gramian is not positive definite on the window delta=0.2\n"
    with pytest.raises(InvalidArgumentError, match="the generator of mode 8 overflows"):
        SimConfig(n_modes=8, length=outside, beta=float(beta))


def test_config_values_are_read_as_written(tmp_path, monkeypatch):
    # no % interpolation: the out path of the file is the file's name
    path = tmp_path / "c.ini"
    path.write_text(_violating("out = pullback.csv", "out = run%1.csv"))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["sweep", "--config", str(path), "--quiet"]) == 0
    assert (tmp_path / "run%1.csv").exists()


def test_linear_suite_synthesizes_its_alpha_grid_once(monkeypatch):
    # one synthesis of the alpha grid serves the residual identity, the alpha sweep
    # and the minimum-energy identity; the zero-mismatch probe makes the other
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads" / "steer-wide.ini"
    spec = load_experiment(str(path))
    calls, original = [], steering.synthesize_control
    sweeping = []

    def counted(*args, **kwargs):
        calls.append(bool(sweeping))
        return original(*args, **kwargs)

    def sweep(*args, **kwargs):
        sweeping.append(True)
        try:
            return steering.alpha_sweep(*args, **kwargs)
        finally:
            sweeping.pop()

    monkeypatch.setattr(steering, "synthesize_control", counted)
    monkeypatch.setattr(harness, "synthesize_control", counted)
    monkeypatch.setattr(harness, "alpha_sweep", sweep)
    assert suite_ok(run_linear_suite(spec))
    assert calls == [False, False]


def _steer_wide():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads" / "steer-wide.ini"
    return load_experiment(str(path))


def _count_time_shapes(monkeypatch, calls):
    """Record in ``calls`` the shape of the times of every closed-form Gramian evaluation,
    every propagator of a Gramian set and every evaluation of ``apply_semigroup``."""
    for module, name, key in [
        (gramian, "gramian_entries", "gramian_entries"),
        (gramian, "exp_entries", "propagator"),
        (semigroup, "exp_entries", "apply_semigroup"),  # whichever module calls it
    ]:
        def counted(*args, original=getattr(module, name), key=key):
            calls.setdefault(key, []).append(np.shape(args[2]))
            return original(*args)

        monkeypatch.setattr(module, name, counted)


def test_linear_suite_evaluates_each_quantity_once(monkeypatch):
    # one closed-form Gramian evaluation (the checked window stacked with the
    # probe), T(delta) formed once by the checked window's set and the semigroup
    # never evaluated again, and a quadrature on real panels only: 64 nodes on
    # each of the sum over modes of its panel count
    spec = _steer_wide()
    calls, nodes = {}, []
    _count_time_shapes(monkeypatch, calls)
    response = gramian._response

    def recorded(lam, beta, s):
        nodes.append(s)
        return response(lam, beta, s)

    monkeypatch.setattr(gramian, "_response", recorded)
    assert suite_ok(run_linear_suite(spec))
    assert calls == {"gramian_entries": [(2, 1)], "propagator": [(1,)]}
    (s,) = nodes
    lam, beta, delta = spec.config.modes.lambdas, spec.config.beta, max(spec.deltas)
    root = np.sqrt(beta**2 - 1.0)
    first = PANEL_SPAN / (2.0 * lam * (beta + root))  # the width that |2 r2| spans PANEL_SPAN
    panels = np.maximum(1, np.ceil(np.log2(delta / first + 1.0))).astype(int)
    assert panels.sum() == 102 and s.shape == (102, 64)
    assert np.all(s[:, -1] > s[:, 0])  # no panel of zero width


def test_sweep_evaluates_each_quantity_once(monkeypatch):
    # a warm sweep assembles its stacked Gramian set once, in one closed-form
    # evaluation, and forms the stacked set's T(delta) once, for all three windows:
    # synthesis and steer both apply it, and no call evaluates the semigroup again
    spec = load_experiment(None)
    run_pullback_experiment(spec)
    calls = {}
    _count_time_shapes(monkeypatch, calls)
    run_pullback_experiment(spec)
    assert calls == {"gramian_entries": [(3, 1)], "propagator": [(3, 1)]}


def test_stacked_probe_leaves_the_checked_window_bitwise():
    # the checked window of the stacked evaluation is that window's set alone,
    # blocks and min eigenvalue bit for bit; the zero-length probe stays singular
    spec = _steer_wide()
    modes, beta = spec.config.modes, spec.config.beta
    delta = max(spec.deltas)
    stacked = assemble_gramian(modes, beta, [delta, 0.0])
    alone = assemble_gramian(modes, beta, delta)
    np.testing.assert_array_equal(stacked[0].blocks, alone.blocks)
    assert stacked[0].min_eigenvalue == alone.min_eigenvalue
    assert stacked[0].positive_definite and not stacked[1].positive_definite
    results = {r.name: r for r in run_linear_suite(spec)}
    assert results["gramian_positive_definite"].measured == alone.min_eigenvalue
    probe = results["degenerate_window_probe"]
    assert probe.passed and probe.expected_fail and probe.measured == 0.0


@pytest.mark.parametrize(
    "line, replacement",
    [("beta = 2.0", "beta = 1e8"), ("length = 3.5", "length = 0.05")],
    ids=["beta1e8", "length0.05"],
)
def test_gramian_check_holds_the_cross_path_gap_on_stiff_configs(
    tmp_path, capsys, line, replacement
):
    # the configs whose graded quadrature used to carry the most padded panels
    path = tmp_path / "c.ini"
    path.write_text(_violating(line, replacement).replace("modes = 8", "modes = 32"))
    assert cli.main(["gramian-check", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    gaps = [float(text.rsplit("cross_path_rel_gap=", 1)[1]) for text in lines]
    assert len(gaps) == 3 and max(gaps) <= CROSS_PATH_TOL


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_delay_of_no_finite_step_count_is_one_config_line(tmp_path, capsys, command):
    # delay / step overflows to inf, which used to end in an OverflowError traceback
    path = tmp_path / "c.ini"
    path.write_text(_violating("delay = 0.3", "delay = 1e308"))
    assert cli.main([command, "--config", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == "invalid configuration: the delay is not a finite number of steps\n"


@pytest.mark.parametrize(
    "line, replacement",
    [
        ("delay = 0.3", "delay = 1e300"),
        ("step = 0.0016666666666666668", "step = 1e-300"),
        ("step = 0.0016666666666666668", "step = 1e-308"),
        ("grid_points = 128", "grid_points = 1000000000"),
    ],
    ids=["delay", "step", "subnormal_step", "grid_points"],
)
def test_config_past_the_run_budget_is_one_config_line(tmp_path, capsys, line, replacement):
    # arrays that numpy cannot size, or this machine cannot hold, used to be tried
    # by sweep and pullback: the config is rejected before anything is allocated
    text = _violating(line, replacement)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"needs 2\*\*\d+ bytes or more, past 1073741824"):
            parse_experiment(text)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    (tmp_path / "c.ini").write_text(text)
    assert cli.main(["sweep", "--config", str(tmp_path / "c.ini"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: a run needs") and err.count("\n") == 1


def test_shipped_configs_stay_far_inside_the_run_budget(monkeypatch):
    # the default config and every benchmark workload pass a hundredth of the budget
    monkeypatch.setattr(dynamics, "RUN_BYTES", dynamics.RUN_BYTES // 100)
    root = Path(__file__).resolve().parents[1]
    workloads = sorted((root / "perfbench" / "workloads").glob("*.ini"))
    assert len(workloads) == 3
    for path in [None, *workloads]:
        load_experiment(path and str(path))


def test_sweep_past_the_run_budget_is_one_config_line(tmp_path, capsys):
    # one cell of this grid fits the budget, but the sweep's window run holds its
    # grid workspaces and node arrays once per alpha: rejected before any allocation
    line = "alphas = 0.1, 0.01, 0.001, 0.0001, 0.00001"
    big = _violating("grid_points = 128", "grid_points = 100000")
    assert parse_experiment(big.replace(line, "alphas = 0.1")).alphas == [0.1]  # one cell fits
    text = big.replace(line, "alphas = " + ", ".join(f"1e-{k}" for k in range(11)))
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"^a window run of 11 cells needs 2\*\*30 bytes"):
            parse_experiment(text)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    (tmp_path / "c.ini").write_text(text)
    assert cli.main(["sweep", "--config", str(tmp_path / "c.ini"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: a window run") and err.count("\n") == 1


def test_sweep_budget_counts_the_base_run(tmp_path, capsys):
    # the window sum of 700 cells alone fits (about 350 MiB of blocks), but the base run's
    # W, V, memory and tables (about 743 MiB) stay alive through it: together past the budget
    text = DEFAULT_CONFIG
    for line, replacement in [
        ("modes = 8", "modes = 64"),
        ("tau = 1.0", "tau = 50"),
        ("step = 0.0016666666666666668", "step = 0.0001"),
        ("[impulses]\ntimes = 0.4, 0.7\ngains = 0.05, 0.05\n", ""),
        ("deltas = 0.2, 0.1, 0.05", "deltas = 0.29"),
        ("alphas = 0.1, 0.01, 0.001, 0.0001, 0.00001",
         "alphas = " + ", ".join(f"{k / 700:.17g}" for k in range(1, 701))),
    ]:
        assert text.count(line) == 1
        text = text.replace(line, replacement)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"^a window run of 700 cells needs 2\*\*30 bytes"):
            parse_experiment(text)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    (tmp_path / "c.ini").write_text(text)
    assert cli.main(["sweep", "--config", str(tmp_path / "c.ini"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: a window run") and err.count("\n") == 1


class _CountedFloat(float):
    """A float that counts its equality tests, and fails past a linear number of them."""

    tests = 0

    def __eq__(self, other):
        _CountedFloat.tests += 1
        assert _CountedFloat.tests <= 100_000, "quadratic duplicate check"
        return float.__eq__(self, other)

    __hash__ = float.__hash__


def test_duplicate_check_is_linear():
    # 10,000 distinct alphas take a linear number of equality tests, and the message
    # names the first value of the list that repeats, not the first repeat met
    config = SimConfig(n_modes=1, grid_points=2)
    alphas = [_CountedFloat((k + 1) / 10_000) for k in range(10_000)]
    _CountedFloat.tests = 0
    ExperimentSpec(config=config, deltas=[0.01], alphas=alphas)
    with pytest.raises(InvalidArgumentError, match=r"alphas repeat the value 0\.001$"):
        ExperimentSpec(config=config, deltas=[0.01], alphas=[*alphas, alphas[5000], alphas[9]])


FUZZ_TOKENS = ["0", "-1", "nan", "inf", "-inf", "1e308", "1e-308", "abc", "", "2", "0.5",
               "1e300", "1e-300", "1,2"]


@pytest.mark.parametrize("key", [key for keys in SCHEMA.values() for key in keys])
def test_every_key_and_token_ends_in_one_line(tmp_path, capsys, key):
    # each key set in turn to each token: the commands that do not simulate end in
    # exit 0, 1 or 2 with at most one stderr line, and so do the simulating ones
    # on the configs that validation rejects before anything is allocated
    path = tmp_path / "c.ini"
    for token in FUZZ_TOKENS:
        text, found = re.subn(rf"(?m)^{key} = .*$", f"{key} = {token}", DEFAULT_CONFIG)
        assert found == 1
        path.write_text(text)
        commands = ["gramian-check", "linear-check", "steer"]
        try:
            parse_experiment(text)
        except ConfigError:
            commands += ["sweep", "pullback"]
        for command in commands:
            code = cli.main([command, "--config", str(path), "--quiet"])
            err = capsys.readouterr().err
            assert code in (0, 1, 2) and err.count("\n") <= 1, (token, command, err)
            assert "Traceback" not in err
