import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import beamsteer.cli as cli
from beamsteer import (
    BeamState,
    ExperimentSpec,
    ImpulseSchedule,
    NonlinearityCatalog,
    ResultRow,
    SimConfig,
    SteerWindow,
    SteeringProblem,
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
    steer_linear,
    suite_ok,
    summarize_rows,
    synthesize_control,
)
from beamsteer.config import DEFAULT_CONFIG, load_experiment
from beamsteer.errors import ConfigError, InvalidArgumentError

from oracles import expm_squaring, gauss_integral


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
        step=1 / 600,
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


def _base_run(spec):
    """The sweep's zero-control base run and target, built as the harness does."""
    rng = np.random.default_rng(spec.seed)
    modes = spec.config.modes()
    history = make_history(
        spec.history_kind, spec.history_amplitude, spec.config.delay, modes, rng,
        spec.history_mode,
    )
    config = replace(spec.config, history=history)
    base = simulate(config, None)
    target = make_target(
        spec.target_kind, modes, rng, spec.target_scale, spec.target_mode,
        free_point=base.terminal(),
    )
    return config, base, target


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
    # every cell of the sweep, rerun from scratch over [-delay, tau]: the
    # prefix must equal the base run bitwise, the terminal state and the
    # row errors must match the batched window run
    spec = make_spec()
    config, base, target = _base_run(spec)
    modes = config.modes()
    rows = {(r.delta, r.alpha): r for r in run_pullback_experiment(spec)}
    assert len(rows) == len(spec.deltas) * len(spec.alphas)
    for delta in spec.deltas:
        window = SteerWindow(config.tau, delta)
        z_mid = base.state_at(window.start)
        cut = base.index_at(window.start)
        controls = [
            synthesize_control(SteeringProblem(z_mid, target, window, alpha), modes, config.beta)
            for alpha in spec.alphas
        ]
        batched = simulate(config, controls, prefix=base)
        for control, z_batch in zip(controls, batched):
            scratch = simulate(config, control)
            assert np.array_equal(scratch.w[: cut + 1], base.w[: cut + 1])
            assert np.array_equal(scratch.v[: cut + 1], base.v[: cut + 1])
            z_tau = scratch.terminal()
            assert energy_norm(z_tau - z_batch, modes) <= 1e-13 * energy_norm(z_tau, modes)
            y_tau = steer_linear(z_mid, control, modes, config.beta)
            row = rows[(delta, control.alpha)]
            np.testing.assert_allclose(
                [row.error_total, row.error_nl, row.error_lin],
                [
                    energy_norm(z_tau - target, modes),
                    energy_norm(z_tau - y_tau, modes),
                    energy_norm(y_tau - target, modes),
                ],
                rtol=1e-13,
                atol=0.0,
            )


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
    window = SteerWindow(1.0, 0.25)
    alpha = 1e-3
    y0 = BeamState(np.array([0.4]), np.array([-0.2]))
    z1 = BeamState(np.array([0.1]), np.array([0.3]))

    K = np.array([[0.0, lam], [-lam, -2 * beta * lam]])  # energy coordinates
    b = np.array([0.0, 1.0])
    Q = gauss_integral(
        lambda s: np.outer(expm_squaring(K * s) @ b, expm_squaring(K * s) @ b),
        0.0, window.delta, nodes=64, panels=4,
    )
    d = np.array([lam * z1.w[0], z1.v[0]]) - expm_squaring(K * window.delta) @ np.array(
        [lam * y0.w[0], y0.v[0]]
    )
    eta = np.linalg.solve(alpha * np.eye(2) + Q, d)
    y_tau = expm_squaring(K * window.delta) @ np.array([lam * y0.w[0], y0.v[0]])
    y_tau = y_tau + gauss_integral(
        lambda s: (expm_squaring(K * s) @ b) * float(b @ (expm_squaring(K * s).T @ eta)),
        0.0, window.delta, nodes=64, panels=4,
    )

    control = synthesize_control(SteeringProblem(y0, z1, window, alpha), modes, beta)
    np.testing.assert_allclose(control.eta[0], eta, atol=1e-10)
    got = steer_linear(y0, control, modes, beta)
    np.testing.assert_allclose(energy_coords(got, modes)[0], y_tau, atol=1e-10)


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
    "line",
    ["beta = 1.0", "beta = 1.000002", "beta = 1.01", "length = 20"],
    ids=["beta1", "beta1+2e-6", "beta1.01", "L20"],
)
def test_cli_checks_pass_at_critical_damping_and_soft_spectrum(tmp_path, line):
    key = line.split(" = ")[0]
    text = "\n".join(
        line if row.startswith(key + " = ") else row for row in DEFAULT_CONFIG.splitlines()
    )
    path = tmp_path / "c.ini"
    path.write_text(text)
    for command in ("linear-check", "gramian-check"):
        assert cli.main([command, "--config", str(path), "--quiet"]) == 0


def test_cli_steer():
    assert cli.main(["steer", "--quiet"]) == 0


def test_cli_invalid_config(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text(DEFAULT_CONFIG.replace("beta = 2.0", "beta = 0.5"))
    assert cli.main(["linear-check", "--config", str(bad), "--quiet"]) == 2


def test_cli_critical_damping_runs_and_underdamping_exits_2(tmp_path):
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
    for k, (line, replacement, word) in enumerate(CONFIG_VIOLATIONS):
        run_dir = tmp_path / f"violation{k}"
        run_dir.mkdir()
        (run_dir / "c.ini").write_text(_violating(line, replacement))
        proc = subprocess.run(
            [sys.executable, "-m", "beamsteer", "sweep", "--config", "c.ini", "--quiet"],
            capture_output=True, text=True, cwd=run_dir, env=env,
        )
        assert proc.returncode == 2, (replacement, proc.stderr)
        assert proc.stderr.startswith("invalid configuration:") and word in proc.stderr
        assert "Traceback" not in proc.stderr
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
