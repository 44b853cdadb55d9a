"""Acceptance suite: one test per exit criterion, fixed tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion.  Criteria 1-4 exercise the linear machinery on the unit interval;
criteria 5-8 run the full steering experiment of the default configuration.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from beamsteer import (
    BeamState,
    NonlinearityCatalog,
    SpatialDomain,
    SteeringProblem,
    alpha_sweep,
    apply_semigroup,
    assemble_gramian,
    decay_envelope,
    energy_norm,
    laplacian_eigenvalues,
    make_history,
    make_random_state,
    pullback_cell,
    run_pullback_experiment,
    simulate,
    summarize_rows,
    synthesize_control,
)
from beamsteer import harness
from beamsteer.config import load_experiment
from beamsteer.dynamics import SimConfig
from beamsteer.harness import (
    CROSS_PATH_TOL,
    gramian_cross_check,
    pullback_setup,
    residual_identity,
)

from oracles import (
    ModeBlock,
    block_exp,
    expm_squaring,
    interleaved_generator,
    operator_norms,
    verify_f_bound,
)

SEED = 20240811
BETA = 2.0
N_MODES = 8
LENGTH = 1.0
DELTA = 0.2
# Scale of the seeded random states for criteria 1-2.  The regularisation
# floor alpha/(alpha + q_max) ~ 8e-5 at alpha = 1e-6 bounds the reachable
# terminal error from below, so the 1e-5 absolute threshold of criterion 2
# pins the admissible data scale; 0.02 leaves a factor-2 margin.
RANDOM_SCALE = 0.02


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _linear_setup():
    modes = laplacian_eigenvalues(LENGTH, N_MODES)
    rng = np.random.default_rng(SEED)
    y0 = make_random_state(modes, rng, RANDOM_SCALE)
    z1 = make_random_state(modes, rng, RANDOM_SCALE)
    return assemble_gramian(modes, BETA, DELTA), y0, z1


def test_criterion_1_residual_identity():
    # the control is mapped through the quadrature Gramian blocks, the formula
    # solves with the closed-form ones: the two paths share no Gramian
    t0 = time.perf_counter()
    gramians, y0, z1 = _linear_setup()
    q_quad, _ = gramian_cross_check(gramians)
    worst = 0.0
    for alpha in (1.0, 1e-2, 1e-4):
        problem = SteeringProblem(y0, z1, alpha)
        _, (measured,), (formula,) = residual_identity(problem, gramians, q_quad)
        worst = max(worst, abs(measured - formula))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        worst <= CROSS_PATH_TOL and elapsed < 1.0,
        f"identity gap {worst:.3e} (tol {CROSS_PATH_TOL:g}), runtime {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_steering_limit():
    t0 = time.perf_counter()
    gramians, y0, z1 = _linear_setup()
    alphas = [10.0**-k for k in range(7)]
    control = synthesize_control(SteeringProblem(y0, z1, alphas), gramians)
    sweep = alpha_sweep(y0, z1, control)
    errs = [e for _, e in sweep]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    elapsed = time.perf_counter() - t0
    _report(
        2,
        decreasing and errs[-1] < 1e-5 and elapsed < 1.0,
        f"strictly decreasing={decreasing}, final error {errs[-1]:.3e} (< 1e-5), "
        f"runtime {elapsed:.2f}s (< 1s)",
    )


def test_criterion_3_gramian_cross_validation():
    # the production check: every entry's gap relative to sqrt(Q_ii Q_jj), and
    # the absolute gap as well
    t0 = time.perf_counter()
    gramians = assemble_gramian(laplacian_eigenvalues(LENGTH, N_MODES), BETA, DELTA)
    q_quad, rel = gramian_cross_check(gramians)
    worst = float(np.abs(gramians.blocks - q_quad).max())
    min_eig = gramians.min_eigenvalue
    elapsed = time.perf_counter() - t0
    _report(
        3,
        rel <= CROSS_PATH_TOL and worst <= 1e-12 and min_eig > 0 and elapsed < 1.0,
        f"max relative cross-path gap {rel:.3e} (tol {CROSS_PATH_TOL:g}), absolute gap "
        f"{worst:.3e} (tol 1e-12), min eigenvalue {min_eig:.3e} (> 0), "
        f"runtime {elapsed:.2f}s (< 1s)",
    )


def test_criterion_4_semigroup_oracle():
    t0 = time.perf_counter()
    modes = laplacian_eigenvalues(LENGTH, N_MODES)
    worst_exp = 0.0
    for t in (0.1, 1.0, 5.0):
        dense = expm_squaring(interleaved_generator(modes.lambdas, BETA) * t)
        for j, lam in enumerate(modes.lambdas):
            diff = np.abs(
                block_exp(ModeBlock(lam, BETA), t) - dense[2 * j : 2 * j + 2, 2 * j : 2 * j + 2]
            ).max()
            worst_exp = max(worst_exp, float(diff))
    rng = np.random.default_rng(SEED)
    worst_law = 0.0
    for _ in range(10):
        z = BeamState(rng.standard_normal(N_MODES), rng.standard_normal(N_MODES))
        s, t = rng.uniform(0.0, 5.0, 2)
        one = apply_semigroup(apply_semigroup(z, s, modes, BETA), t, modes, BETA)
        two = apply_semigroup(z, s + t, modes, BETA)
        worst_law = max(
            worst_law, energy_norm(one - two, modes) / max(energy_norm(two, modes), 1e-30)
        )
    env = decay_envelope(modes, BETA)
    mu_exact = float(modes.lambdas[0] * (BETA - np.sqrt(BETA**2 - 1.0)))
    ts = np.arange(0.0, 10.0 + 1e-12, 0.01)
    envelope_holds = bool(
        np.all(operator_norms(modes, BETA, ts) <= env.value(ts) * (1 + 1e-12))
    ) and env.rate == pytest.approx(mu_exact, rel=1e-14)
    elapsed = time.perf_counter() - t0
    _report(
        4,
        worst_exp <= 1e-10 and worst_law <= 1e-10 and envelope_holds and elapsed < 1.0,
        f"oracle gap {worst_exp:.3e} (tol 1e-10), law gap {worst_law:.3e} (tol 1e-10), "
        f"envelope holds={envelope_holds}, runtime {elapsed:.2f}s (< 1s)",
    )


def test_criterion_5_pullback_experiment():
    t0 = time.perf_counter()
    spec = load_experiment(None)
    assert spec.config.n_modes == 8 and spec.config.beta == 2.0
    assert spec.config.tau == 1.0 and spec.config.delay == 0.3
    assert spec.config.impulses.times == (0.4, 0.7)
    assert spec.config.catalog.f_kind == "linear_growth"
    assert spec.config.catalog.f_a == 0.5
    assert (spec.config.catalog.kappa, spec.config.catalog.gamma) == (0.5, 1.0)
    assert round(1.0 / spec.config.step) == 600
    assert spec.deltas == [0.2, 0.1, 0.05]
    assert spec.alphas == [0.1, 0.01, 0.001, 0.0001, 0.00001]

    rows = run_pullback_experiment(spec)
    summary = summarize_rows(rows, 1e-2)
    best = min(r.error_total for r in rows)
    ratios_ok = all(r >= 1.5 for r in summary["nl_ratios"])
    elapsed = time.perf_counter() - t0
    _report(
        5,
        summary["goal_met"]
        and ratios_ok
        and summary["error_lin_monotone"]
        and elapsed < 60.0,
        f"best total error {best:.3e} (< 1e-2), "
        f"min nl halving ratio {min(summary['nl_ratios']):.2f} (>= 1.5), "
        f"error_lin monotone={summary['error_lin_monotone']}, "
        f"runtime {elapsed:.1f}s (< 60s)",
    )


def test_criterion_6_pullback_invariance(monkeypatch):
    # the window reads the zero-control run up to its start only: with every later
    # state of the base run NaN, the rows come out bitwise the same; and a sweep
    # leaves its base run bitwise as simulate returned it
    t0 = time.perf_counter()
    spec = load_experiment(None)
    config, base, target = pullback_setup(spec)
    delta = 0.2
    assert delta < config.delay
    cut = base.index_at(config.tau - delta)
    blind = replace(base, w=base.w.copy(), v=base.v.copy())
    blind.w[cut + 1 :] = blind.v[cut + 1 :] = np.nan

    def errors(run, alpha):
        row = pullback_cell(config, target, delta, alpha, run)
        return row.error_total, row.error_nl, row.error_lin

    identical = all(errors(blind, a) == errors(base, a) for a in (1e-1, 1e-5))
    runs = []

    def recorded(config):
        run = simulate(config)
        runs.append((run, [a.tobytes() for a in (run.w, run.v, run.memory)]))
        return run

    monkeypatch.setattr(harness, "simulate", recorded)
    run_pullback_experiment(spec)
    ((run, made),) = runs
    kept = [a.tobytes() for a in (run.w, run.v, run.memory)] == made
    elapsed = time.perf_counter() - t0
    _report(
        6,
        identical and kept and elapsed < 10.0,
        f"rows bitwise identical past the window start={identical}, "
        f"base run kept={kept}, runtime {elapsed:.2f}s (< 10s)",
    )


def test_criterion_7_growth_bound():
    t0 = time.perf_counter()
    domain = SpatialDomain(LENGTH, 128)
    modes = laplacian_eigenvalues(LENGTH, N_MODES)
    catalogs = [
        NonlinearityCatalog(),
        NonlinearityCatalog(f_kind="linear_growth", f_a=0.5, f_b=0.0),
        NonlinearityCatalog(f_kind="linear_growth", f_a=0.0, f_b=0.3),
        NonlinearityCatalog(f_kind="linear_growth", f_a=0.7, f_b=0.4),
        NonlinearityCatalog(f_kind="bounded_trig", f_a=0.4, f_b=0.2),
    ]
    worst = -np.inf
    for k, cat in enumerate(catalogs):
        report = verify_f_bound(cat, domain, modes, samples=1000, seed=SEED + k)
        worst = max(worst, report["max_violation"])
        assert report["passed"], f"catalog {cat.f_kind} violated the bound"
    elapsed = time.perf_counter() - t0
    _report(
        7,
        worst <= 1e-3 and elapsed < 5.0,
        f"max bound violation {worst:.3e} (tol 1e-3) over {len(catalogs)}x1000 samples, "
        f"runtime {elapsed:.2f}s (< 5s)",
    )


def test_criterion_8_integrator_self_convergence():
    t0 = time.perf_counter()
    spec = load_experiment(None)
    rng = np.random.default_rng(spec.seed)
    modes = spec.config.modes
    history = make_history(
        spec.history_kind, spec.history_amplitude, spec.config.delay, modes, rng
    )

    def terminal(step):
        config = SimConfig(
            n_modes=spec.config.n_modes,
            length=spec.config.length,
            grid_points=spec.config.grid_points,
            beta=spec.config.beta,
            tau=spec.config.tau,
            delay=spec.config.delay,
            step=step,
            catalog=spec.config.catalog,
            impulses=spec.config.impulses,
            history=history,
        )
        return simulate(config).terminal()

    h = 1.0 / 150.0
    reference = terminal(h / 8)
    e_h = energy_norm(terminal(h) - reference, modes)
    e_h2 = energy_norm(terminal(h / 2) - reference, modes)
    ratio = e_h / e_h2
    elapsed = time.perf_counter() - t0
    _report(
        8,
        3.0 <= ratio <= 5.0 and elapsed < 30.0,
        f"error(h)={e_h:.3e}, error(h/2)={e_h2:.3e}, ratio {ratio:.2f} (in [3, 5]), "
        f"runtime {elapsed:.1f}s (< 30s)",
    )
