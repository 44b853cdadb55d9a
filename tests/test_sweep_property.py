"""Property test of the stepping layer through the pullback sweep.

Draws cover every f, g and kernel kind, soft to stiff spectra, damping from
critical to 1e8, steps of 1/300 and 1/600, up to two impulses
before the earliest window, and random or single-mode histories.  Each batched
row is checked against its cell alone: the linear steer of its one alpha plus
its window's forced response stepped by the oracle (``window_response_stepwise``).
The draws come from one seeded numpy generator, each independent of the
others, so every draw is a new system.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

import beamsteer.dynamics as dynamics
from beamsteer import (
    BeamState,
    ExperimentSpec,
    ImpulseSchedule,
    NonlinearityCatalog,
    SimConfig,
    SteeringProblem,
    assemble_gramian,
    energy_norm,
    load_experiment,
    run_pullback_experiment,
    steer_linear,
    synthesize_control,
)
from beamsteer.errors import BlowUpError, InvalidArgumentError
from beamsteer.harness import pullback_setup

from oracles import window_response_stepwise

DRAWS, SEED = 120, 20240811


def _log_uniform(rng, lo, hi):
    return float(10.0 ** rng.uniform(np.log10(lo), np.log10(hi)))


def _coefficient(rng, hi):
    """0 one draw in four (the maps skip a zero term), else uniform in [0, hi]."""
    return 0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, hi))


def _beta(rng):
    """Critical damping one draw in eight, else log-uniform in [1, 1e8] or 1 + 10^[-12, -1]."""
    kind = rng.random()
    if kind < 0.125:
        return 1.0
    if kind < 0.625:
        return _log_uniform(rng, 1.0, 1e8)
    return 1.0 + 10.0 ** rng.uniform(-12.0, -1.0)


def _accepted_sweep(rng):
    """A sweep over every f, g and kernel kind, soft to stiff spectra and damping from
    critical to 1e8, with up to two impulses before its earliest window."""
    h = float(rng.choice([1 / 300, 1 / 600]))
    n_r = round(0.3 / h)
    deltas = rng.choice(np.arange(1, n_r), size=rng.integers(1, 3), replace=False)
    first = round(1.0 / h) - deltas.max()  # steps to the earliest window start
    kicks = np.sort(rng.choice(np.arange(1, first), size=rng.integers(0, 3), replace=False))
    catalog = NonlinearityCatalog(
        f_kind=str(rng.choice(sorted(dynamics.F_READS))),
        f_a=_coefficient(rng, 3.0),
        f_b=_coefficient(rng, 1.0),
        g_kind=str(rng.choice(dynamics.G_KINDS)),
        kernel_kind=str(rng.choice(dynamics.KERNEL_KINDS)),
        kappa=_coefficient(rng, 3.0),
        gamma=_log_uniform(rng, 1e-2, 1e4),
    )
    config = SimConfig(
        n_modes=int(rng.integers(1, 17)),
        length=_log_uniform(rng, 0.03, 100.0),
        beta=_beta(rng),
        step=h,
        catalog=catalog,
        impulses=ImpulseSchedule(
            times=[k * h for k in kicks.tolist()], gains=rng.uniform(-1.0, 1.0, kicks.size).tolist()
        ),
    )
    return ExperimentSpec(
        config=config,
        deltas=[m * h for m in deltas.tolist()],
        alphas=[_log_uniform(rng, 1e-6, 1.0) for _ in range(rng.integers(1, 4))],
        history_kind=str(rng.choice(["random", "single_mode"])),
        history_amplitude=_coefficient(rng, 1.0),
        seed=int(rng.integers(0, 2**32)),
    )


def _check_rows(spec):
    """Every row is finite and within 1e-13 of its cell alone with its window stepped, or the sweep
    stops with an error that names the cell that blew up or the window it cannot steer.
    Returns the outcome checked: "rows", "blowup" or "singular"."""
    try:
        rows = run_pullback_experiment(spec)
    except BlowUpError as err:
        match = re.search(r" in the cell alpha=(\S+), delta=(\S+)$", str(err))
        assert match and float(match[1]) in spec.alphas, str(err)
        assert any(f"{d:g}" == match[2] for d in spec.deltas), str(err)
        return "blowup"
    except InvalidArgumentError as err:
        match = re.fullmatch(r"Gramian is not positive definite on the window delta=(\S+)", str(err))
        assert match and any(f"{d:g}" == match[1] for d in spec.deltas), str(err)
        return "singular"
    config, base, target = pullback_setup(spec)
    modes = config.modes
    assert len(rows) == len(spec.deltas) * len(spec.alphas)
    by_cell = {(r.delta, r.alpha): [r.error_total, r.error_nl, r.error_lin] for r in rows}
    for delta in spec.deltas:
        z_mid = base.state_at(config.tau - delta)
        gramians = assemble_gramian(modes, config.beta, delta)
        for alpha in spec.alphas:
            control = synthesize_control(SteeringProblem(z_mid, target, alpha), gramians)
            lin = steer_linear(z_mid, control) - target
            response = BeamState(*window_response_stepwise(base, control))
            want = [energy_norm(x, modes)[0] for x in (lin + response, response, lin)]
            batched = by_cell[(delta, alpha)]
            assert np.isfinite(batched).all()
            np.testing.assert_allclose(batched, want, rtol=1e-13, atol=0.0)
    return "rows"


def test_sweep_rows_hold_on_accepted_configs():
    rng = np.random.default_rng(SEED)
    specs = [_accepted_sweep(rng) for _ in range(DRAWS)]
    systems = {(s.config.beta, s.config.length, s.config.n_modes) for s in specs}
    assert len(systems) >= 100  # the draws must not collapse onto a few systems
    for draw, spec in enumerate(specs):
        try:
            _check_rows(spec)
        except AssertionError as err:
            raise AssertionError(f"draw {draw}: {spec!r}") from err


@pytest.mark.parametrize(
    "system", [dict(beta=1e200), dict(length=1e-60)], ids=["beta1e200", "length1e-60"]
)
def test_underflowing_gramian_stops_the_sweep_naming_its_window(system):
    # the validator accepts these systems, but their Gramians underflow: the sweep
    # stops on the window it cannot steer instead of writing rows
    spec = load_experiment(None)
    spec = replace(spec, config=replace(spec.config, **system))
    assert _check_rows(spec) == "singular"
