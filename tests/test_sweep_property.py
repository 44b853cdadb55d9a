"""Property test of the stepping layer through the pullback sweep.

Draws cover every f, g and kernel kind, soft to stiff spectra, damping from
critical to 1e8, steps of 1/300 and 1/600, up to two impulses
before the earliest window, and random or single-mode histories.  Each batched
row is checked against its cell simulated from scratch (``pullback_cell``).
"""

import re

import numpy as np
from hypothesis import given, settings, strategies as st

import beamsteer.dynamics as dynamics
from beamsteer import (
    ExperimentSpec,
    ImpulseSchedule,
    NonlinearityCatalog,
    SimConfig,
    run_pullback_experiment,
)
from beamsteer.errors import BlowUpError, InvalidArgumentError
from beamsteer.harness import pullback_cell, pullback_setup


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def _accepted_sweeps(draw):
    """A sweep over every f, g and kernel kind, soft to stiff spectra and damping from
    critical to 1e8, with up to two impulses before its earliest window."""
    h = draw(st.sampled_from([1 / 300, 1 / 600]))
    n_r = round(0.3 / h)
    deltas = draw(st.lists(st.integers(1, n_r - 1), min_size=1, max_size=2, unique=True))
    first = round(1.0 / h) - max(deltas)  # steps to the earliest window start
    kicks = draw(st.lists(st.integers(1, first - 1), max_size=2, unique=True))
    catalog = NonlinearityCatalog(
        f_kind=draw(st.sampled_from(sorted(dynamics.F_READS))),
        f_a=draw(st.floats(0.0, 3.0)),
        f_b=draw(st.floats(0.0, 1.0)),
        g_kind=draw(st.sampled_from(dynamics.G_KINDS)),
        kernel_kind=draw(st.sampled_from(dynamics.KERNEL_KINDS)),
        kappa=draw(st.floats(0.0, 3.0)),
        gamma=draw(_log_uniform(1e-2, 1e4)),
    )
    config = SimConfig(
        n_modes=draw(st.integers(1, 16)),
        length=draw(_log_uniform(0.03, 100.0)),
        beta=draw(_log_uniform(1.0, 1e8) | st.floats(-12.0, -1.0).map(lambda e: 1.0 + 10.0**e)),
        step=h,
        catalog=catalog,
        impulses=ImpulseSchedule(
            times=[k * h for k in sorted(kicks)],
            gains=draw(st.lists(st.floats(-1.0, 1.0), min_size=len(kicks), max_size=len(kicks))),
        ),
    )
    return ExperimentSpec(
        config=config,
        deltas=[m * h for m in deltas],
        alphas=draw(st.lists(_log_uniform(1e-6, 1.0), min_size=1, max_size=3, unique=True)),
        history_kind=draw(st.sampled_from(["random", "single_mode"])),
        history_amplitude=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**32)),
    )


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(spec=_accepted_sweeps())
def test_sweep_rows_hold_on_accepted_configs(spec):
    # every row is finite and within 1e-13 of its cell run from scratch, or the sweep
    # stops with an error that names the cell that blew up or the window it cannot steer
    try:
        rows = run_pullback_experiment(spec)
    except BlowUpError as err:
        match = re.search(r" in the cell alpha=(\S+), delta=(\S+)$", str(err))
        assert match and float(match[1]) in spec.alphas, str(err)
        assert any(f"{d:g}" == match[2] for d in spec.deltas), str(err)
        return
    except InvalidArgumentError as err:
        match = re.fullmatch(r"Gramian is not positive definite on the window delta=(\S+)", str(err))
        assert match and any(f"{d:g}" == match[1] for d in spec.deltas), str(err)
        return
    config, base, target = pullback_setup(spec)
    assert len(rows) == len(spec.deltas) * len(spec.alphas)
    for row in rows:
        batched = [row.error_total, row.error_nl, row.error_lin]
        assert np.isfinite(batched).all()
        ref, _ = pullback_cell(config, target, row.delta, row.alpha, base)
        np.testing.assert_allclose(
            batched, [ref.error_total, ref.error_nl, ref.error_lin], rtol=1e-13, atol=0.0
        )
