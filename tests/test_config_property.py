"""Property test of the validator against the library: every accepted ``SimConfig`` runs.

Draws cover every f, g and kernel kind, damping from critical to 1e8, lengths from
1e-2 to 1e3, steps from 1e-6 to 10, and the delay, horizon, impulse times and window
as a few steps each, counts 0 and 1 included, each on its step-count boundary, set off
it by less than the validator's slack, by more, or by up to half a step, or drawn far
below one step.  A config the validator accepts must give a finite base run from
``simulate`` and a window sum from ``window_response`` that holds against the stepped
window, or stop with one of the package's errors; no other exception may escape.  Of
the 300 draws about 200 are rejected, 55 give rows and 45 stop in the window (a window
the validator rejects, or a Gramian that is not positive definite).  Each input the
property found, with its neighbours, is kept as a named case below.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamsteer import (
    BeamState,
    ImpulseSchedule,
    NonlinearityCatalog,
    SimConfig,
    SteeringProblem,
    assemble_gramian,
    energy_norm,
    simulate,
    steer_linear,
    synthesize_control,
)
from beamsteer.dynamics import F_READS, G_KINDS, KERNEL_KINDS, window_response
from beamsteer.errors import BlowUpError, InvalidArgumentError
from beamsteer.harness import make_random_state

from oracles import window_response_stepwise

PROPERTY = settings(derandomize=True, max_examples=300, deadline=None, database=None)
# a count's offset from its step boundary, in steps: inside the validator's slack, past it,
# or up to half a step; one value in four is set off, and one in eight is far below a step
OFFSETS = [1e-13, -1e-13, 1e-11, -1e-11, 1e-8, -1e-8, 0.3, -0.3, 0.5]


def _near(draw, h, count):
    """count * h, set off from its boundary or replaced by a positive value far below a step."""
    kind = draw(st.integers(0, 7))
    if kind == 0:
        return h * draw(st.sampled_from([1e-300, 1e-20, 1e-10]))
    return h * (count + (draw(st.sampled_from(OFFSETS)) if kind < 3 else 0.0))


@st.composite
def _configs(draw):
    """The fields of a config, a window length and an alpha; the counts are drawn first, so
    that most draws are near a config the validator accepts."""
    h, n_modes = 10.0 ** draw(st.floats(-6.0, 1.0)), draw(st.integers(1, 8))
    n_delay, n_tau = draw(st.integers(0, 24)), draw(st.integers(0, 40))
    kicks = draw(st.lists(st.integers(0, max(n_tau - 1, 0)), max_size=2, unique=True))
    most = max(0, min(n_delay, n_tau - max(kicks, default=0)))  # the window at its bounds too
    n_delta = draw(st.one_of(st.sampled_from([1, most]), st.integers(0, most)))
    catalog = dict(
        f_kind=draw(st.sampled_from(sorted(F_READS))),
        f_a=draw(st.sampled_from([0.0, 0.5, 3.0])),
        f_b=draw(st.sampled_from([0.0, 0.3])),
        g_kind=draw(st.sampled_from(G_KINDS)),
        kernel_kind=draw(st.sampled_from(KERNEL_KINDS)),
        kappa=draw(st.sampled_from([0.0, 0.5, 3.0])),
        gamma=10.0 ** draw(st.floats(-2.0, 4.0)),
    )
    fields = dict(
        n_modes=n_modes,
        length=10.0 ** draw(st.floats(-2.0, 3.0)),
        grid_points=draw(st.integers(2 * n_modes, 4 * n_modes + 8)),
        beta=draw(st.sampled_from([1.0, 1.0 + 1e-10, 2.0, 1e8])),
        tau=_near(draw, h, n_tau),
        delay=_near(draw, h, n_delay),
        step=h,
        catalog=catalog,
        impulses=dict(times=[_near(draw, h, k) for k in sorted(kicks)], gains=[0.05] * len(kicks)),
    )
    return fields, _near(draw, h, n_delta), draw(st.sampled_from([1e-1, 1e-5]))


def _config(fields):
    catalog = NonlinearityCatalog(**fields["catalog"])
    impulses = ImpulseSchedule(**fields["impulses"])
    return SimConfig(**{**fields, "catalog": catalog, "impulses": impulses})


def _run(fields, delta, alpha):
    """Build the config, run it and sum one window of it.  Returns the outcome: "rejected",
    "blowup", "stopped" (in the window) or "rows", after checking the run and the sum."""
    try:
        config = _config(fields)
    except InvalidArgumentError:  # ConfigError is one too
        return "rejected"
    try:
        base = simulate(config)
    except BlowUpError:
        return "blowup"
    assert np.isfinite([base.w, base.v, base.memory]).all()
    try:
        start = config.validate_delta(delta)
        z_mid, target = base.state(start), make_random_state(config.modes, np.random.default_rng(0))
        gramians = assemble_gramian(config.modes, config.beta, delta)
        control = synthesize_control(SteeringProblem(z_mid, target, alpha), gramians)
        response = window_response(base, control, steer_linear(z_mid, control))
    except (BlowUpError, InvalidArgumentError):  # an invalid or singular window, or a blow-up
        return "stopped"
    # the sum holds against the window stepped node by node; tau must sit on its node, as
    # within the slack the sum's table reads tau and the steps its node
    if config.tau == config.horizon_steps * config.step:
        want = BeamState(*window_response_stepwise(base, control))
        gap, size = (energy_norm(x, config.modes) for x in (response - want, want))
        assert (gap <= 1e-10 * size).all(), (gap, size)
    return "rows"


@PROPERTY
@given(_configs())
def test_accepted_configs_run_or_stop_with_a_package_error(drawn):
    _run(*drawn)


DEFAULT = dict(
    n_modes=2, length=1.0, grid_points=8, beta=2.0, tau=1.0, delay=0.3, step=0.01,
    catalog=dict(f_kind="linear_growth", f_a=0.5, g_kind="sin", kernel_kind="exponential",
                 kappa=0.5, gamma=1.0),
    impulses=dict(times=[0.4], gains=[0.05]),
)
# the inputs the property found, and those next to them: case -> (fields changed, delta,
# the error the validator now names); before, each validated and then failed or misran
FOUND = {
    # the delay rounded to zero steps, then simulate divided by zero in _slab_tables
    "delay_1e-10": (dict(delay=1e-10), 0.1, "the delay is shorter than one step"),
    "delay_1e-300": (dict(delay=1e-300), 0.1, "the delay is shorter than one step"),
    # the property's first find: a delay far below a step of 1 and a horizon of 1e-13 steps
    "delay_1e-300_step_1": (
        dict(delay=1e-300, tau=1e-13, step=1.0, impulses=dict(times=[], gains=[])), 0.0,
        "the delay is shorter than one step",
    ),
    # a horizon of zero steps ran with no step taken and no window inside it
    "tau_1e-300": (
        dict(tau=1e-300, impulses=dict(times=[], gains=[])), 1e-301,
        "the horizon is shorter than one step",
    ),
    # an impulse time of zero steps landed on the run's first node, where no step applied it
    "impulse_1e-300": (
        dict(impulses=dict(times=[1e-300], gains=[0.05])), 0.1,
        "impulse time 1e-300 is shorter than one step",
    ),
    # a window of zero steps summed one node as if it were a step long
    "delta_1e-300": ({}, 1e-300, "the window is shorter than one step"),
    # a window within the slack of the delay passed the float comparison; one delay long, it
    # read a one-column table broadcast over its nodes
    "delta_within_slack_of_delay": ({}, 0.3 - 1e-12, "delta must be smaller than the delay"),
    # within the slack of tau a window started on the run's first node
    "delta_within_slack_of_tau": (
        dict(delay=2.0, impulses=dict(times=[], gains=[])), 1.0 - 1e-12,
        "delta must lie in \\(0, tau\\)",
    ),
    "delta_within_slack_of_impulse": (
        dict(delay=0.8), 0.6 - 1e-12, "delta must keep every impulse before the steering window"
    ),
    # a float grid size reached check_run_bytes' int.bit_length as an AttributeError
    "grid_points_1e10": (dict(grid_points=1e10), 0.1, r"a run needs 2\*\*\d+ bytes or more"),
    # a count that is no integer was rejected only past the run-size check, without its name
    "n_modes_2.5": (dict(n_modes=2.5), 0.1, "n_modes must be an integer"),
    # an absolute slack of 1e-9 passed a delay 0.2 steps off its boundary at a step of 1e-9
    "delay_off_by_a_fifth_step": (
        dict(step=1e-9, delay=1.2e-9, tau=4e-9, impulses=dict(times=[], gains=[])), 1e-9,
        "step does not divide the delay exactly",
    ),
}


@pytest.mark.parametrize("case", FOUND)
def test_found_input_is_rejected_by_name(case):
    change, delta, message = FOUND[case]
    fields = {**DEFAULT, **change}
    assert _run(fields, delta, 1e-2) in ("rejected", "stopped")
    with pytest.raises(InvalidArgumentError, match=f"^{message}"):
        _config(fields).validate_delta(delta)


def test_integral_float_counts_run_as_ints():
    # n_modes=8.0 validated, then simulate raised a bare TypeError at its first array
    fields = {**DEFAULT, "n_modes": 8, "grid_points": 64}
    as_int, as_float = (_config({**fields, "n_modes": n}) for n in (8, 8.0))
    assert type(as_float.n_modes) is int and as_float == as_int
    runs = [simulate(config) for config in (as_int, as_float)]
    for a, b in zip(*[(run.w, run.v, run.memory) for run in runs]):
        assert a.tobytes() == b.tobytes()


def test_default_fields_run():
    assert _run(DEFAULT, 0.1, 1e-2) == "rows"
