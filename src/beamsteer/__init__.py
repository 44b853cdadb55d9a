"""Spectral steering toolkit for a damped beam with delay, memory and impulses.

The package discretises the clamped beam on an interval by its sine modes,
builds the closed-form solution operator of the damped modal blocks, the
controllability Gramian of a final steering window with its regularized
inverse, synthesizes minimum-energy steering controls, simulates the full
semilinear dynamics (delayed nonlinearity, Volterra memory, velocity
impulses), and orchestrates the pullback steering experiment.
"""

from .errors import (
    BlowUpError,
    ConfigError,
    InvalidArgumentError,
)
from .spectral import (
    BeamState,
    ModeSet,
    SpatialDomain,
    basis_matrix,
    energy_coords,
    energy_norm,
    laplacian_eigenvalues,
    state_from_coords,
)
from .semigroup import (
    DecayEnvelope,
    apply_semigroup,
    decay_envelope,
)
from .gramian import (
    GramianSet,
    assemble_gramian,
    gramian_mode_quadrature,
    solve_regularized,
)
from .steering import (
    ControlSignal,
    SteeringProblem,
    alpha_sweep,
    approximate_right_inverse_check,
    control_energy,
    steer_linear,
    synthesize_control,
)
from .dynamics import (
    ImpulseSchedule,
    NonlinearityCatalog,
    SimConfig,
    Trajectory,
    simulate,
)
from .harness import (
    CheckResult,
    ExperimentSpec,
    ResultRow,
    emit_csv,
    make_history,
    make_random_state,
    make_target,
    pullback_cell,
    run_linear_suite,
    run_pullback_experiment,
    suite_ok,
    summarize_rows,
)
from .config import DEFAULT_CONFIG, load_experiment, parse_experiment

__version__ = "0.1.0"
