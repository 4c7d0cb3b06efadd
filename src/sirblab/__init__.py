"""Numerical laboratory for a susceptible-infected-recovered-bacteria
reaction-diffusion model: simulation, constant steady states, and
mode-by-mode linear stability analysis with cross-validation between
the analytic and simulated routes."""

from .model import (
    ModelParams,
    ReactionVector,
    RegimeReport,
    check_regime,
    reaction_rhs,
)
from .grid import (
    Grid,
    ScalarField,
    CoefficientField,
    ModeSpectrum,
    neumann_modes,
    project_mode,
    apply_diffusion,
)
from .integrator import (
    SimConfig,
    StateField,
    Trajectory,
    PositivityError,
    ConstantInit,
    BumpInit,
    ModeInit,
    RandomInit,
    simulate,
    step,
)
from .steady import (
    SteadyState,
    EndemicBracketError,
    trivial_states,
    endemic_exists,
    solve_endemic,
    all_steady_states,
    residual,
)
from .stability import (
    DiffusionMatrix,
    CubicCoeffs,
    CubicClass,
    StabilityReport,
    jacobian,
    mode_matrix,
    eigenvalues4,
    classify_cubic,
    classify_state,
    damping_margins,
)
from .scenario import ConfigError, build_sim_config, load_json, parse_sweep
from .sweep import evaluate_point, run_sweep

__version__ = "0.1.0"
