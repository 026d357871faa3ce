"""One-dimensional Levy-driven SDEs with drift: pathwise solvers and density diagnostics."""

__version__ = "0.1.0"

from .levy_spec import (  # noqa: F401
    DensityForm,
    FiniteAtomic,
    KallenbergProfile,
    LevyTriplet,
    TruncatedAtomicFamily,
    doblin_predicts_atoms,
    dyadic_family,
    is_infinite,
    kallenberg_b_profile,
    mu_measure,
    sparse_family,
    total_rate,
)
from .rng import RngStream  # noqa: F401
from .path_sampler import (  # noqa: F401
    BrownianSkeleton,
    LevyPath,
    NotEnoughMarkedJumps,
    PathDecomposition,
    decompose_first_jump,
    resample_first_jump_time,
    sample_path,
    shift_jump_time,
)
from .flow_engine import (  # noqa: F401
    FlowSolution,
    NonDifferentiablePoint,
    ScalarField,
    flow_derivative_exponential,
    jump_time_derivative,
    solve_random_ode,
)
from .marcus import (  # noqa: F401
    DiffusionField,
    FlowDivergence,
    MarcusTrajectory,
    chain_rule_residual,
    jump_flow_phi,
    marcus_remainder_rho,
    marcus_solve,
)
from .transforms import (  # noqa: F401
    AssumptionHViolation,
    Diffeomorphism,
    doss_sussman_solve,
    proportional_solution,
    reduced_drift,
    unit_diffusion_transform,
)
from .diagnostics import (  # noqa: F401
    AtomReport,
    SampleBatch,
    detect_atoms,
    deterministic_skeleton,
    lattice_concentration,
    two_sample_ks,
)
from .config import ConfigError, ScenarioConfig, parse_config, serialize_config  # noqa: F401
from .scenarios import RunSummary, list_scenarios, run_scenario  # noqa: F401
