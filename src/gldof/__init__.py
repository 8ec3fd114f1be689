"""Group lasso regression with exact solution sensitivities and DOF-based risk estimation."""

from .core import (
    BlockPartition,
    BlockSupport,
    DegenerateBlockError,
    Design,
    block_support,
    delta_P_matrix,
    normalize_blocks,
)
from .solver import (
    ConvergenceError,
    Problem,
    Solution,
    SolverOptions,
    kkt_check,
    lambda_max,
    solve,
    solve_batch,
)
from .dof import (
    DofReport,
    coordinate_radius,
    differential,
    dof_estimate,
    dof_identity_closed_form,
    transition_proximity,
)
from .risk import (
    RiskCurve,
    aic,
    cp,
    default_lambda_grid,
    estimate_sigma,
    gcv,
    lambda_path,
    sure,
)
from .validate import McDofResult, fd_oracle, mc_dof
from .datagen import (
    GenerationError,
    Scenario,
    ScenarioSpec,
    generate,
    load_problem,
    save_problem,
)

__version__ = "0.1.0"

__all__ = [
    "BlockPartition",
    "BlockSupport",
    "ConvergenceError",
    "DegenerateBlockError",
    "Design",
    "DofReport",
    "GenerationError",
    "McDofResult",
    "Problem",
    "RiskCurve",
    "Scenario",
    "ScenarioSpec",
    "Solution",
    "SolverOptions",
    "aic",
    "block_support",
    "coordinate_radius",
    "cp",
    "default_lambda_grid",
    "delta_P_matrix",
    "differential",
    "dof_estimate",
    "dof_identity_closed_form",
    "estimate_sigma",
    "fd_oracle",
    "gcv",
    "generate",
    "kkt_check",
    "lambda_max",
    "lambda_path",
    "load_problem",
    "mc_dof",
    "normalize_blocks",
    "save_problem",
    "solve",
    "solve_batch",
    "sure",
    "transition_proximity",
    "__version__",
]
