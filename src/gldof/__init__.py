"""Group lasso regression with exact solution sensitivities and DOF-based risk estimation."""

from .core import (
    BlockPartition,
    BlockSupport,
    Design,
    block_support,
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
    differential,
    dof_batch,
    dof_estimate,
    dof_identity_closed_form,
)
from .risk import (
    RiskCurve,
    default_lambda_grid,
    estimate_sigma,
    lambda_path,
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
    "block_support",
    "default_lambda_grid",
    "differential",
    "dof_batch",
    "dof_estimate",
    "dof_identity_closed_form",
    "estimate_sigma",
    "fd_oracle",
    "generate",
    "kkt_check",
    "lambda_max",
    "lambda_path",
    "load_problem",
    "mc_dof",
    "save_problem",
    "solve",
    "solve_batch",
    "__version__",
]
