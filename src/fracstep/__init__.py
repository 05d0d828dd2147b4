"""Solvers for A_h**alpha u = f with 0 < alpha < 1 on FEM-discretized
second-order elliptic operators, via rational-approximant time stepping."""

from .fem import (
    DiscreteOperator,
    GridFunction,
    assemble_1d,
    assemble_2d_tensor,
    data_case,
    l2_project,
    m_inner,
    m_norm,
)
from .meshes import (
    TimeMesh,
    build_geometric_mesh,
    build_graded_spatial_mesh,
    build_uniform_mesh,
)
from .pade import (
    PadeRational,
    approximation_error,
    error_bound_constant,
    eval_partial_fractions,
    eval_rational,
    pade_coefficients,
    pade_error_bound_check,
)
from .scalar import (
    ScalarRunConfig,
    exact_power,
    fit_loglog_slope,
    scalar_error_sweep,
    scalar_run_grid,
)
from .solvers import SolveError
from .spectral import (
    FoldedSineBasis,
    SineBasis,
    SpectralBounds,
    SpectralDecomposition,
    discrete_sobolev_norm,
    eig_1d,
    eig_2d_tensor,
    estimate_spectral_bounds,
    reference_power,
    spectral_upper_bound,
)
from .stepping import RunStats, StepperConfig, run, run_batch
from .experiments import (
    ExperimentSpec,
    convergence_order,
    run_pade_info,
    run_scalar_diagnostics,
    run_spatial_refinement,
    run_table,
)

__version__ = "0.1.0"

__all__ = [
    "DiscreteOperator",
    "FoldedSineBasis",
    "GridFunction",
    "PadeRational",
    "ScalarRunConfig",
    "SineBasis",
    "SolveError",
    "SpectralBounds",
    "SpectralDecomposition",
    "StepperConfig",
    "RunStats",
    "TimeMesh",
    "ExperimentSpec",
    "approximation_error",
    "assemble_1d",
    "assemble_2d_tensor",
    "build_geometric_mesh",
    "build_graded_spatial_mesh",
    "build_uniform_mesh",
    "convergence_order",
    "data_case",
    "discrete_sobolev_norm",
    "eig_1d",
    "eig_2d_tensor",
    "error_bound_constant",
    "estimate_spectral_bounds",
    "eval_partial_fractions",
    "eval_rational",
    "exact_power",
    "fit_loglog_slope",
    "l2_project",
    "m_inner",
    "m_norm",
    "pade_coefficients",
    "pade_error_bound_check",
    "reference_power",
    "run",
    "run_batch",
    "run_pade_info",
    "run_scalar_diagnostics",
    "run_spatial_refinement",
    "run_table",
    "scalar_error_sweep",
    "scalar_run_grid",
    "spectral_upper_bound",
    "__version__",
]
