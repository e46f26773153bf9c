"""Numerical laboratory for Caputo fractional differential systems.

Evaluates Mittag-Leffler propagators, solves linear and perturbed systems,
and checks asymptotic-stability certificates built on sector conditions,
contraction constants, and weighted-norm estimates.
"""

from .matfun import (
    SpectralData,
    check_spectral_condition,
    kernel_integral,
    ml_matrix,
    spectral_decompose,
    sup_ml_norm,
)
from .quad import TimeGrid, graded_grid, uniform_grid
from .solver import (
    LinearConstant,
    LinearDecaying,
    LinearTable,
    NonlinearSaturating,
    NonlinearTable,
    NoPerturbation,
    PerturbationSpec,
    Trajectory,
    lyapunov_perron_iterate,
    residual_check,
    solve_abm,
    solve_linear_exact,
    solve_rl_scalar_exact,
)
from .special_fn import (
    FracOrder,
    MLParams,
    gamma,
    ml,
    ml_dlambda,
    ml_many,
)
from .stability import (
    StabilityReport,
    beta_norm_certificate,
    boundedness_probe,
    classify,
)

__version__ = "0.1.0"

__all__ = [
    "FracOrder",
    "LinearConstant",
    "LinearDecaying",
    "LinearTable",
    "MLParams",
    "NoPerturbation",
    "NonlinearSaturating",
    "NonlinearTable",
    "PerturbationSpec",
    "SpectralData",
    "StabilityReport",
    "TimeGrid",
    "Trajectory",
    "beta_norm_certificate",
    "boundedness_probe",
    "check_spectral_condition",
    "classify",
    "gamma",
    "graded_grid",
    "kernel_integral",
    "lyapunov_perron_iterate",
    "ml",
    "ml_dlambda",
    "ml_many",
    "ml_matrix",
    "residual_check",
    "solve_abm",
    "solve_linear_exact",
    "solve_rl_scalar_exact",
    "spectral_decompose",
    "sup_ml_norm",
    "uniform_grid",
    "__version__",
]
