"""Exact selective inference with Gaussian randomization.

Randomized feature selection (lasso, marginal screening), the exact pivot
obtained by reducing the selection event to a bivariate truncated Gaussian,
confidence intervals from pivot inversion, and one selection-to-interval
pipeline (``calibrate``, ``fit_method``) shared by a Monte-Carlo study
harness with polyhedral, data-splitting, and response-splitting baselines,
the uniformity check, and the command line.
"""

from .conditioning import (
    ConditioningGeometry,
    TargetSpec,
    build_geometry,
    build_target,
)
from .errors import ExactSIError
from .inference import (
    IntervalEstimate,
    PivotParams,
    PolyhedralBounds,
    carving_pivot_params,
    exact_pivot,
    invert_pivot,
    lambda_delta,
    pivot_params,
    plug_in_sigma2,
    polyhedral_bounds,
    polyhedral_interval,
    polyhedral_pivot,
    split_inference,
    uv_inference,
)
from .numerics import (
    DEFAULT_QUADRATURE,
    Interval,
    QuadratureSpec,
    gaussian_cdf,
    integrate_weighted_gaussian,
    invert_monotone,
    log_truncation_prob,
    truncation_prob,
)
from .selection import (
    Dataset,
    LinearEventRep,
    RandomizationScheme,
    SelectionOutcome,
    lasso_event_rep,
    sample_randomization,
    solve_randomized_lasso,
    solve_randomized_screening,
    tau2_from_split,
)
from .study import (
    Calibration,
    Fit,
    SimConfig,
    StudySummary,
    calibrate,
    f1_score,
    fcr,
    fit_method,
    generate_design,
    generate_response,
    run_study,
    true_projected_target,
    validate_pivot_uniformity,
)

__version__ = "0.1.0"

__all__ = [
    "Calibration",
    "ConditioningGeometry",
    "DEFAULT_QUADRATURE",
    "Dataset",
    "ExactSIError",
    "Fit",
    "Interval",
    "IntervalEstimate",
    "LinearEventRep",
    "PivotParams",
    "PolyhedralBounds",
    "QuadratureSpec",
    "RandomizationScheme",
    "SelectionOutcome",
    "SimConfig",
    "StudySummary",
    "TargetSpec",
    "build_geometry",
    "build_target",
    "calibrate",
    "carving_pivot_params",
    "exact_pivot",
    "f1_score",
    "fcr",
    "fit_method",
    "gaussian_cdf",
    "generate_design",
    "generate_response",
    "integrate_weighted_gaussian",
    "invert_monotone",
    "invert_pivot",
    "lambda_delta",
    "lasso_event_rep",
    "log_truncation_prob",
    "pivot_params",
    "plug_in_sigma2",
    "polyhedral_bounds",
    "polyhedral_interval",
    "polyhedral_pivot",
    "run_study",
    "sample_randomization",
    "solve_randomized_lasso",
    "solve_randomized_screening",
    "split_inference",
    "tau2_from_split",
    "true_projected_target",
    "truncation_prob",
    "uv_inference",
    "validate_pivot_uniformity",
]
