"""Exact selective inference with Gaussian randomization.

Randomized lasso selection, the exact pivot obtained by reducing the
selection event to a bivariate truncated Gaussian, confidence intervals
from pivot inversion, and one selection-to-interval pipeline
(``calibrate``, ``fit_method``) shared by a Monte-Carlo study harness with
polyhedral, data-splitting, and response-splitting baselines, the
uniformity check, and the command line.
"""

from .conditioning import (
    ConditioningGeometry,
    RandomizationFactor,
    TargetBasis,
    TargetSpec,
    build_geometry,
    build_target,
    factor_randomization,
    target_basis,
)
from .errors import ExactSIError
from .inference import (
    IntervalEstimate,
    LassoPolyhedron,
    PivotParams,
    PolyhedralBounds,
    exact_pivot,
    invert_pivot,
    lasso_polyhedron,
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
    QuadratureSpec,
    integrate_weighted_gaussian,
    invert_monotone,
    log_truncation_prob,
)
from .selection import (
    Dataset,
    LinearEventRep,
    RandomizationScheme,
    SelectionOutcome,
    lasso_event_rep,
    sample_randomization,
    solve_randomized_lasso,
    tau2_from_split,
)
from .study import (
    Calibration,
    Fit,
    SimConfig,
    StudySummary,
    calibrate,
    f1_score,
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
    "IntervalEstimate",
    "LassoPolyhedron",
    "LinearEventRep",
    "PivotParams",
    "PolyhedralBounds",
    "QuadratureSpec",
    "RandomizationFactor",
    "RandomizationScheme",
    "SelectionOutcome",
    "SimConfig",
    "StudySummary",
    "TargetBasis",
    "TargetSpec",
    "build_geometry",
    "build_target",
    "calibrate",
    "exact_pivot",
    "factor_randomization",
    "f1_score",
    "fit_method",
    "generate_design",
    "generate_response",
    "integrate_weighted_gaussian",
    "invert_monotone",
    "invert_pivot",
    "lasso_polyhedron",
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
    "split_inference",
    "target_basis",
    "tau2_from_split",
    "true_projected_target",
    "uv_inference",
    "validate_pivot_uniformity",
]
