"""Exact selective inference with Gaussian randomization.

Randomized lasso selection, the exact pivot obtained by reducing the
selection event to a bivariate truncated Gaussian, confidence intervals
from pivot inversion, and one selection-to-interval pipeline
(``calibrate``, ``fit_method``, ``infer``) shared by a Monte-Carlo study harness with
polyhedral, data-splitting, and response-splitting baselines, the
uniformity check, and the command line.
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
    exact_pivot,
    invert_pivot,
    pivot_params,
    plug_in_sigma2,
    polyhedral_bounds,
    polyhedral_interval,
    polyhedral_pivot,
    split_inference,
    uv_inference,
    z_interval,
)
from .numerics import invert_monotone
from .selection import (
    Dataset,
    LinearEventRep,
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
    infer,
    run_study,
    true_projected_target,
    validate_pivot_uniformity,
)

__version__ = "0.1.0"

__all__ = [
    "Calibration",
    "ConditioningGeometry",
    "Dataset",
    "ExactSIError",
    "Fit",
    "IntervalEstimate",
    "LinearEventRep",
    "PivotParams",
    "PolyhedralBounds",
    "SelectionOutcome",
    "SimConfig",
    "StudySummary",
    "TargetSpec",
    "build_geometry",
    "build_target",
    "calibrate",
    "exact_pivot",
    "f1_score",
    "fit_method",
    "generate_design",
    "generate_response",
    "infer",
    "invert_monotone",
    "invert_pivot",
    "lasso_event_rep",
    "pivot_params",
    "plug_in_sigma2",
    "polyhedral_bounds",
    "polyhedral_interval",
    "polyhedral_pivot",
    "run_study",
    "sample_randomization",
    "solve_randomized_lasso",
    "split_inference",
    "tau2_from_split",
    "true_projected_target",
    "uv_inference",
    "validate_pivot_uniformity",
    "z_interval",
]
