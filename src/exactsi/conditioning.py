"""Conditioning geometry of a randomized fit, built once per fit.

Given the stationarity identity of a randomized lasso fit and the
randomization covariance, the sign constraints on the active solution
reduce, once a complementary statistic is held fixed, to a single interval
constraint on one linear combination of it.

Both stages here run once per fit, for all targets together, ahead of
``inference.pivot_params``.  ``build_target`` keeps each target's statistics
X'c, ||c||^2 and c'y, solved from the Gram and X'y with no n-row contrast,
so neither it nor a later stage reads X or y.
``build_geometry``, the one stage that solves with the randomization
covariance ``Omega = tau2 B``, reads the dataset's factor of its base B,
factors the free-block precision Q' Omega^{-1} Q, whose inverse is the free
block's conditional covariance Theta, and takes each target's direction
``Pj = -X'c / ||c||^2``, ``rj = (Omega^{-1} Q)' Pj``, interval and
conditional-mean pieces, so that the pivot adds only the noise; a target
that fails a check keeps its own error.  The dataset factors and checks
every Gram block and the base (``Dataset.checked_factor``), by the rule of
``numerics.factor_spd``, which factors the precision: a solve with Omega is
``B^{-1} v / tau2``, and no p x p Omega is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ExactSIError,
    GeometryInconsistencyError,
    InvalidArgumentError,
    NumericalDegeneracyError,
    SingularDesignError,
)
from .numerics import cho_solve, factor_spd, line_interval
from .selection import Dataset, LinearEventRep

MODELS = ("full", "selected")  # the targets' models: see ``build_target``


def check_model(model: str) -> None:
    """Raise ``InvalidArgumentError`` unless ``model`` is one of ``MODELS``."""
    if model not in MODELS:
        raise InvalidArgumentError(f"unknown model {model!r}")


@dataclass(frozen=True)
class TargetSpec:
    """The targets of inference, linear contrasts c of the mean response, one
    column or entry each, carried by their statistics: ``xtc`` (X'c),
    ``norm2`` (||c||^2) and ``estimate`` (c'y)."""

    xtc: np.ndarray
    norm2: np.ndarray
    estimate: np.ndarray


@dataclass(frozen=True)
class ConditioningGeometry:
    """Each target's share of one fit's selection event, entry j target j's:
    the variance ``vartheta2`` of ``rj' opt`` given the complement, its
    interval ``(lower, upper)`` and mean intercept ``theta_intercept``, the
    estimate's ``mean_shift``, ``pj_quad = Pj' Omega^{-1} Pj`` and ``errors``."""

    vartheta2: np.ndarray
    theta_intercept: np.ndarray
    mean_shift: np.ndarray
    pj_quad: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    errors: list[ExactSIError | None]


def build_target(
    data: Dataset, selected: np.ndarray, model: str, xty: np.ndarray | None = None
) -> TargetSpec:
    """The statistics of the contrast of every coordinate in ``selected``,
    solved in one call from the Gram, X'y and the dataset's factor.

    Model ``"selected"`` targets the partial regression coefficients among
    the selected columns; ``"full"`` the corresponding coordinates of the
    all-columns coefficient vector.  With D the design's columns (E, or all)
    and ``ginv = G_DD^{-1} e_j`` for target j, contrast j is ``X_D ginv``, so
    X'c is ``gram[:, D] ginv``, ||c||^2 is ginv's entry j and c'y is
    ``xty[D] ginv``: no n-row array is formed, and neither X nor y is read.
    G_DD is the dataset's checked factor of the Gram block D
    (``Dataset.checked_factor``); one that fails raises
    ``SingularDesignError`` ("<model>-design Gram ...").  ``xty`` replaces
    the dataset's X'y where the estimates read another response on the
    same design.
    """
    check_model(model)
    gram = data.gram
    xty = data.xty if xty is None else xty
    if model == "selected":
        design, columns = selected, np.arange(selected.size)
        gram, xty = gram[:, selected], xty[selected]
    else:
        design, columns = np.arange(xty.size), selected
    factor = data.checked_factor(design, f"{model}-design Gram", SingularDesignError)
    ginv = cho_solve(factor, np.eye(xty.size)[:, columns])
    return TargetSpec(
        xtc=gram @ ginv, norm2=ginv[columns, np.arange(columns.size)], estimate=xty @ ginv
    )


def build_geometry(
    data: Dataset, rep: LinearEventRep, tau2: float, target: TargetSpec
) -> ConditioningGeometry:
    """Reduce ``signs * opt > 0`` to an interval on ``rj' opt`` at fixed
    complement, and solve for the pieces of the conditional mean.

    Omega is ``tau2 B``, B the base of ``data`` (``Dataset.randomization_base``),
    and every solve with it reads the dataset's factor of B.  B or the
    free-block precision failing the check of ``factor_spd``, and a Theta or
    a direction that overflows, are ``NumericalDegeneracyError``.  A violated
    constraint orthogonal to the direction, or an observed statistic outside
    its interval, signals an upstream inconsistency rather than data.

    With ``gamma`` the response off a target's contrast c, ``core = -X'gamma +
    offset = offset - stat - Pj c'y`` gives the free block's conditional mean
    the pieces ``-Pj' Omega^{-1} core`` (the mean shift) and ``delta = -Theta
    Q' Omega^{-1} core`` (``rj' delta`` is the intercept): one solve serves
    every core and direction, with no n rows."""
    factor = data.checked_factor(None, "randomization covariance", NumericalDegeneracyError)
    with np.errstate(over="ignore", invalid="ignore"):  # factor_spd rejects an inf
        omega_inv_Q = cho_solve(factor, rep.Q) / tau2
        gram = rep.Q.T @ omega_inv_Q
    precision = factor_spd(
        gram, "conditional precision of the free block", NumericalDegeneracyError
    )
    Theta = cho_solve(precision, np.eye(gram.shape[0]))
    if not np.isfinite(Theta).all():  # a precision of subnormal size passes its check
        raise NumericalDegeneracyError("conditional covariance of the free block overflows")
    Pj = target.xtc / -target.norm2
    rj = omega_inv_Q.T @ Pj
    theta_r = Theta @ rj
    vartheta2 = (rj * theta_r).sum(axis=0)
    no_variance = ~(vartheta2 > 0)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is judged in ``error``
        Qj = theta_r / np.where(no_variance, 1.0, vartheta2)
        zero = 1e-12 * np.linalg.norm(Qj, axis=0)
    finite = np.isfinite(Qj).all(axis=0)
    # past about 1e154 a finite direction's squares overflow: scale by its largest entry
    huge = finite & ~(zero < np.inf)
    if huge.any():
        top = np.abs(Qj[:, huge]).max(axis=0)
        zero[huge] = 1e-12 * top * np.linalg.norm(Qj[:, huge] / top, axis=0)
    O, S = rep.opt, rep.signs[:, None]
    observed = O @ rj
    A_obs = O[:, None] - Qj * observed
    # the sign constraints -S o < 0, each row of unit norm, along o = A_obs + Qj t
    lower, upper, violated = line_interval(-S * Qj, zero, S * A_obs)
    core = rep.offset[:, None] - rep.stat[:, None] - Pj * target.estimate
    omega_inv_core, omega_inv_pj = np.hsplit(cho_solve(factor, np.hstack([core, Pj])) / tau2, 2)
    delta = -(Theta @ (rep.Q.T @ omega_inv_core))

    def error(j):  # the first check that target j fails, in this order
        lo, hi, obs = float(lower[j]), float(upper[j]), float(observed[j])
        if no_variance[j]:
            return NumericalDegeneracyError("target direction has no conditional variance")
        if not finite[j]:
            return NumericalDegeneracyError("length of the target direction overflows")
        if violated[j]:
            return GeometryInconsistencyError(
                "a constraint orthogonal to the target direction is violated"
            )
        if not lo < hi:
            return GeometryInconsistencyError(f"empty truncation interval [{lo}, {hi}]")
        if not lo < obs < hi:
            return GeometryInconsistencyError(
                f"observed statistic {obs} outside its own interval "
                f"Interval(lower={lo!r}, upper={hi!r})"
            )
        return None

    return ConditioningGeometry(
        vartheta2=vartheta2, theta_intercept=(rj * delta).sum(axis=0),
        mean_shift=-(Pj * omega_inv_core).sum(axis=0), pj_quad=(Pj * omega_inv_pj).sum(axis=0),
        lower=lower, upper=upper, errors=[error(j) for j in range(vartheta2.size)],
    )
