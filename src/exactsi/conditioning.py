"""Conditioning geometry of a randomized fit, built once per fit.

Given the stationarity identity of a randomized lasso fit and the
randomization covariance, the sign constraints on the active solution
reduce, once a complementary statistic is held fixed, to a single interval
constraint on one linear combination of it.

Both stages here run once per fit, for all targets together, ahead of
``inference.pivot_params``.  ``build_target`` checks and factors the design
Gram and keeps each target's statistics X'c, ||c||^2 and c'y, solved from
the Gram and X'y with no n-row contrast, so neither it nor a later stage
reads X or y.
``build_geometry`` checks the randomization covariance ``Omega = tau2 B`` on
the dataset's one factor of its base B, factors the free-block precision
Q' Omega^{-1} Q, whose inverse is the free block's conditional covariance
Theta, and takes each target's direction ``Pj = -X'c / ||c||^2``, ``rj =
(Omega^{-1} Q)' Pj``, complementary statistic and interval, one column per
target; a target that fails a check keeps its own error.  Every check is
``numerics.factor_spd``, or its rule on a factor the dataset keeps.  No p x p
Omega is formed: a solve with it is ``B^{-1} v / tau2``.
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
from .numerics import check_conditioning, cho_solve, factor_spd, line_interval
from .selection import Dataset, LinearEventRep


@dataclass(frozen=True)
class TargetSpec:
    """The targets of inference, linear contrasts c of the mean response, one
    column or entry each, carried by their statistics: ``xtc`` (X'c),
    ``norm2`` (||c||^2) and ``estimate`` (c'y)."""

    xtc: np.ndarray
    norm2: np.ndarray
    estimate: np.ndarray


def _omega_solve(base_factor: tuple, tau2: float, v: np.ndarray):
    """``Omega^{-1} v`` for ``Omega = tau2 B``, from the factor of B, which
    ``cho_factor`` made from a finite matrix."""
    return cho_solve(base_factor, v) / tau2


@dataclass(frozen=True)
class ConditioningGeometry:
    """Interval reduction of the selection constraints of one fit: the
    factor of Omega's base, ``tau2`` and Theta serve every target; column or
    entry j of the other fields is target j's, and ``errors[j]`` the error
    that stopped it."""

    rep: LinearEventRep
    base_factor: tuple
    tau2: float
    Theta: np.ndarray
    Pj: np.ndarray
    rj: np.ndarray
    vartheta2: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    errors: list[ExactSIError | None]

    def omega_solve(self, v: np.ndarray) -> np.ndarray:
        """``Omega^{-1} v``."""
        return _omega_solve(self.base_factor, self.tau2, v)


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
    G_DD is checked by ``factor_spd``: for ``"selected"``, the dataset's
    factor of its selected block (``Dataset.factor_columns``), for
    ``"full"``, of its whole Gram, which is the dataset's factor of its
    randomization base when every column is independent.  A Gram that fails
    raises ``SingularDesignError``.  ``xty`` replaces the dataset's X'y where
    the estimates read another response on the same design.
    """
    if model not in ("selected", "full"):
        raise InvalidArgumentError(f"unknown model {model!r}")
    gram = data.gram
    xty = data.xty if xty is None else xty
    if model == "selected":
        gram, xty, columns = gram[:, selected], xty[selected], np.arange(selected.size)
        factor = data.factor_columns(selected, "selected-design Gram")
    else:
        columns = selected
        if data.independent_columns.size == gram.shape[0]:
            # the Gram is then the randomization base, which the dataset factors
            check_conditioning(data.randomization_rcond, "full-design Gram", SingularDesignError)
            factor = data.randomization_factor
        else:
            factor = factor_spd(gram, "full-design Gram", SingularDesignError)
    ginv = cho_solve(factor, np.eye(xty.size)[:, columns])
    return TargetSpec(
        xtc=gram @ ginv, norm2=ginv[columns, np.arange(columns.size)], estimate=xty @ ginv
    )


def build_geometry(
    data: Dataset, rep: LinearEventRep, tau2: float, target: TargetSpec
) -> ConditioningGeometry:
    """Reduce ``signs * opt > 0`` to an interval on ``rj' opt`` at fixed complement.

    The randomization covariance is ``tau2`` times the base of ``data``
    (``Dataset.randomization_base``); every solve with it goes through the
    dataset's factor of that base.  Its scaled condition
    (``Dataset.randomization_rcond``) and the free-block precision are
    checked by the rule of ``factor_spd``, and one that fails raises
    ``NumericalDegeneracyError``.  Sign constraints whose coefficient on the
    free combination vanishes must hold on their own; a violation there, or
    an observed statistic outside the interval, signals an upstream
    inconsistency rather than data.
    """
    check_conditioning(
        data.randomization_rcond, "randomization covariance", NumericalDegeneracyError
    )
    factor = data.randomization_factor
    omega_inv_Q = _omega_solve(factor, tau2, rep.Q)
    gram = rep.Q.T @ omega_inv_Q
    precision = factor_spd(
        gram, "conditional precision of the free block", NumericalDegeneracyError
    )
    Theta = cho_solve(precision, np.eye(gram.shape[0]))
    Pj = target.xtc / -target.norm2
    rj = omega_inv_Q.T @ Pj
    theta_r = Theta @ rj
    vartheta2 = (rj * theta_r).sum(axis=0)
    no_variance = ~(vartheta2 > 0)
    Qj = theta_r / np.where(no_variance, 1.0, vartheta2)
    O = rep.opt
    observed = O @ rj
    A_obs = O[:, None] - Qj * observed
    S = rep.signs[:, None]
    # the sign constraints -S o < 0, each row of unit norm, along o = A_obs + Qj t
    zero = 1e-12 * np.linalg.norm(Qj, axis=0)
    lower, upper, violated = line_interval(-S * Qj, zero, S * A_obs)

    def error(j):  # the first check that target j fails, in this order
        lo, hi, obs = float(lower[j]), float(upper[j]), float(observed[j])
        if no_variance[j]:
            return NumericalDegeneracyError("target direction has no conditional variance")
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
        rep=rep, base_factor=factor, tau2=tau2, Theta=Theta, Pj=Pj, rj=rj,
        vartheta2=vartheta2, lower=lower, upper=upper,
        errors=[error(j) for j in range(vartheta2.size)],
    )
