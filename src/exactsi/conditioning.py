"""Conditioning geometry of a randomized fit, built once per fit.

Given the affine stationarity representation of a randomized fit and the
randomization covariance, the selection constraints on the free optimization
block reduce, once a complementary statistic is held fixed, to a single
interval constraint on one linear combination of that block.

Both stages here run once per fit, for all targets together, ahead of
``inference.pivot_params``.  ``build_target`` checks and factors the design
Gram and solves for every contrast c with it.  ``build_geometry`` checks the
randomization covariance ``Omega = tau2 B`` on the dataset's one factor of
its base B, factors the free-block precision Q' Omega^{-1} Q, whose inverse
is the free block's conditional covariance Theta, and takes each target's
direction ``Pj = P c / ||c||^2 = -(X'c)[order] / ||c||^2``, ``rj = (Omega^{-1}
Q)' Pj``, complementary statistic and interval, one column per target; a
target that fails a check keeps its own error.  Every check is
``numerics.factor_spd``, or its rule on a factor the dataset keeps.  No p x p
Omega is formed: a solve with ``Omega[order, order]`` is ``(B^{-1} v[inverse
order])[order] / tau2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .errors import (
    ExactSIError,
    GeometryInconsistencyError,
    InvalidArgumentError,
    NumericalDegeneracyError,
    SingularDesignError,
)
from .numerics import check_conditioning, factor_spd, line_interval
from .selection import Dataset, LinearEventRep, SelectionOutcome


@dataclass(frozen=True)
class TargetSpec:
    """Linear contrasts of the mean response selected for inference, one column each."""

    contrast: np.ndarray
    norm2: np.ndarray


def _omega_solve(base_factor: tuple, tau2: float, order: np.ndarray, v: np.ndarray):
    """``Omega[order, order]^{-1} v`` for ``Omega = tau2 B``, from the factor
    of B, which ``cho_factor`` made from a finite matrix."""
    u = np.empty_like(v)
    u[order] = v
    return cho_solve(base_factor, u, check_finite=False)[order] / tau2


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
    Qj: np.ndarray
    A_obs: np.ndarray
    vartheta2: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    errors: list[ExactSIError | None]

    def omega_solve(self, v: np.ndarray) -> np.ndarray:
        """``Omega^{-1} v`` for rows of ``v`` in ``rep.order``."""
        return _omega_solve(self.base_factor, self.tau2, self.rep.order, v)


def build_target(data: Dataset, outcome: SelectionOutcome, model: str) -> TargetSpec:
    """Contrast vectors of every selected coordinate, solved in one call.

    ``selected`` targets the partial regression coefficients among the
    selected columns; ``full`` targets the corresponding coordinates of the
    all-columns coefficient vector.  Contrast j is ``design G^{-1} e_j``,
    G the Gram of that design, checked by ``factor_spd``: for ``selected``,
    the dataset's factor of its selected block (``Dataset.factor_columns``),
    for ``full``, of its whole Gram, which is the dataset's factor of its
    randomization base when every column is independent.  A Gram that fails
    raises ``SingularDesignError``.
    """
    if model not in ("selected", "full"):
        raise InvalidArgumentError(f"unknown model {model!r}")
    E = outcome.selected
    if model == "selected":
        design, columns = data.X[:, E], np.arange(E.size)
        factor = data.factor_columns(E, "selected-design Gram")
    else:
        design, columns = data.X, E
        if data.independent_columns.size == data.p:
            # the Gram is then the randomization base, which the dataset factors
            check_conditioning(data.randomization_rcond, "full-design Gram", SingularDesignError)
            factor = data.randomization_factor
        else:
            factor = factor_spd(data.gram, "full-design Gram", SingularDesignError)
    units = np.eye(design.shape[1])[:, columns]
    contrast = design @ cho_solve(factor, units)
    return TargetSpec(contrast=contrast, norm2=(contrast * contrast).sum(axis=0))


def build_geometry(
    data: Dataset, rep: LinearEventRep, tau2: float, target: TargetSpec
) -> ConditioningGeometry:
    """Reduce ``L @ opt < M`` to an interval on ``rj' opt`` at fixed complement.

    The randomization covariance is ``tau2`` times the base of ``data``
    (``Dataset.randomization_base``); every solve with it goes through the
    dataset's factor of that base, in the representation's active-first row
    order.  Its scaled condition (``Dataset.randomization_rcond``) and the
    free-block precision are checked by the rule of ``factor_spd``, and one
    that fails raises ``NumericalDegeneracyError``.  Constraint rows whose coefficient
    on the free combination vanishes must hold on their own; a violation
    there, or an observed statistic outside the interval, signals an
    upstream inconsistency rather than data.
    """
    check_conditioning(
        data.randomization_rcond, "randomization covariance", NumericalDegeneracyError
    )
    factor = data.randomization_factor
    omega_inv_Q = _omega_solve(factor, tau2, rep.order, rep.Q)
    gram = rep.Q.T @ omega_inv_Q
    precision = factor_spd(
        gram, "conditional precision of the free block", NumericalDegeneracyError
    )
    Theta = cho_solve(precision, np.eye(gram.shape[0]))
    Pj = (data.X.T @ target.contrast)[rep.order] / -target.norm2
    rj = omega_inv_Q.T @ Pj
    theta_r = Theta @ rj
    vartheta2 = (rj * theta_r).sum(axis=0)
    no_variance = ~(vartheta2 > 0)
    Qj = theta_r / np.where(no_variance, 1.0, vartheta2)
    O = rep.opt
    observed = O @ rj
    A_obs = O[:, None] - Qj * observed
    zero = 1e-12 * np.linalg.norm(rep.L, axis=1)[:, None] * np.linalg.norm(Qj, axis=0)
    lower, upper, violated = line_interval(rep.L @ Qj, zero, rep.M[:, None] - rep.L @ A_obs)

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
        rep=rep, base_factor=factor, tau2=tau2, Theta=Theta, Pj=Pj, rj=rj, Qj=Qj,
        A_obs=A_obs, vartheta2=vartheta2, lower=lower, upper=upper,
        errors=[error(j) for j in range(vartheta2.size)],
    )
