"""Conditioning geometry of a randomized fit, built once per fit.

Given the affine stationarity representation of a randomized fit and the
randomization covariance, the selection constraints on the free optimization
block reduce, once a complementary statistic is held fixed, to a single
interval constraint on one linear combination of that block.

What does not depend on the target is built once per fit.
``target_basis`` checks and factors the design Gram that the target contrasts
solve against.  ``factor_randomization`` checks and factors the randomization
covariance Omega, forms Omega^{-1} Q, and from the checked free-block
precision Q' Omega^{-1} Q forms the conditional covariance Theta of the free
block.  Per target, ``build_target`` solves for one contrast with the cached
Gram factor, and ``build_geometry`` takes the target's direction
``Pj = P c / ||c||^2``, ``rj = (Omega^{-1} Q)' Pj``, the complementary
statistic, and the interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import (
    GeometryInconsistencyError,
    InvalidArgumentError,
    NumericalDegeneracyError,
    SingularDesignError,
)
from .numerics import Interval, line_interval
from .selection import Dataset, LinearEventRep, SelectionOutcome

_ZERO_ROW_RTOL = 1e-12
_COND_LIMIT = 1e12


@dataclass(frozen=True)
class TargetSpec:
    """A linear contrast of the mean response selected for inference."""

    contrast: np.ndarray
    norm2: float


@dataclass(frozen=True)
class ConditioningGeometry:
    """Interval reduction of the selection constraints for one target."""

    Pj: np.ndarray
    rj: np.ndarray
    Qj: np.ndarray
    A_obs: np.ndarray
    interval: Interval


@dataclass(frozen=True)
class TargetBasis:
    """The design Gram factor that one fit's target contrasts solve against.

    The j-th selected coordinate's contrast is ``design @ G^{-1} e`` with G
    the design's Gram and e the unit vector of design column ``columns[j]``:
    the selected columns under ``selected``, all columns under ``full``.
    """

    design: np.ndarray
    columns: np.ndarray
    factor: tuple


@dataclass(frozen=True)
class RandomizationFactor:
    """Target-independent conditioning state of one randomized fit.

    ``omega_factor`` is the Cholesky factor of the randomization covariance
    Omega, permuted to the representation's active-first order;
    ``omega_inv_Q`` is Omega^{-1} Q and ``Theta = (Q' Omega^{-1} Q)^{-1}`` the
    conditional covariance of the free block.
    """

    rep: LinearEventRep
    omega_factor: tuple
    omega_inv_Q: np.ndarray
    Theta: np.ndarray


def _factor_spd(mat: np.ndarray, what: str) -> tuple:
    """Check an SPD matrix's conditioning and factor it; it is never inverted."""
    mat = 0.5 * (mat + mat.T)
    if mat.size and np.linalg.cond(mat) > _COND_LIMIT:
        raise NumericalDegeneracyError(
            f"{what} is ill-conditioned (cond > {_COND_LIMIT:.0e})"
        )
    try:
        return cho_factor(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalDegeneracyError(f"{what} is not positive definite") from exc


def target_basis(data: Dataset, outcome: SelectionOutcome, model: str) -> TargetBasis:
    """Factor the Gram that the targets of the chosen model solve against.

    ``selected`` targets the partial regression coefficients among the
    selected columns; ``full`` targets the corresponding coordinates of the
    all-columns coefficient vector.
    """
    if model not in ("selected", "full"):
        raise InvalidArgumentError(f"unknown model {model!r}")
    E = outcome.selected
    if model == "selected":
        design, columns, what = data.X[:, E], np.arange(E.size), "selected-design Gram"
    else:
        design, columns, what = data.X, E, "full-design Gram"
    try:
        factor = _factor_spd(design.T @ design, what)
    except NumericalDegeneracyError as exc:
        raise SingularDesignError(str(exc)) from exc
    return TargetBasis(design=design, columns=columns, factor=factor)


def build_target(basis: TargetBasis, j: int) -> TargetSpec:
    """Contrast vector for the j-th selected coordinate."""
    if not 0 <= j < basis.columns.size:
        raise InvalidArgumentError(f"target index {j} outside the selected set")
    unit = np.zeros(basis.design.shape[1])
    unit[basis.columns[j]] = 1.0
    contrast = basis.design @ cho_solve(basis.factor, unit)
    return TargetSpec(contrast=contrast, norm2=float(contrast @ contrast))


def factor_randomization(rep: LinearEventRep, Omega: np.ndarray) -> RandomizationFactor:
    """Factor Omega and form the free block's conditional covariance.

    ``Omega`` arrives in the original feature order and is aligned to the
    representation's active-first row permutation here.
    """
    factor = _factor_spd(Omega[np.ix_(rep.order, rep.order)], "randomization covariance")
    omega_inv_Q = cho_solve(factor, rep.Q)
    gram = rep.Q.T @ omega_inv_Q
    precision = _factor_spd(gram, "conditional precision of the free block")
    theta = cho_solve(precision, np.eye(gram.shape[0]))
    return RandomizationFactor(
        rep=rep, omega_factor=factor, omega_inv_Q=omega_inv_Q, Theta=theta
    )


def build_geometry(cond: RandomizationFactor, target: TargetSpec) -> ConditioningGeometry:
    """Reduce ``L @ opt < M`` to an interval on ``rj' opt`` at fixed complement.

    Constraint rows whose coefficient on the free combination vanishes must
    hold on their own; a violation there, or an observed statistic outside
    the interval, signals an upstream inconsistency rather than data.
    """
    rep = cond.rep
    Pj = rep.P @ target.contrast / target.norm2
    rj = cond.omega_inv_Q.T @ Pj
    theta_r = cond.Theta @ rj
    vartheta2 = float(rj @ theta_r)
    if not vartheta2 > 0:
        raise NumericalDegeneracyError("target direction has no conditional variance")
    Qj = theta_r / vartheta2
    O = rep.opt
    observed = float(rj @ O)
    A_obs = O - Qj * observed

    scale = _ZERO_ROW_RTOL * np.linalg.norm(rep.L, axis=1) * np.linalg.norm(Qj)
    lower, upper = line_interval(rep.L @ Qj, rep.M - rep.L @ A_obs, scale)
    if not lower < upper:
        raise GeometryInconsistencyError(
            f"empty truncation interval [{lower}, {upper}]"
        )
    interval = Interval(lower, upper)
    if not interval.contains(observed):
        raise GeometryInconsistencyError(
            f"observed statistic {observed} outside its own interval {interval}"
        )
    return ConditioningGeometry(Pj=Pj, rj=rj, Qj=Qj, A_obs=A_obs, interval=interval)
