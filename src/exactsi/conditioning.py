"""Conditioning geometry of a randomized fit, built once per fit.

Given the affine stationarity representation of a randomized fit and the
randomization covariance, the selection constraints on the free optimization
block reduce, once a complementary statistic is held fixed, to a single
interval constraint on one linear combination of that block.

Everything is built once per fit, for all targets together.  ``target_basis``
checks and factors the design Gram that the target contrasts solve against.
``factor_randomization`` checks and factors the randomization covariance
Omega, forms Omega^{-1} Q, and from the checked free-block precision
Q' Omega^{-1} Q forms the conditional covariance Theta of the free block.
``build_target`` solves for every contrast with the Gram factor, and
``build_geometry`` takes each target's direction ``Pj = P c / ||c||^2``,
``rj = (Omega^{-1} Q)' Pj``, complementary statistic and interval, one
column per target; a target that fails a check keeps its own error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import (
    ExactSIError,
    GeometryInconsistencyError,
    InvalidArgumentError,
    NumericalDegeneracyError,
    SingularDesignError,
)
from .numerics import line_interval
from .selection import Dataset, LinearEventRep, SelectionOutcome

_ZERO_ROW_RTOL = 1e-12
_COND_LIMIT = 1e12


@dataclass(frozen=True)
class TargetSpec:
    """Linear contrasts of the mean response selected for inference, one column each."""

    contrast: np.ndarray
    norm2: np.ndarray


@dataclass(frozen=True)
class ConditioningGeometry:
    """Interval reduction of the selection constraints: column or entry j of
    each field is target j's, and ``errors[j]`` the error that stopped it."""

    Pj: np.ndarray
    rj: np.ndarray
    Qj: np.ndarray
    A_obs: np.ndarray
    vartheta2: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    errors: list[ExactSIError | None]


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
    """Check an SPD matrix's conditioning and factor it; it is never inverted.

    The condition number is the 2-norm ratio of the largest to the smallest
    singular value, taken from the eigenvalues of the symmetrized matrix
    (their absolute values are its singular values).  A singular matrix,
    the zero matrix included, fails the check with no division.
    """
    mat = 0.5 * (mat + mat.T)
    if mat.size:
        ev = np.abs(np.linalg.eigvalsh(mat))
        if not 0 < ev.max() <= ev.min() * _COND_LIMIT:
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


def build_target(basis: TargetBasis) -> TargetSpec:
    """Contrast vectors of every selected coordinate, solved in one call."""
    units = np.eye(basis.design.shape[1])[:, basis.columns]
    contrast = basis.design @ cho_solve(basis.factor, units)
    return TargetSpec(contrast=contrast, norm2=(contrast * contrast).sum(axis=0))


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
    vartheta2 = (rj * theta_r).sum(axis=0)
    no_variance = ~(vartheta2 > 0)
    Qj = theta_r / np.where(no_variance, 1.0, vartheta2)
    O = rep.opt
    observed = O @ rj
    A_obs = O[:, None] - Qj * observed

    scale = _ZERO_ROW_RTOL * np.linalg.norm(rep.L, axis=1)[:, None] * np.linalg.norm(Qj, axis=0)
    lower, upper, violated = line_interval(rep.L @ Qj, rep.M[:, None] - rep.L @ A_obs, scale)

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
        Pj=Pj, rj=rj, Qj=Qj, A_obs=A_obs, vartheta2=vartheta2,
        lower=lower, upper=upper, errors=[error(j) for j in range(vartheta2.size)],
    )
