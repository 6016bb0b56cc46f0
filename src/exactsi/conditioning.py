"""Conditioning geometry for one target coordinate.

Given the affine stationarity representation of a randomized fit and the
randomization covariance, the selection constraints on the free optimization
block reduce, once a complementary statistic is held fixed, to a single
interval constraint on one linear combination of that block.  This module
builds that reduction: the conditional covariance of the free block, the
combination direction, the complementary statistic, and the interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import (
    GeometryInconsistencyError,
    InvalidArgumentError,
    NumericalDegeneracyError,
    SingularDesignError,
)
from .numerics import Interval
from .selection import Dataset, LinearEventRep, SelectionOutcome

_ZERO_ROW_RTOL = 1e-12
_COND_LIMIT = 1e12


@dataclass(frozen=True)
class TargetSpec:
    """A linear contrast of the mean response selected for inference."""

    model: str
    j: int
    contrast: np.ndarray
    norm2: float


@dataclass(frozen=True)
class ConditioningGeometry:
    """Interval reduction of the selection constraints for one target."""

    Theta: np.ndarray
    Pj: np.ndarray
    rj: np.ndarray
    Qj: np.ndarray
    A_obs: np.ndarray
    interval: Interval
    s_minus: np.ndarray
    s_plus: np.ndarray


def _solve_spd(mat: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Solve an SPD system through a symmetric factorization, never inversion."""
    mat = 0.5 * (mat + mat.T)
    if mat.size and np.linalg.cond(mat) > _COND_LIMIT:
        raise NumericalDegeneracyError(
            f"{what} is ill-conditioned (cond > {_COND_LIMIT:.0e})"
        )
    try:
        return cho_solve(cho_factor(mat), rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalDegeneracyError(f"{what} is not positive definite") from exc


def build_target(
    data: Dataset, outcome: SelectionOutcome, model: str, j: int
) -> TargetSpec:
    """Contrast vector for the j-th selected coordinate under the chosen model.

    ``selected`` targets the partial regression coefficient among the selected
    columns; ``full`` targets the corresponding coordinate of the all-columns
    coefficient vector.
    """
    if model not in ("selected", "full"):
        raise InvalidArgumentError(f"unknown model {model!r}")
    E = outcome.selected
    if not 0 <= j < E.size:
        raise InvalidArgumentError(f"target index {j} outside the selected set")
    X = data.X
    if model == "selected":
        XE = X[:, E]
        gram = XE.T @ XE
        basis = np.zeros(E.size)
        basis[j] = 1.0
        try:
            coefs = _solve_spd(gram, basis, "selected-design Gram")
        except NumericalDegeneracyError as exc:
            raise SingularDesignError(str(exc)) from exc
        contrast = XE @ coefs
    else:
        gram = X.T @ X
        basis = np.zeros(data.p)
        basis[E[j]] = 1.0
        try:
            coefs = _solve_spd(gram, basis, "full-design Gram")
        except NumericalDegeneracyError as exc:
            raise SingularDesignError(str(exc)) from exc
        contrast = X @ coefs
    return TargetSpec(
        model=model, j=j, contrast=contrast, norm2=float(contrast @ contrast)
    )


def theta_and_direction(
    rep: LinearEventRep, Omega: np.ndarray, target: TargetSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Conditional covariance of the free block and the target's direction in it.

    Returns ``(Theta, Pj, rj)`` where ``Theta = (Q' Omega^{-1} Q)^{-1}``,
    ``Pj = P c / ||c||^2`` and ``rj = Q' Omega^{-1} Pj``.  ``Omega`` arrives in
    the original feature order and is aligned to the representation's
    active-first row permutation here.
    """
    Omega = Omega[np.ix_(rep.order, rep.order)]
    Pj = rep.P @ target.contrast / target.norm2
    omega_inv_Q = _solve_spd(Omega, rep.Q, "randomization covariance")
    gram = rep.Q.T @ omega_inv_Q
    q = gram.shape[0]
    theta = _solve_spd(gram, np.eye(q), "conditional precision of the free block")
    rj = omega_inv_Q.T @ Pj
    return theta, Pj, rj


def build_geometry(
    rep: LinearEventRep,
    Omega: np.ndarray,
    target: TargetSpec,
    outcome: SelectionOutcome | None = None,
) -> ConditioningGeometry:
    """Reduce ``L @ opt < M`` to an interval on ``rj' opt`` at fixed complement.

    Constraint rows whose coefficient on the free combination vanishes must
    hold on their own; a violation there, or an observed statistic outside
    the interval, signals an upstream inconsistency rather than data.
    """
    theta, Pj, rj = theta_and_direction(rep, Omega, target)
    theta_r = theta @ rj
    vartheta2 = float(rj @ theta_r)
    if not vartheta2 > 0:
        raise NumericalDegeneracyError("target direction has no conditional variance")
    Qj = theta_r / vartheta2
    O = rep.opt
    observed = float(rj @ O)
    A_obs = O - Qj * observed

    coefs = rep.L @ Qj if rep.L.size else np.zeros(0)
    slack = rep.M - rep.L @ A_obs if rep.L.size else np.zeros(0)
    scale = _ZERO_ROW_RTOL * np.linalg.norm(rep.L, axis=1) * np.linalg.norm(theta_r)
    zero_rows = np.abs(coefs) <= scale
    if (slack[zero_rows] <= 0).any():
        raise GeometryInconsistencyError(
            "a constraint orthogonal to the target direction is violated"
        )
    neg = (~zero_rows) & (coefs < 0)
    pos = (~zero_rows) & (coefs > 0)
    bounds = np.full_like(coefs, np.nan)
    np.divide(slack, coefs, out=bounds, where=~zero_rows)
    lower = float(np.max(bounds[neg])) if neg.any() else -math.inf
    upper = float(np.min(bounds[pos])) if pos.any() else math.inf
    if not lower < upper:
        raise GeometryInconsistencyError(
            f"empty truncation interval [{lower}, {upper}]"
        )
    interval = Interval(lower, upper)
    if not interval.contains(observed):
        raise GeometryInconsistencyError(
            f"observed statistic {observed} outside its own interval {interval}"
        )
    return ConditioningGeometry(
        Theta=theta,
        Pj=Pj,
        rj=rj,
        Qj=Qj,
        A_obs=A_obs,
        interval=interval,
        s_minus=np.flatnonzero(neg),
        s_plus=np.flatnonzero(pos),
    )
