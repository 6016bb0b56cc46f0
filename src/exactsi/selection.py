"""Randomized selection programs and their linear stationarity representations.

Each solver returns the observed selection outcome (selected set, active
solution, signs, inactive subgradient) and can emit the affine identity

    w = P @ stat + Q @ opt + R @ sub + T

satisfied at the solution, together with the constraint pair ``L, M`` such
that ``L @ opt < M`` encodes the selection event.  Rows are permuted
active-first; the permutation is stored on the representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    InconsistentOutcomeError,
    InvalidArgumentError,
    InvalidSchemeError,
)

RECONSTRUCTION_TOL = 1e-6
_CD_MAX_SWEEPS = 50_000
_CD_TOL = 1e-10


@dataclass
class Dataset:
    """Regression data: response ``y``, fixed design ``X``, optional known noise sd."""

    y: np.ndarray
    X: np.ndarray
    sigma: float | None = None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.X = np.asarray(self.X, dtype=float)
        if self.y.ndim != 1 or self.X.ndim != 2:
            raise InvalidArgumentError("y must be a vector and X a matrix")
        if self.X.shape[0] != self.y.shape[0]:
            raise InvalidArgumentError("X and y disagree on the sample count")
        if self.n < 2:
            raise InvalidArgumentError("need at least 2 observations")
        if self.p < 1:
            raise InvalidArgumentError("need at least 1 feature")
        if not (np.isfinite(self.y).all() and np.isfinite(self.X).all()):
            raise InvalidArgumentError("data contains NaN or Inf")
        if self.sigma is not None and not self.sigma > 0:
            raise InvalidArgumentError("sigma must be positive when given")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass
class RandomizationScheme:
    """Carving-calibrated Gaussian randomization covariance ``tau2 * X'X``.

    A diagonal jitter of ``1e-8 * tr(X'X)/p`` is added only when the Gram
    matrix is numerically rank deficient, so that full-rank closed-form
    identities stay exact.
    """

    tau2: float = 1.0

    def __post_init__(self):
        if not self.tau2 > 0:
            raise InvalidSchemeError("tau2 must be positive")

    def covariance(self, X: np.ndarray) -> np.ndarray:
        p = X.shape[1]
        gram = X.T @ X
        if not _is_pd(gram):
            gram = gram + (1e-8 * np.trace(gram) / p) * np.eye(p)
        return self.tau2 * gram


def _is_pd(mat: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(mat)
        return True
    except np.linalg.LinAlgError:
        return False


@dataclass
class SelectionOutcome:
    """Observed values at a randomized selection solution."""

    selected: np.ndarray
    active_solution: np.ndarray
    signs: np.ndarray
    inactive_subgradient: np.ndarray
    randomization: np.ndarray


@dataclass
class LinearEventRep:
    """Affine stationarity identity and selection constraints for one fit.

    ``randomization - (P @ stat + Q @ opt + R @ sub + T)`` vanishes at the
    observed solution and ``L @ opt < M`` holds strictly there.  All row-indexed
    quantities (``P``, ``Q``, ``R``, ``T``, ``randomization``) follow the
    stored active-first permutation ``order`` of the original feature axis.
    """

    P: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    T: np.ndarray
    L: np.ndarray
    M: np.ndarray
    stat: np.ndarray
    opt: np.ndarray
    sub: np.ndarray
    order: np.ndarray
    randomization: np.ndarray

    def reconstruction_residual(self) -> float:
        fit = self.P @ self.stat + self.Q @ self.opt + self.T
        if self.R.shape[1]:
            fit = fit + self.R @ self.sub
        return float(np.max(np.abs(self.randomization - fit)))

    def constraint_slack(self) -> np.ndarray:
        return self.M - self.L @ self.opt


def _check_rep(rep: LinearEventRep, what: str) -> LinearEventRep:
    resid = rep.reconstruction_residual()
    if resid > RECONSTRUCTION_TOL:
        raise InconsistentOutcomeError(
            f"{what}: stationarity reconstruction residual {resid:.3e}"
        )
    if rep.L.size and not (rep.constraint_slack() > 0).all():
        raise InconsistentOutcomeError(f"{what}: observed solution violates L@opt < M")
    return rep


def sample_randomization(omega: np.ndarray, seed: int) -> np.ndarray:
    """Draw one N(0, omega) vector; deterministic in ``seed``."""
    z = np.random.default_rng(seed).standard_normal(omega.shape[0])
    try:
        chol = np.linalg.cholesky(omega)
    except np.linalg.LinAlgError as exc:
        raise InvalidSchemeError("randomization covariance is not PD") from exc
    return chol @ z


def tau2_from_split(sigma2_hat: float, n: int, n1: int) -> float:
    """Randomization variance matching selection on an ``n1``-subsample."""
    if not 0 < n1 < n:
        raise InvalidArgumentError(f"need 0 < n1 < n, got n1={n1}, n={n}")
    if not sigma2_hat > 0:
        raise InvalidArgumentError("sigma2_hat must be positive")
    return sigma2_hat * (n - n1) / n1


def default_epsilon(data: Dataset) -> float:
    """Ridge default: 0 for tall designs, else a small Gram-scaled value."""
    if data.n > data.p:
        return 0.0
    return 1e-4 * float(np.mean(np.sum(data.X**2, axis=0)))


def _soft(z: float, lam: float) -> float:
    if z > lam:
        return z - lam
    if z < -lam:
        return z + lam
    return 0.0


def solve_randomized_lasso(
    data: Dataset,
    lam: float,
    epsilon: float,
    w: np.ndarray,
) -> SelectionOutcome:
    """Solve the linearly-perturbed lasso

        min_b 0.5 ||y - X b||^2 + 0.5 * epsilon ||b||^2 + lam ||b||_1 - w'b

    by cyclic coordinate descent with exact soft-threshold updates, so the
    active set needs no thresholding heuristic.  Full sweeps alternate with
    sweeps restricted to the current support until the maximum coordinate
    change drops below ``_CD_TOL`` and the stationarity residual is tiny, or
    raises ``ConvergenceError`` after ``_CD_MAX_SWEEPS`` sweeps.
    """
    if not lam > 0:
        raise InvalidArgumentError("lam must be positive")
    if epsilon < 0:
        raise InvalidArgumentError("epsilon must be nonnegative")
    w = np.asarray(w, dtype=float)
    if w.shape != (data.p,):
        raise InvalidArgumentError("w has the wrong length")
    X, y, p = data.X, data.y, data.p
    gram = X.T @ X
    diag = np.diag(gram).copy()
    c = X.T @ y + w
    if (diag + epsilon <= 0).any():
        bad = int(np.argmin(diag + epsilon))
        if abs(c[bad]) > lam:
            raise InvalidArgumentError(
                f"column {bad} has zero norm and epsilon=0: objective unbounded"
            )
    b = np.zeros(p)
    s = np.zeros(p)  # s = gram @ b, maintained incrementally

    def sweep(indices) -> float:
        nonlocal s
        change = 0.0
        for j in indices:
            old = b[j]
            denom = diag[j] + epsilon
            if denom <= 0:
                continue
            new = _soft(c[j] - s[j] + diag[j] * old, lam) / denom
            if new != old:
                s = s + gram[:, j] * (new - old)
                b[j] = new
                change = max(change, abs(new - old))
        return change

    def kkt_residual() -> float:
        active = b != 0
        resid = 0.0
        if active.any():
            stat = s[active] - c[active] + epsilon * b[active] + lam * np.sign(b[active])
            resid = float(np.max(np.abs(stat)))
        if (~active).any():
            slack = np.abs(c[~active] - s[~active]) - lam
            resid = max(resid, float(max(np.max(slack), 0.0)))
        return resid

    sweeps = 0
    converged = False
    all_idx = range(p)
    while sweeps < _CD_MAX_SWEEPS:
        change = sweep(all_idx)
        sweeps += 1
        s = gram @ b  # reset incremental drift at each full pass
        if change <= _CD_TOL and kkt_residual() <= 1e-9:
            converged = True
            break
        active = np.flatnonzero(b)
        while sweeps < _CD_MAX_SWEEPS and active.size:
            if sweep(active) <= _CD_TOL:
                break
            sweeps += 1
    if not converged:
        s = gram @ b
        resid = kkt_residual()
        if resid > 1e-9:
            raise ConvergenceError(
                f"coordinate descent did not converge in {_CD_MAX_SWEEPS} sweeps",
                residual=resid,
            )

    selected = np.flatnonzero(b)
    inactive = np.setdiff1d(np.arange(p), selected)
    active_sol = b[selected]
    signs = np.sign(active_sol)
    resid_vec = y - X[:, selected] @ active_sol
    sub = (w[inactive] + X[:, inactive].T @ resid_vec) / lam
    return SelectionOutcome(
        selected=selected,
        active_solution=active_sol,
        signs=signs,
        inactive_subgradient=sub,
        randomization=w,
    )


def _active_first_order(p: int, selected: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    inactive = np.setdiff1d(np.arange(p), selected)
    return np.concatenate([selected, inactive]).astype(int), inactive


def lasso_event_rep(
    data: Dataset, outcome: SelectionOutcome, lam: float, epsilon: float
) -> LinearEventRep:
    """Stationarity identity of the randomized lasso in (active, inactive) blocks."""
    X, p = data.X, data.p
    E = outcome.selected
    q = E.size
    order, inactive = _active_first_order(p, E)
    XE = X[:, E]
    P = -X[:, order].T
    Q = np.vstack([XE.T @ XE + epsilon * np.eye(q), X[:, inactive].T @ XE])
    R = np.vstack([np.zeros((q, p - q)), lam * np.eye(p - q)])
    T = np.concatenate([lam * outcome.signs, np.zeros(p - q)])
    rep = LinearEventRep(
        P=P,
        Q=Q,
        R=R,
        T=T,
        L=-np.diag(outcome.signs),
        M=np.zeros(q),
        stat=data.y,
        opt=outcome.active_solution,
        sub=outcome.inactive_subgradient,
        order=order,
        randomization=outcome.randomization[order],
    )
    return _check_rep(rep, "lasso event")


def solve_randomized_screening(
    data: Dataset, threshold: float, w: np.ndarray
) -> tuple[SelectionOutcome, LinearEventRep]:
    """Randomized marginal screening: keep features with |X_j'y + w_j| > threshold.

    The active variables are the boundary offsets ``|X_j'y + w_j| - threshold``
    carrying the observed signs; the inactive statistic keeps its sign so the
    stationarity identity reconstructs exactly.
    """
    if not threshold > 0:
        raise InvalidArgumentError("threshold must be positive")
    w = np.asarray(w, dtype=float)
    if w.shape != (data.p,):
        raise InvalidArgumentError("w has the wrong length")
    v = data.X.T @ data.y + w
    selected = np.flatnonzero(np.abs(v) > threshold)
    q = selected.size
    signs = np.sign(v[selected])
    opt = v[selected] - threshold * signs
    order, inactive = _active_first_order(data.p, selected)
    sub = v[inactive]
    outcome = SelectionOutcome(
        selected=selected,
        active_solution=opt,
        signs=signs,
        inactive_subgradient=sub,
        randomization=w,
    )
    rep = LinearEventRep(
        P=-data.X[:, order].T,
        Q=np.vstack([np.eye(q), np.zeros((data.p - q, q))]),
        R=np.vstack([np.zeros((q, data.p - q)), np.eye(data.p - q)]),
        T=np.concatenate([threshold * signs, np.zeros(data.p - q)]),
        L=-np.diag(signs),
        M=np.zeros(q),
        stat=data.y,
        opt=opt,
        sub=sub,
        order=order,
        randomization=w[order],
    )
    return outcome, _check_rep(rep, "screening event")
