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
from scipy.linalg.lapack import dposv

from .errors import (
    ConvergenceError,
    InconsistentOutcomeError,
    InvalidArgumentError,
    InvalidSchemeError,
)

RECONSTRUCTION_TOL = 1e-6
_CD_MAX_SWEEPS = 50_000
_CD_TOL = 1e-10
_AS_MAX_STEPS = 1_000
_KKT_TOL = 1e-9


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


def _kkt_residual(
    s: np.ndarray, c: np.ndarray, b: np.ndarray, lam: float, epsilon: float
) -> float:
    """Largest stationarity violation at ``b``, given ``s = X'X b``."""
    active = b != 0
    resid = 0.0
    if active.any():
        stat = s[active] - c[active] + epsilon * b[active] + lam * np.sign(b[active])
        resid = float(np.max(np.abs(stat)))
    if (~active).any():
        slack = np.abs(c[~active] - s[~active]) - lam
        resid = max(resid, float(max(np.max(slack), 0.0)))
    return resid


def _active_set_lasso(
    gram: np.ndarray, c: np.ndarray, lam: float, epsilon: float
) -> np.ndarray | None:
    """Feature-sign search on ``0.5 b'Hb - c'b + lam ||b||_1``, ``H = gram + eps I``.

    Returns the solution, or None when it cannot be certified: a restricted
    Gram that is not positive definite, more than ``_AS_MAX_STEPS`` restricted
    solves, or a KKT residual above ``_KKT_TOL``.
    """
    b = np.zeros(c.size)
    A = np.zeros(0, dtype=int)  # active coordinates
    theta = np.zeros(0)  # their signs
    g = c.copy()  # c - X'X b, which is c - H b off the support
    steps = 0
    while True:
        slack = np.abs(g)
        slack[A] = 0.0
        j = int(np.argmax(slack))
        if not slack[j] > lam:
            break
        A = np.append(A, j)
        theta = np.append(theta, np.sign(g[j]))
        while A.size:
            steps += 1
            if steps > _AS_MAX_STEPS:
                return None
            H_AA = gram[A[:, None], A] + epsilon * np.eye(A.size)
            _, new, info = dposv(H_AA, c[A] - lam * theta)  # Cholesky solve
            if info:
                return None
            if (np.sign(new) == theta).all():
                b[A] = new
                break
            # Discrete line search over the zero crossings of old -> new.  Up to
            # the first crossing the signs agree with theta, where the objective
            # is the restricted quadratic that decreases towards new, so the
            # best candidate lowers the objective.
            old = b[A]
            cross = np.flatnonzero((np.sign(new) != theta) & (old != 0))
            t = np.minimum(old[cross] / (old[cross] - new[cross]), 1.0)
            points = old + t[:, None] * (new - old)
            points[np.arange(cross.size), cross] = 0.0
            points = np.vstack([points, new])
            objective = (
                0.5 * np.einsum("ki,ij,kj->k", points, H_AA, points)
                - points @ c[A]
                + lam * np.abs(points).sum(axis=1)
            )
            best = points[int(np.argmin(objective))]
            b[A] = best
            keep = best != 0
            A, theta = A[keep], np.sign(best[keep])
        g = c - gram[:, A] @ b[A]
    if _kkt_residual(gram @ b, c, b, lam, epsilon) > _KKT_TOL:
        return None
    return b


def _cd_lasso(gram: np.ndarray, c: np.ndarray, lam: float, epsilon: float) -> np.ndarray:
    """Cyclic coordinate descent with exact soft-threshold updates.

    Full sweeps alternate with sweeps restricted to the current support until
    the maximum coordinate change drops below ``_CD_TOL`` and the KKT residual
    is below ``_KKT_TOL``, or raises ``ConvergenceError`` after
    ``_CD_MAX_SWEEPS`` sweeps.
    """
    p = c.size
    diag = np.diag(gram).copy()
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

    sweeps = 0
    converged = False
    all_idx = range(p)
    while sweeps < _CD_MAX_SWEEPS:
        change = sweep(all_idx)
        sweeps += 1
        s = gram @ b  # reset incremental drift at each full pass
        if change <= _CD_TOL and _kkt_residual(s, c, b, lam, epsilon) <= _KKT_TOL:
            converged = True
            break
        active = np.flatnonzero(b)
        while sweeps < _CD_MAX_SWEEPS and active.size:
            if sweep(active) <= _CD_TOL:
                break
            sweeps += 1
    if not converged:
        s = gram @ b
        resid = _kkt_residual(s, c, b, lam, epsilon)
        if resid > _KKT_TOL:
            raise ConvergenceError(
                f"coordinate descent did not converge in {_CD_MAX_SWEEPS} sweeps",
                residual=resid,
            )
    return b


def solve_randomized_lasso(
    data: Dataset,
    lam: float,
    epsilon: float,
    w: np.ndarray,
) -> SelectionOutcome:
    """Solve the linearly-perturbed lasso

        min_b 0.5 ||y - X b||^2 + 0.5 * epsilon ||b||^2 + lam ||b||_1 - w'b

    exactly, by feature-sign search (Lee, Battle, Raina & Ng 2007).  With
    ``H = X'X + epsilon I`` and ``c = X'y + w``, the KKT conditions read
    ``c_j - (Hb)_j = lam sign(b_j)`` on the support and
    ``|c_j - (Hb)_j| <= lam`` off it, so once the support A and its signs
    theta are known the solution is the linear solve
    ``H_AA b_A = c_A - lam theta_A``.  The search finds A and theta: it adds
    the inactive coordinate with the largest ``|c_j - (Hb)_j| > lam``, with
    that sign; solves for ``b_A`` by Cholesky; when the solve disagrees with
    theta, moves instead to the best of the zero crossings on the way there
    (a strict decrease of the objective) and drops the coordinates that
    reached zero, then solves again; and stops when no inactive coordinate
    violates its bound.  No (A, theta) pair repeats, so it ends after finitely
    many solves, typically about |A|; the solution is a linear solve away
    from the KKT conditions, not a tolerance away like an iterative method.

    The answer is accepted only if its KKT residual is at most ``_KKT_TOL``.
    When the search cannot certify it (a restricted Gram ``H_AA`` that is not
    positive definite, as with p > n and epsilon = 0, more than
    ``_AS_MAX_STEPS`` solves, or a failed residual check), cyclic coordinate
    descent (``_cd_lasso``) solves the problem instead and raises
    ``ConvergenceError`` if it does not converge.
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
    diag = np.diag(gram)
    c = X.T @ y + w
    if (diag + epsilon <= 0).any():
        bad = int(np.argmin(diag + epsilon))
        if abs(c[bad]) > lam:
            raise InvalidArgumentError(
                f"column {bad} has zero norm and epsilon=0: objective unbounded"
            )
    b = _active_set_lasso(gram, c, lam, epsilon)
    if b is None:
        b = _cd_lasso(gram, c, lam, epsilon)

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
