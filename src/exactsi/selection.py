"""The randomized lasso and the linear stationarity representation of its event.

The solver returns the observed selection outcome (selected set, active
solution, signs, inactive subgradient), from which ``lasso_event_rep`` emits
the affine identity

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
from .numerics import independent_columns

_AS_MAX_STEPS = 1_000


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

    A diagonal jitter of ``1e-8 * tr(X'X)/p`` is added to the Gram matrix
    exactly when ``independent_columns`` drops a column of ``X'X`` (p > n, or
    a duplicated column), so that full-rank closed-form identities stay exact.
    """

    tau2: float = 1.0

    def __post_init__(self):
        if not self.tau2 > 0:
            raise InvalidSchemeError("tau2 must be positive")

    def covariance(self, X: np.ndarray) -> np.ndarray:
        p = X.shape[1]
        gram = X.T @ X
        if independent_columns(gram).size < p:
            gram = gram + (1e-8 * np.trace(gram) / p) * np.eye(p)
        return self.tau2 * gram


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
    """Check the identity to 1e-9 of the terms it balances, ``P @ stat`` and ``w``."""
    resid = rep.reconstruction_residual()
    magnitude = max(np.max(np.abs(rep.P @ rep.stat)), np.max(np.abs(rep.randomization)))
    if resid > 1e-9 * magnitude:
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
) -> np.ndarray:
    """Feature-sign search on ``0.5 b'Hb - c'b + lam ||b||_1``, ``H = gram + eps I``.

    ``tol = 1e-11 * max(||c||_inf, lam)`` is both the margin an inactive
    coordinate must clear to enter and the bound the final KKT residual must
    meet.  It scales with the data, so a change of units in y changes
    nothing, and not with b, so it cannot grow along an unbounded direction.
    Raises ``InvalidArgumentError`` when a null-space step shrinks no
    coordinate (the objective is unbounded below along it), and
    ``ConvergenceError`` with the last KKT residual after more than
    ``_AS_MAX_STEPS`` restricted solves, at a singular restricted Gram with
    no null-space step, or when the certificate fails.
    """
    tol = 1e-11 * max(float(np.max(np.abs(c))), lam)

    def uncertified(why: str) -> ConvergenceError:
        resid = _kkt_residual(gram @ b, c, b, lam, epsilon)
        return ConvergenceError(
            f"active-set lasso: {why} (KKT residual {resid:.3e}, tolerance {tol:.3e})",
            residual=resid,
        )

    b = np.zeros(c.size)
    A = np.zeros(0, dtype=int)  # active coordinates
    theta = np.zeros(0)  # their signs
    g = c.copy()  # c - X'X b, which is c - H b off the support
    steps = 0
    while True:
        slack = np.abs(g)
        slack[A] = 0.0
        j = int(np.argmax(slack))
        if not slack[j] > lam + tol:
            break
        A = np.append(A, j)
        theta = np.append(theta, np.sign(g[j]))
        while A.size:
            steps += 1
            if steps > _AS_MAX_STEPS:
                raise uncertified(f"more than {_AS_MAX_STEPS} restricted solves")
            H_AA = gram[A[:, None], A] + epsilon * np.eye(A.size)
            _, new, info = dposv(H_AA, c[A] - lam * theta)  # Cholesky solve
            if info:
                # H_AA is singular (more active columns than the rank, as
                # with p > n and epsilon = 0).  As in LARS, step along the
                # part of the restricted residual in its null space: there
                # the restricted objective falls linearly, so go until the
                # first coordinate reaches zero, then drop that coordinate.
                old = b[A]
                evals, evecs = np.linalg.eigh(H_AA)
                null = evecs[:, evals <= A.size * np.finfo(float).eps * evals[-1]]
                z = null @ (null.T @ (c[A] - lam * theta - H_AA @ old))
                if not z.any():
                    raise uncertified("singular restricted Gram with no null-space step")
                shrinking = theta * z < 0
                if not shrinking.any():
                    # H_AA z = 0 and theta'z = ||z||_1, so the objective falls
                    # at rate z'(c_A - lam theta - H_AA old) = ||z||^2 along z.
                    raise InvalidArgumentError("lasso objective is unbounded below")
                t = -old[shrinking] / z[shrinking]
                k = int(np.argmin(t))
                best = old + t[k] * z
                best[np.flatnonzero(shrinking)[k]] = 0.0
                b[A] = best
                keep = best != 0
                A, theta = A[keep], theta[keep]
                continue
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
    if _kkt_residual(gram @ b, c, b, lam, epsilon) > tol:
        raise uncertified("KKT certificate failed")
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
    the inactive coordinate with the largest ``|c_j - (Hb)_j| > lam + tol``,
    with that sign; solves for ``b_A`` by Cholesky; when the solve disagrees
    with theta, moves instead to the best of the zero crossings on the way
    there (a strict decrease of the objective) and drops the coordinates that
    reached zero, then solves again; and stops when no inactive coordinate
    violates its bound.  No (A, theta) pair repeats, so it ends after finitely
    many solves, typically about |A|; the solution is a linear solve away
    from the KKT conditions, not a tolerance away like an iterative method.
    When ``H_AA`` is singular (more active columns than the design's rank,
    as with p > n and epsilon = 0), the search steps along the null space of
    ``H_AA``, as LARS does (Efron et al. 2004), until a coordinate reaches
    zero, and drops that coordinate.

    The search is the only solver, and its answer is certified to a KKT
    residual of ``1e-11 * max(||c||_inf, lam)`` (see ``_active_set_lasso``).
    Raises ``InvalidArgumentError`` when the objective is unbounded below (a
    zero-norm column with epsilon = 0, or a null-space direction of the
    active columns), and ``ConvergenceError``, carrying the KKT residual,
    when the search cannot certify its answer.
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
