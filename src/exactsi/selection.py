"""The randomized lasso and the linear stationarity representation of its event.

The solver returns the observed selection outcome (selected set E, active
solution o, signs S, inactive subgradient), from which ``lasso_event_rep``
emits the lasso's stationarity map

    w = -X'y + X'X_E o + lam z

satisfied at the solution, z the full subgradient (S on E, the inactive
subgradient off it), together with the selection event ``sign(o) = S``, in
the order of the features.  Every piece is read from the dataset's
sufficient statistics X'X and X'y, so nothing here has n rows.  The carving
randomization ``tau2 B``, B the Gram (jittered where its rank test drops a
column), is drawn from the dataset's one Cholesky factor of B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg.blas import dtrmv
from scipy.linalg.lapack import dposv

from .errors import (
    ConvergenceError,
    ExactSIError,
    InconsistentOutcomeError,
    InvalidArgumentError,
    InvalidSchemeError,
    SingularDesignError,
)
from .numerics import cho_factor, factor_spd, independent_columns, scaled_rcond

_AS_MAX_STEPS = 1_000


@dataclass(frozen=True)
class Dataset:
    """Regression data: response ``y``, fixed design ``X``, optional known noise sd.

    The sufficient statistics ``gram`` (X'X) and ``xty`` (X'y), both
    read-only, X in column-major order (``column_major``), the columns the
    Gram's rank test keeps, the Cholesky factor of the randomization base
    and its scaled condition, and the factor of the Gram of each set of
    columns asked for (``factor_columns``) are formed once, on first use,
    for every stage that reads them; ``X`` and ``y`` must not change in
    place."""

    y: np.ndarray
    X: np.ndarray
    sigma: float | None = None
    _factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "X", np.asarray(self.X, dtype=float))
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

    @cached_property
    def gram(self) -> np.ndarray:
        gram = self.X.T @ self.X
        gram.flags.writeable = False
        return gram

    @cached_property
    def column_major(self) -> np.ndarray:
        """``X`` in column-major order, read-only.  It is the layout of the
        copy that ``X[:, cols]`` makes, and BLAS sums a product in an order
        set by the layout: X'y and the full-model plug-in's fit read it, so
        that they, the noise estimate and every penalty scaled by it keep
        the bits of the arithmetic on such a copy."""
        column_major = np.asfortranarray(self.X)
        column_major.flags.writeable = False
        return column_major

    @cached_property
    def xty(self) -> np.ndarray:
        xty = self.column_major.T @ self.y  # one dot product per column
        xty.flags.writeable = False
        return xty

    @cached_property
    def independent_columns(self) -> np.ndarray:
        """``numerics.independent_columns`` of the Gram."""
        return independent_columns(self.gram)

    def randomization_base(self) -> np.ndarray:
        """The Gram, plus a diagonal jitter of ``1e-8 * tr(X'X)/p`` exactly
        when its rank test (``independent_columns``) drops a column (p > n,
        or a duplicated column), so that full-rank closed-form identities
        stay exact.  The carving covariance is ``tau2`` times this matrix."""
        gram, p = self.gram, self.p
        if self.independent_columns.size < p:
            gram = gram + (1e-8 * np.trace(gram) / p) * np.eye(p)
        return gram

    @cached_property
    def randomization_factor(self) -> tuple | None:
        """``cho_factor`` of ``randomization_base`` (upper), or None where
        Cholesky fails.  It is the one factor of a p x p matrix per dataset:
        the randomization draw, the conditioning geometry, the exact pivot's
        constants and, when every column is independent, the full-model
        plug-in and contrasts read it, each with its own check."""
        try:
            return cho_factor(self.randomization_base())
        except (np.linalg.LinAlgError, ValueError):
            return None

    @cached_property
    def randomization_rcond(self) -> float:
        """``numerics.scaled_rcond`` of the randomization base from its
        factor, or 0 where there is none; formed only where it is checked."""
        factor = self.randomization_factor
        return 0.0 if factor is None else scaled_rcond(self.randomization_base(), factor)

    def factor_columns(self, cols: np.ndarray, what: str) -> tuple:
        """``factor_spd`` of the Gram of the columns ``cols``, read from
        ``gram`` and kept for the next stage that asks for the same columns.
        Where the check fails it raises ``SingularDesignError`` naming
        ``what``, and keeps nothing, so each stage reports its own failure."""
        cols = np.asarray(cols, dtype=int)
        key = cols.tobytes()
        if key not in self._factors:
            self._factors[key] = factor_spd(
                self.gram[np.ix_(cols, cols)], what, SingularDesignError
            )
        return self._factors[key]


@dataclass
class RandomizationScheme:
    """Carving-calibrated Gaussian randomization covariance ``tau2 * X'X``,
    with the jitter of ``Dataset.randomization_base``.  The pipeline never
    forms it: it works on the dataset's factor of the base."""

    tau2: float = 1.0

    def __post_init__(self):
        if not self.tau2 > 0:
            raise InvalidSchemeError("tau2 must be positive")

    def covariance(self, data: Dataset) -> np.ndarray:
        return self.tau2 * data.randomization_base()


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
    """Stationarity identity and selection event of one randomized lasso fit.

    ``randomization - (-stat + Q @ opt + offset)`` vanishes at the observed
    solution and ``signs * opt > 0`` holds there: ``stat`` is X'y, ``Q`` the
    Gram's columns E with the ridge on rows E, and ``offset`` lam times the
    full subgradient.  Rows follow the order of the features.
    """

    Q: np.ndarray
    offset: np.ndarray
    stat: np.ndarray
    opt: np.ndarray
    signs: np.ndarray
    randomization: np.ndarray

    def reconstruction_residual(self) -> float:
        fit = self.Q @ self.opt + self.offset - self.stat
        return float(np.max(np.abs(self.randomization - fit)))


def _check_rep(rep: LinearEventRep, what: str) -> LinearEventRep:
    """Check the identity to 1e-9 of the terms it balances, ``stat`` and ``w``."""
    resid = rep.reconstruction_residual()
    magnitude = max(np.max(np.abs(rep.stat)), np.max(np.abs(rep.randomization)))
    if resid > 1e-9 * magnitude:
        raise InconsistentOutcomeError(
            f"{what}: stationarity reconstruction residual {resid:.3e}"
        )
    if not (rep.signs * rep.opt > 0).all():
        raise InconsistentOutcomeError(f"{what}: observed solution violates its signs")
    return rep


def sample_randomization(data: Dataset, tau2: float, seed: int) -> np.ndarray:
    """Draw one N(0, tau2 B) vector, B the dataset's randomization base, as
    ``sqrt(tau2) R'z`` from its factor ``B = R'R``; deterministic in
    ``seed``.  Raises ``InvalidSchemeError`` where B has no factor."""
    z = np.random.default_rng(seed).standard_normal(data.p)
    factor = data.randomization_factor
    if factor is None:
        raise InvalidSchemeError("randomization covariance is not PD")
    return math.sqrt(tau2) * dtrmv(factor[0], z, trans=1)


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
    return 1e-4 * float(np.mean(np.diag(data.gram)))


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


def _unbounded(gram: np.ndarray, c: np.ndarray, lam: float) -> bool:
    """Whether ``0.5 b'Hb - c'b + lam ||b||_1`` with ``H = gram`` is unbounded
    below.  It is bounded exactly when ``-c'z + lam ||z||_1 >= 0`` on the null
    space of H, that is (by duality) when ``t* = min_v ||c - Hv||_inf <= lam``;
    t* is the LP ``min t`` subject to ``-t <= c - Hv <= t``, solved by HiGHS.

    ``linprog`` is imported here, not at module level: only a search that
    cannot certify its answer comes here, and ``scipy.optimize`` would
    otherwise add about 0.1 s to every process's cold start.
    """
    from scipy.optimize import linprog

    ones = np.ones((c.size, 1))
    rows, cost = np.block([[-gram, -ones], [gram, -ones]]), np.r_[np.zeros(c.size), 1.0]
    res = linprog(cost, A_ub=rows, b_ub=np.r_[-c, c], bounds=(None, None), method="highs")
    return res.status == 0 and res.fun > lam * (1 + 1e-9)


def _active_set_lasso(
    gram: np.ndarray, c: np.ndarray, lam: float, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Feature-sign search on ``0.5 b'Hb - c'b + lam ||b||_1``, ``H = gram + eps I``.

    Returns the solution b and ``g = c - gram b`` there, which is ``c - H b``
    off the support.

    ``tol = 1e-11 * max(||c||_inf, lam)`` is both the margin an inactive
    coordinate must clear to enter and the bound the final KKT residual must
    meet.  It scales with the data, so a change of units in y changes
    nothing, and not with b, so it cannot grow along an unbounded direction.
    Raises ``InvalidArgumentError`` when a null-space step shrinks no
    coordinate (the objective is unbounded below along it).  The search
    exits uncertified after more than ``_AS_MAX_STEPS`` restricted solves,
    at a repeated (A, theta) pair (which a bounded objective cannot give),
    at a singular restricted Gram with no null-space step, or when the
    certificate fails.  There, with epsilon = 0, ``_unbounded`` decides
    whether the objective is unbounded below (``InvalidArgumentError``);
    otherwise it raises ``ConvergenceError`` with the last KKT residual.
    """
    tol = 1e-11 * max(float(np.max(np.abs(c))), lam)
    seen = set()  # the (A, theta) pairs solved so far

    def uncertified(why: str) -> ExactSIError:
        if epsilon == 0 and _unbounded(gram, c, lam):
            return InvalidArgumentError("lasso objective is unbounded below")
        resid = _kkt_residual(gram @ b, c, b, lam, epsilon)
        return ConvergenceError(
            f"active-set lasso: {why} (KKT residual {resid:.3e}, tolerance {tol:.3e})",
            residual=resid,
        )

    b = np.zeros(c.size)
    # the active coordinates and their signs, as lists that grow by append,
    # and as the index arrays of the current restricted solve
    active: list[int] = []
    signs: list[float] = []
    A, theta = np.zeros(0, dtype=int), np.zeros(0)
    g = c.copy()  # c - X'X b, which is c - H b off the support
    steps = 0
    while True:
        slack = np.abs(g)
        slack[A] = 0.0
        j = int(np.argmax(slack))
        if not slack[j] > lam + tol:
            break
        active.append(j)
        signs.append(float(np.sign(g[j])))
        A, theta = np.array(active), np.array(signs)
        while active:
            steps += 1
            if steps > _AS_MAX_STEPS:
                raise uncertified(f"more than {_AS_MAX_STEPS} restricted solves")
            pair = frozenset(zip(active, signs))
            if pair in seen:
                raise uncertified("repeated active set and signs")
            seen.add(pair)
            H_AA = gram[A[:, None], A]
            if epsilon:
                H_AA = H_AA + epsilon * np.eye(A.size)
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
                active, signs = A.tolist(), theta.tolist()
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
            active, signs = A.tolist(), theta.tolist()
        g = c - gram[:, A] @ b[A]
    if _kkt_residual(gram @ b, c, b, lam, epsilon) > tol:
        raise uncertified("KKT certificate failed")
    return b, g


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
    violates its bound.  On a bounded objective no (A, theta) pair repeats,
    so it ends after finitely many solves, typically about |A|; the solution
    is a linear solve away from the KKT conditions, not a tolerance away like
    an iterative method.
    When ``H_AA`` is singular (more active columns than the design's rank,
    as with p > n and epsilon = 0), the search steps along the null space of
    ``H_AA``, as LARS does (Efron et al. 2004), until a coordinate reaches
    zero, and drops that coordinate.

    The search is the only solver, and its answer is certified to a KKT
    residual of ``1e-11 * max(||c||_inf, lam)`` (see ``_active_set_lasso``).
    Raises ``InvalidArgumentError`` when the objective is unbounded below (a
    zero-norm column with epsilon = 0, a null-space direction of the active
    columns, or, where the search cannot certify its answer, the LP test of
    ``_unbounded``), and otherwise ``ConvergenceError``, carrying the KKT
    residual, when the search cannot certify its answer.

    The search runs on the dataset's sufficient statistics ``X'X`` and
    ``X'y`` alone.  The inactive subgradient ``(w_I + X_I'(y - X_E b_E)) /
    lam`` is the search's last residual ``c - X'X b`` on the inactive
    coordinates, over lam, so no n-length residual is formed.
    """
    if not lam > 0:
        raise InvalidArgumentError("lam must be positive")
    if epsilon < 0:
        raise InvalidArgumentError("epsilon must be nonnegative")
    w = np.asarray(w, dtype=float)
    if w.shape != (data.p,):
        raise InvalidArgumentError("w has the wrong length")
    gram = data.gram
    diag = np.diag(gram)
    c = data.xty + w
    if (diag + epsilon <= 0).any():
        bad = int(np.argmin(diag + epsilon))
        if abs(c[bad]) > lam:
            raise InvalidArgumentError(
                f"column {bad} has zero norm and epsilon=0: objective unbounded"
            )
    b, g = _active_set_lasso(gram, c, lam, epsilon)
    selected = np.flatnonzero(b)
    active_sol = b[selected]
    return SelectionOutcome(
        selected=selected,
        active_solution=active_sol,
        signs=np.sign(active_sol),
        inactive_subgradient=g[b == 0] / lam,
        randomization=w,
    )


def lasso_event_rep(
    data: Dataset, outcome: SelectionOutcome, lam: float, epsilon: float
) -> LinearEventRep:
    """Stationarity identity of the randomized lasso: ``Q`` is the Gram's
    columns E, with the ridge on rows E, and ``offset`` is ``lam z``."""
    E = outcome.selected
    Q = data.gram[:, E]
    Q[E, np.arange(E.size)] += epsilon
    z = np.empty(data.p)
    z[E] = outcome.signs
    z[np.setdiff1d(np.arange(data.p), E)] = outcome.inactive_subgradient
    rep = LinearEventRep(
        Q=Q,
        offset=lam * z,
        stat=data.xty,
        opt=outcome.active_solution,
        signs=outcome.signs,
        randomization=outcome.randomization,
    )
    return _check_rep(rep, "lasso event")
