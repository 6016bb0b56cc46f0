"""The randomized lasso and the linear stationarity representation of its event.

The solver returns the observed selection outcome (selected set E, active
solution o, signs S, inactive subgradient), from which ``lasso_event_rep``
emits the lasso's stationarity map

    w = -X'y + X'X_E o + lam z

satisfied at the solution, z the full subgradient (S on E, the inactive
subgradient off it), together with the selection event ``sign(o) = S``, in
the order of the features.  Every piece is read from the dataset's
sufficient statistics X'X and X'y, so nothing here has n rows.  The carving
randomization is drawn from the factor of ``Dataset.randomization_base``.
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
)
from .numerics import check_conditioning, scaled_rcond, try_cho_factor, well_conditioned

_AS_MAX_STEPS = 1_000
_JITTER_COND = 1e8  # the scaled condition that ``Dataset.randomization_base`` aims at


def _finite(product, what: str) -> np.ndarray:
    """``product()``, read-only; ``InvalidArgumentError`` naming ``what``
    where it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        stat = product()
    if not np.isfinite(stat).all():
        raise InvalidArgumentError(f"{what} is not finite: the data are too large")
    stat.flags.writeable = False
    return stat


def _rcond(entry: list) -> float:
    """The scaled rcond of a store entry ``[matrix, factor, rcond]``, formed once."""
    if entry[2] is None:
        entry[2] = 0.0 if entry[1] is None else scaled_rcond(entry[0], entry[1])
    return entry[2]


@dataclass(frozen=True)
class Dataset:
    """Regression data: response ``y`` and fixed design ``X``.  A known noise
    sd is not data: ``calibrate`` takes it.

    The statistics of X alone are formed once, on first use, in one store
    that every dataset on the same X shares (``with_response``).  It keeps
    only p x p matrices: the Gram ``gram`` (X'X), and the Cholesky factor
    (``factor``) and verdict (``checked_factor``) of each Gram block, or the
    randomization base, that a stage asks for.  ``xty`` (X'y) is the
    dataset's own.  All are read-only; ``X`` and ``y`` must not change in
    place."""

    y: np.ndarray
    X: np.ndarray
    # "gram", or key of a factored matrix (``_entry``) -> its value
    _design: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "X", np.asarray(self.X, dtype=float))
        self._check(self.y, self.X)

    def _check(self, *cells: np.ndarray) -> None:
        """Check the shapes, and that the unchecked arrays ``cells`` are finite."""
        if self.y.ndim != 1 or self.X.ndim != 2:
            raise InvalidArgumentError("y must be a vector and X a matrix")
        if self.X.shape[0] != self.y.shape[0]:
            raise InvalidArgumentError("X and y disagree on the sample count")
        if self.n < 2:
            raise InvalidArgumentError("need at least 2 observations")
        if self.p < 1:
            raise InvalidArgumentError("need at least 1 feature")
        if not all(np.isfinite(cell).all() for cell in cells):
            raise InvalidArgumentError("data contains NaN or Inf")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def with_response(self, y: np.ndarray) -> Dataset:
        """The dataset of the response ``y`` on this X, which shares this
        one's store of the statistics of X; only the cells of ``y`` are checked."""
        y = np.asarray(y, dtype=float)
        return self._derive(y, self.X, y)

    def subset(self, rows: np.ndarray, columns: np.ndarray | None = None) -> Dataset:
        """The dataset of the rows ``rows`` of this one, and of its columns
        ``columns`` (all by default), X copied as ``X[rows]`` or ``X[np.ix_(rows,
        columns)]``, with a store of its own; its cells are not checked again."""
        X = self.X[rows] if columns is None else self.X[np.ix_(rows, columns)]
        return self._derive(self.y[rows], X)

    def _derive(self, y: np.ndarray, X: np.ndarray, *unchecked: np.ndarray) -> Dataset:
        """The dataset of ``y`` on ``X``, sharing this one's store where ``X``
        is this X; of its cells, only the arrays ``unchecked`` are checked."""
        data = object.__new__(Dataset)  # frozen: its fields are set in its __dict__
        data.__dict__.update(y=y, X=X, _design=self._design if X is self.X else {})
        data._check(*unchecked)
        return data

    @property
    def gram(self) -> np.ndarray:
        if "gram" not in self._design:
            self._design["gram"] = _finite(lambda: self.X.T @ self.X, "X'X")
        return self._design["gram"]

    @cached_property
    def xty(self) -> np.ndarray:
        # One dot product per column of a transient column-major copy: that
        # is the layout of the copy ``X[:, cols]`` makes, and BLAS sums in an
        # order set by the layout, so X'y, the plug-in's fit on such a copy
        # and every penalty scaled by its noise estimate keep the same bits.
        return _finite(lambda: np.asfortranarray(self.X).T @ self.y, "X'y")

    def randomization_base(self) -> np.ndarray:
        """B of the carving covariance ``tau2 B``, read-only: the Gram where it
        passes its check (``checked_factor``), else the Gram plus ``delta d`` on
        its diagonal, d the Gram's diagonal (1 for a zero column) and delta the
        unit-free 1-norm of the Gram scaled to unit diagonal over ``_JITTER_COND``,
        which bounds B's scaled condition (2-norm) by about ``_JITTER_COND``."""
        return self._entry(None)[0]

    def factor(self, cols: np.ndarray | None = None) -> tuple | None:
        """The upper ``cho_factor`` of the Gram block ``cols``, or of
        ``randomization_base`` for None, or None where Cholesky fails: one per
        matrix (B and the Gram share theirs) for every dataset on this X."""
        return self._entry(cols)[1]

    def checked_factor(
        self, cols: np.ndarray | None, what: str, error: type[ExactSIError]
    ) -> tuple:
        """``factor(cols)``, or ``error`` ("<what> is singular or ill-conditioned")
        where it fails the rule of ``numerics.factor_spd``; one verdict per matrix."""
        check_conditioning(_rcond(self._entry(cols)), what, error)
        return self.factor(cols)

    def _entry(self, cols: np.ndarray | None) -> list:
        """The store's ``[matrix, factor, rcond]`` of ``factor(cols)``, keyed by the
        columns' bytes, or None for B (the Gram's entry where that passes)."""
        key = None if cols is None else np.asarray(cols, dtype=int).tobytes()
        if key not in self._design:
            gram, every = self.gram, np.arange(self.p)
            if cols is not None:
                matrix = gram if key == every.tobytes() else gram[np.ix_(cols, cols)]
            elif well_conditioned(_rcond(own := self._entry(every))):
                return self._design.setdefault(None, own)
            else:
                d = np.where(np.diag(gram) > 0, np.diag(gram), 1.0)
                delta = np.abs(gram / np.sqrt(np.outer(d, d))).sum(axis=0).max() / _JITTER_COND
                matrix = gram + np.diag(delta * d)
                matrix.flags.writeable = False
            self._design[key] = [matrix, try_cho_factor(matrix), None]
        return self._design[key]


@dataclass
class RandomizationScheme:
    """Carving-calibrated Gaussian randomization covariance ``tau2 B``, B the
    dataset's ``randomization_base``.  No pipeline stage builds it: the draw
    works on tau2 and the dataset's factor of the base."""

    tau2: float = 1.0

    def __post_init__(self):
        check_tau2(self.tau2)

    def covariance(self, data: Dataset) -> np.ndarray:
        return self.tau2 * data.randomization_base()


@dataclass
class SelectionOutcome:
    """Observed values at a randomized selection solution, and its KKT residual."""

    selected: np.ndarray
    active_solution: np.ndarray
    signs: np.ndarray
    inactive_subgradient: np.ndarray
    randomization: np.ndarray
    kkt_residual: float


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


def check_tau2(tau2: float) -> None:
    """Raise ``InvalidSchemeError`` unless the randomization variance is positive."""
    if not tau2 > 0:
        raise InvalidSchemeError("tau2 must be positive")


def sample_randomization(data: Dataset, tau2: float, seed: int) -> np.ndarray:
    """Draw one N(0, tau2 B) vector, B the dataset's randomization base, as
    ``sqrt(tau2) R'z`` from its factor ``B = R'R``; deterministic in
    ``seed``.  Raises ``InvalidSchemeError`` unless tau2 > 0 and B factors."""
    check_tau2(tau2)
    z = np.random.default_rng(seed).standard_normal(data.p)
    factor = data.factor()
    if factor is None:
        raise InvalidSchemeError("randomization covariance is not PD")
    return math.sqrt(tau2) * dtrmv(factor[0], z, trans=1)


def check_noise_scale(value: float, what: str) -> None:
    """Raise ``InvalidArgumentError`` unless the noise scale ``what`` is finite and positive."""
    if not 0 < value < math.inf:
        raise InvalidArgumentError(f"{what} {value!r} is not finite and positive")


def tau2_from_split(sigma2_hat: float, n: int, n1: int) -> float:
    """Randomization variance matching selection on an ``n1``-subsample."""
    if not 0 < n1 < n:
        raise InvalidArgumentError(f"need 0 < n1 < n, got n1={n1}, n={n}")
    check_noise_scale(sigma2_hat, "sigma2_hat")
    return sigma2_hat * (n - n1) / n1


def check_epsilon(epsilon: float) -> None:
    """Raise ``InvalidArgumentError`` for a negative ridge term."""
    if epsilon < 0:
        raise InvalidArgumentError("epsilon must be nonnegative")


def default_epsilon(data: Dataset) -> float:
    """Ridge default: 0 for tall designs, else a small Gram-scaled value."""
    if data.n > data.p:
        return 0.0
    return 1e-4 * float(np.mean(np.diag(data.gram)))


def _kkt_residual(
    s: np.ndarray, c: np.ndarray, b: np.ndarray, lam: float, epsilon: float
) -> float:
    """Largest stationarity violation at ``b``, given ``s = X'X b``."""
    on, off = b.nonzero()[0], (b == 0).nonzero()[0]
    resid = 0.0
    if on.size:
        b_on = b[on]
        stat = s[on] - c[on] + epsilon * b_on + lam * np.sign(b_on)
        resid = float(np.abs(stat).max())
    if off.size:
        slack = np.abs(c[off] - s[off]) - lam
        resid = max(resid, float(max(slack.max(), 0.0)))
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
) -> tuple[np.ndarray, np.ndarray, float]:
    """Feature-sign search on ``0.5 b'Hb - c'b + lam ||b||_1``, ``H = gram + eps I``.

    Returns the solution b, ``g = c - gram b`` there, which is ``c - H b``
    off the support, and the KKT residual that certified b.

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

    The active set A, in the order its coordinates entered, its signs theta
    and ``c_A - lam theta`` are views of length-p arrays, and gram's columns
    at A are the leading columns of one buffer: an entering coordinate
    appends its column, and a line search or null-space step that drops
    coordinates compacts the buffer, keeping their order.  The buffer starts
    with room for 16 columns and doubles when full, so it never holds more
    than 16 or twice the largest |A| reached.  ``H_AA`` is a row gather of
    it, and the residual ``g`` one product with it.  The buffer is
    column-major, the layout of the copy that ``gram[:, A]`` makes, because
    BLAS sums ``gram[:, A] @ b_A`` in an order set by the layout: a
    row-major buffer changes the last bits of g, and with them the path of
    the search.  A pair (A, theta) is keyed by the bytes of a length-p
    vector holding theta on A and 0 elsewhere.
    """
    p = c.size
    tol = 1e-11 * max(float(np.abs(c).max()), lam)
    seen = set()  # the keys of the (A, theta) pairs solved so far

    def uncertified(why: str) -> ExactSIError:
        if epsilon == 0 and _unbounded(gram, c, lam):
            return InvalidArgumentError("lasso objective is unbounded below")
        resid = _kkt_residual(gram @ b, c, b, lam, epsilon)
        return ConvergenceError(
            f"active-set lasso: {why} (KKT residual {resid:.3e}, tolerance {tol:.3e})",
            residual=resid,
        )

    b = np.zeros(p)
    g = c.copy()  # c - X'X b, which is c - H b off the support
    # A = index[:k], theta = sign[:k], c_A - lam theta = rhs[:k] and
    # gram[:, A] = columns[:, :k]
    index, sign, rhs, k = np.empty(p, dtype=int), np.empty(p), np.empty(p), 0
    columns = np.empty((p, min(p, 16)), order="F")
    pattern = np.zeros(p, dtype=np.int8)  # theta on A, 0 elsewhere

    def compact(keep: np.ndarray, kept_signs: np.ndarray) -> int:
        """Keep the coordinates ``keep`` of A, in order, with signs
        ``kept_signs``; returns the new |A|."""
        kept = index[:k][keep]
        pattern[index[:k]] = 0
        pattern[kept] = kept_signs
        m = kept.size
        index[:m], sign[:m], rhs[:m] = kept, kept_signs, c[kept] - lam * kept_signs
        columns[:, :m] = columns[:, :k][:, keep]
        return m

    steps = 0
    while True:
        slack = np.abs(g)
        slack[index[:k]] = 0.0
        j = int(slack.argmax())
        if not slack[j] > lam + tol:
            break
        if k == columns.shape[1]:
            grown = np.empty((p, min(p, 2 * k)), order="F")
            grown[:, :k] = columns[:, :k]
            columns = grown
        index[k], sign[k] = j, 1.0 if g[j] > 0 else -1.0
        rhs[k] = c[j] - lam * sign[k]
        columns[:, k] = gram[:, j]
        pattern[j] = sign[k]
        k += 1
        while k:
            A, theta = index[:k], sign[:k]
            steps += 1
            if steps > _AS_MAX_STEPS:
                raise uncertified(f"more than {_AS_MAX_STEPS} restricted solves")
            key = pattern.tobytes()
            if key in seen:
                raise uncertified("repeated active set and signs")
            seen.add(key)
            H_AA = columns[A, :k]
            if epsilon:
                H_AA = H_AA + epsilon * np.eye(k)
            _, new, info = dposv(H_AA, rhs[:k])  # Cholesky solve
            if info:
                # H_AA is singular (more active columns than the rank, as
                # with p > n and epsilon = 0).  As in LARS, step along the
                # part of the restricted residual in its null space: there
                # the restricted objective falls linearly, so go until the
                # first coordinate reaches zero, then drop that coordinate.
                old = b[A]
                evals, evecs = np.linalg.eigh(H_AA)
                null = evecs[:, evals <= k * np.finfo(float).eps * evals[-1]]
                z = null @ (null.T @ (rhs[:k] - H_AA @ old))
                if not z.any():
                    raise uncertified("singular restricted Gram with no null-space step")
                shrinking = theta * z < 0
                if not shrinking.any():
                    # H_AA z = 0 and theta'z = ||z||_1, so the objective falls
                    # at rate z'(c_A - lam theta - H_AA old) = ||z||^2 along z.
                    raise InvalidArgumentError("lasso objective is unbounded below")
                t = -old[shrinking] / z[shrinking]
                i = int(np.argmin(t))
                best = old + t[i] * z
                best[np.flatnonzero(shrinking)[i]] = 0.0
                b[A] = best
                keep = best != 0
                k = compact(keep, theta[keep])
                continue
            agree = new * theta > 0
            if np.count_nonzero(agree) == k:
                b[A] = new
                break
            # Discrete line search over the zero crossings of old -> new.  Up to
            # the first crossing the signs agree with theta, where the objective
            # is the restricted quadratic that decreases towards new, so the
            # best candidate lowers the objective.
            old = b[A]
            cross = np.flatnonzero(~agree & (old != 0))
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
            k = compact(keep, np.sign(best[keep]))
        g = c - columns[:, :k] @ b[index[:k]]
    if (resid := _kkt_residual(gram @ b, c, b, lam, epsilon)) > tol:
        raise uncertified("KKT certificate failed")
    return b, g, resid


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

    The search is the only solver; the outcome's ``kkt_residual`` is certified
    to at most ``1e-11 * max(||c||_inf, lam)`` (see ``_active_set_lasso``).
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
    check_epsilon(epsilon)
    w = np.asarray(w, dtype=float)
    if w.shape != (data.p,):
        raise InvalidArgumentError("w has the wrong length")
    gram = data.gram
    diag = np.diag(gram)
    c = data.xty + w
    zero_norm = diag + epsilon <= 0
    if zero_norm.any():
        # unbounded along the first zero-norm column whose |c_j| exceeds lam
        unbounded = np.flatnonzero(zero_norm & (np.abs(c) > lam))
        if unbounded.size:
            raise InvalidArgumentError(
                f"column {unbounded[0]} has zero norm and epsilon=0: objective unbounded"
            )
    b, g, resid = _active_set_lasso(gram, c, lam, epsilon)
    selected = np.flatnonzero(b)
    active_sol = b[selected]
    return SelectionOutcome(
        selected=selected,
        active_solution=active_sol,
        signs=np.sign(active_sol),
        inactive_subgradient=g[b == 0] / lam,
        randomization=w,
        kkt_residual=resid,
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
