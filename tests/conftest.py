import csv
import math
from dataclasses import fields

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import brentq
from scipy.special import log_ndtr, logsumexp

from exactsi.errors import (
    ConvergenceError,
    GeometryInconsistencyError,
    InvalidArgumentError,
    NoRootError,
)
from exactsi.inference import (
    POLYHEDRAL_CLIP_SDS,
    IntervalEstimate,
    PivotParams,
    exact_pivot,
    polyhedral_pivot,
)
from exactsi.selection import (
    Dataset,
    RandomizationScheme,
    _kkt_residual,
    lasso_event_rep,
    sample_randomization,
    solve_randomized_lasso,
)

# Stopping rule of the reference lasso solver ``_cd_lasso``.
_CD_MAX_SWEEPS = 50_000
_CD_TOL = 1e-10
_KKT_TOL = 1e-9


def toy_fit():
    """The two-row single-feature instance with hand-checkable arithmetic."""
    data = Dataset(y=np.array([2.0, 0.0]), X=np.array([[1.0], [0.0]]), sigma=1.0)
    out = solve_randomized_lasso(data, lam=1.0, epsilon=0.0, w=np.array([0.5]))
    rep = lasso_event_rep(data, out, lam=1.0, epsilon=0.0)
    omega = RandomizationScheme(tau2=1.0).covariance(data.X)
    return data, out, rep, omega


def random_dataset(rng, n=40, p=8, sigma=1.0):
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[: p // 3] = rng.uniform(1, 3, size=p // 3) * rng.choice([-1, 1], size=p // 3)
    y = X @ beta + sigma * rng.standard_normal(n)
    return Dataset(y=y, X=X, sigma=sigma)


def carving_fit(rng, n=40, p=8, tau2=0.7, lam=None, min_selected=1):
    """A random carving-randomized lasso fit with a nonempty selection."""
    for _ in range(50):
        X = rng.standard_normal((n, p))
        beta = np.zeros(p)
        k = max(1, p // 4)
        beta[rng.choice(p, size=k, replace=False)] = rng.uniform(1, 3, size=k)
        y = X @ beta + rng.standard_normal(n)
        scheme = RandomizationScheme(tau2=tau2)
        omega = scheme.covariance(X)
        w = sample_randomization(omega, seed=int(rng.integers(1 << 30)))
        lam_use = lam if lam is not None else 1.2 * math.sqrt(2 * math.log(p) * n) / 2
        data = Dataset(y=y, X=X, sigma=1.0)
        out = solve_randomized_lasso(data, lam=lam_use, epsilon=0.0, w=w)
        if out.selected.size >= min_selected:
            rep = lasso_event_rep(data, out, lam=lam_use, epsilon=0.0)
            return data, out, rep, omega, lam_use, tau2
    raise AssertionError("could not generate a nonempty selection")


def _soft(z: float, lam: float) -> float:
    if z > lam:
        return z - lam
    if z < -lam:
        return z + lam
    return 0.0


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


def take(record, index):
    """The entries ``index`` of a constants record whose fields are arrays:
    one target's floats for an int, a smaller record for a list of ints."""
    return type(record)(*(np.asarray(getattr(record, f.name))[index] for f in fields(record)))


def stack(records):
    """One constants record whose fields are arrays of the ``records``' fields."""
    return type(records[0])(
        *np.array([[getattr(r, f.name) for f in fields(r)] for r in records], dtype=float).T
    )


def oracle_pivot(params, beta0, nodes=4001, drop=60.0):
    """The exact pivot by a log-space Simpson rule over the weight variable.

    An independent check of ``exact_pivot``: the estimate X ~ N(m, s^2) with
    m = lambda_j beta0 + zeta_j, and the combination Y = theta(X) + vartheta e
    conditioned to the truncation interval, are standardized to U and V.  The
    pivot is int phi(v) P(U <= u | V = v) dv over the truncation interval,
    normalized by its complement's integral plus its own.  Simpson panels
    cover the part of the interval within ``drop`` log-units of V's largest
    density there, split around the steep part of P(U <= u | V = v).
    """
    s = math.sqrt(params.sigma_j2)
    vt2 = params.vartheta2
    m = params.lambda_j * beta0 + params.zeta_j
    sd_y = math.sqrt(vt2 * vt2 * params.sigma_j2 + vt2)
    rho = -vt2 * params.sigma_j2 / (s * sd_y)  # cov(X, Y) / (sd_x sd_y)
    cond_sd = math.sqrt(1.0 - rho * rho)
    u = (params.beta_hat_j - m) / s
    mu_y = params.theta_intercept - vt2 * m
    a = (params.lower - mu_y) / sd_y
    b = (params.upper - mu_y) / sd_y
    nearest = min(max(0.0, a), b)
    reach = math.sqrt(nearest * nearest + 2.0 * drop)
    lo, hi = max(a, -reach), min(b, reach)
    # P(U <= u | V = v) = Phi((u - rho v) / cond_sd) turns over near v = u / rho
    turn, width = u / rho, 12.0 * cond_sd / abs(rho)
    cuts = sorted({lo, hi, *(min(max(c, lo), hi) for c in (turn - width, turn + width))})
    log_below, log_above = [], []
    for left, right in zip(cuts[:-1], cuts[1:]):
        if right <= left:
            continue
        v = np.linspace(left, right, nodes)
        w = np.full(nodes, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        logw = np.log(w * (right - left) / (3.0 * (nodes - 1))) - 0.5 * v * v
        z = (u - rho * v) / cond_sd
        log_below.append(logw + log_ndtr(z))
        log_above.append(logw + log_ndtr(-z))
    lb = logsumexp(np.concatenate(log_below))
    la = logsumexp(np.concatenate(log_above))
    if lb <= la:
        return float(1.0 / (1.0 + np.exp(min(la - lb, 700.0))))
    return float(1.0 - 1.0 / (1.0 + np.exp(min(lb - la, 700.0))))


def carving_pivot_params(data, outcome, target, j, sigma, tau2, lam):
    """Closed-form pivot constants for the carving covariance with no ridge.

    Independent of the generic route: no randomization-covariance solves, only
    the selected-design Gram.  The oracle for the generic constants.
    """
    E = outcome.selected
    XE = data.X[:, E]
    q = E.size
    gram = XE.T @ XE
    factor = cho_factor(gram)
    gram_inv = cho_solve(factor, np.eye(q))
    norm2 = target.norm2
    vartheta2 = 1.0 / (tau2 * norm2)
    sigma_j2 = sigma**2 * norm2
    theta_intercept = float(lam * (gram_inv @ outcome.signs)[j] / (tau2 * norm2))

    # interval on rj'O with rj = -e_j/(tau2*norm2), Theta = tau2 * gram_inv
    O = outcome.active_solution
    qj = -tau2 * gram_inv[:, j]
    r_obs = -O[j] / (tau2 * norm2)
    A = O - qj * r_obs
    lower, upper = -math.inf, math.inf
    for k in range(q):
        coef = -outcome.signs[k] * qj[k]
        bound = outcome.signs[k] * A[k] / coef if coef != 0 else math.nan
        if coef > 0:
            upper = min(upper, bound)
        elif coef < 0:
            lower = max(lower, bound)
        elif -outcome.signs[k] * A[k] >= 0:
            raise GeometryInconsistencyError("sign constraint violated off-direction")
    if not lower < r_obs < upper:
        raise GeometryInconsistencyError("observed combination outside closed-form interval")
    return PivotParams(
        vartheta2=vartheta2,
        sigma_j2=sigma_j2,
        lambda_j=1.0,
        zeta_j=0.0,
        theta_intercept=theta_intercept,
        lower=lower,
        upper=upper,
        beta_hat_j=float(target.contrast @ data.y),
    )


def reference_invert_monotone(g, target, seed_bracket):
    """Scalar reference for ``invert_monotone``: solve ``g(x) = target`` for
    one continuous monotone scalar ``g``.

    The seed bracket is expanded geometrically (factor 2 per step, at most 60
    steps) toward the side that has not yet straddled the target, or toward
    both sides while g ties on the two ends of the bracket, then the
    root is isolated by Brent's method to a bracket width of 1e-10.
    """
    a, b = map(float, seed_bracket)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidArgumentError("seed bracket must be finite")
    ga, gb = g(a), g(b)
    for _ in range(60):
        if min(ga, gb) <= target <= max(ga, gb):
            break
        width = b - a
        increasing = gb >= ga
        target_above = target > max(ga, gb)
        tie = ga == gb
        # For increasing g, values grow to the right; move the deficient side,
        # and on a tie both sides.
        if tie or target_above == increasing:
            b += width
            gb = g(b)
        if tie or target_above != increasing:
            a -= width
            ga = g(a)
    else:
        raise NoRootError(
            f"target {target!r} not straddled after 60 bracket expansions"
        )
    if ga == target:
        return a
    if gb == target:
        return b
    sign = 1.0 if gb >= ga else -1.0
    return float(brentq(lambda x: sign * (g(x) - target), a, b, xtol=1e-10))


def reference_invert_pivot(params, alpha):
    """Scalar reference for one target of ``invert_pivot``."""
    half = 5.0 * math.sqrt(params.sigma_j2) / params.lambda_j
    bracket = (params.beta_hat_j - half, params.beta_hat_j + half)

    def pivot_at(b):
        return exact_pivot(params, b)

    lower = reference_invert_monotone(pivot_at, 1.0 - alpha / 2.0, bracket)
    upper = reference_invert_monotone(pivot_at, alpha / 2.0, bracket)
    return IntervalEstimate(lower=lower, upper=upper, target_label=-1, method="exact")


def reference_polyhedral_interval(bounds, alpha):
    """Scalar reference for one target of ``polyhedral_interval``, in its
    four cases."""
    beta_hat = bounds.beta_hat
    p_lower, p_upper = 1.0 - alpha / 2.0, alpha / 2.0

    def pivot_at(b):
        return polyhedral_pivot(bounds, b)

    clip_lo = beta_hat - POLYHEDRAL_CLIP_SDS * bounds.sd
    clip_hi = beta_hat + POLYHEDRAL_CLIP_SDS * bounds.sd
    below, above = (clip_lo, beta_hat), (beta_hat, clip_hi)
    at_lo, at_hi = pivot_at(clip_lo), pivot_at(clip_hi)
    clipped = False
    if at_lo < p_upper:  # both endpoints below the window
        upper = reference_invert_monotone(pivot_at, p_upper, above)
        lower = reference_invert_monotone(pivot_at, p_lower, below)
    elif at_hi > p_lower:  # both endpoints above the window
        lower = reference_invert_monotone(pivot_at, p_lower, below)
        upper = reference_invert_monotone(pivot_at, p_upper, above)
    else:
        if at_lo < p_lower:
            lower = clip_lo
            clipped = True
        else:
            lower = reference_invert_monotone(pivot_at, p_lower, below)
        if at_hi > p_upper:
            upper = clip_hi
            clipped = True
        else:
            upper = reference_invert_monotone(pivot_at, p_upper, above)
    return IntervalEstimate(
        lower=lower, upper=upper, target_label=-1, method="polyhedral", clipped=clipped
    )


def reference_read_csv(
    path: str, response: str = "y", standardize: bool = False, sigma: float | None = None
) -> tuple[Dataset, list[str]]:
    """Reference for ``cli.read_csv_dataset``: ``float()`` on every cell.

    The reader as it was before the C-parser fast path, kept verbatim, so a
    header-only file still fails in ``Dataset`` rather than with "no data rows".
    """
    # utf-8-sig drops the byte-order mark that some spreadsheet exports write
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidArgumentError(f"{path}: empty file") from None
        if response not in header:
            raise InvalidArgumentError(
                f"{path}: response column {response!r} not in header {header}"
            )
        ridx = header.index(response)
        names = [h for i, h in enumerate(header) if i != ridx]
        ys, rows = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InvalidArgumentError(
                    f"{path}: row {line_no} has {len(row)} fields, expected {len(header)}"
                )
            vals = []
            for col, cell in zip(header, row):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise InvalidArgumentError(
                        f"{path}: row {line_no}, column {col!r}: "
                        f"not numeric: {cell!r}"
                    ) from None
            ys.append(vals[ridx])
            rows.append([v for i, v in enumerate(vals) if i != ridx])
    X = np.asarray(rows, dtype=float)
    y = np.asarray(ys, dtype=float)
    if standardize:
        X = X - X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0] = 1.0
        X = X / scale
    return Dataset(y=y, X=X, sigma=sigma), names
