"""Exact randomized-selection pivot, interval inversion, and baselines.

The pivot is the CDF of a bivariate truncated Gaussian: the probability that
the target estimate lies below its observed value given that the conditioned
solution combination, which is jointly Gaussian with it, stays in its
truncation interval.  It is evaluated in closed form, as a ratio of
bivariate-normal orthant differences through Owen's T function, with a
log-space Gauss-Legendre rule where the truncation mass or the pivot's
smaller tail is too small for that (see ``PivotParams``).  Baselines: the
polyhedral (non-randomized) truncated Gaussian pivot, data splitting, and
response-splitting with synthetic noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import log_ndtr, ndtr, ndtri, owens_t

from .conditioning import ConditioningGeometry, RandomizationFactor, TargetSpec
from .errors import (
    GeometryInconsistencyError,
    InvalidArgumentError,
    NumericalDegeneracyError,
    SingularDesignError,
)
from .numerics import Interval, invert_monotone, line_interval, log_truncation_prob
from .selection import Dataset, solve_randomized_lasso

# Not called here: the exact pivot is closed form.  The benchmark's trace hooks
# (bench/spans.py, PATCHES) still wrap this name on this module; drop the
# import once they no longer do.
from .numerics import integrate_weighted_gaussian  # noqa: E402,F401

POLYHEDRAL_CLIP_SDS = 50.0
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class PivotParams:
    """Constants of the exact pivot for one target coordinate.

    The estimate is X ~ N(lambda_j beta0 + zeta_j, sigma_j2), and the
    conditioned combination is Y = theta_intercept - vartheta2 X + vartheta e
    with e ~ N(0, 1) independent.
    The pivot at ``beta0`` is P(X <= beta_hat_j | Y in interval).
    Standardizing X and Y to U and V gives sd_Y^2 = vartheta^4 sigma_j2 +
    vartheta^2 and corr(U, V) = r = -vartheta sigma_j / sqrt(1 + vartheta^2
    sigma_j2) < 0, so the pivot is P(U <= u | a < V < b), a ratio of
    bivariate-normal orthant differences (Owen's T).

    ``exact_pivot`` first reflects V so that the endpoint nearer its bulk is
    the lower one.  Its accuracy regimes:

    * truncation mass P(a < V < b) >= 1e-5 and the smaller of the pivot and
      its complement >= 1e-4 of it: closed form, error ~1e-16 / mass;
    * otherwise: both conditional tails as log-space Gauss-Legendre integrals
      over V on a window fitted to each log-concave integrand, which keeps
      their relative accuracy (~1e-12) however small the mass;
    * both tails below the smallest double: the 0/1 limit.
    """

    vartheta2: float
    sigma_j2: float
    lambda_j: float
    zeta_j: float
    theta_intercept: float
    interval: Interval
    beta_hat_j: float

    def __post_init__(self):
        if not self.sigma_j2 > 0:
            raise NumericalDegeneracyError("sigma_j2 must be positive")


@dataclass(frozen=True)
class IntervalEstimate:
    """A two-sided confidence interval for one selected coordinate."""

    lower: float
    upper: float
    target_label: int
    method: str
    clipped: bool = False

    def __post_init__(self):
        if not self.lower < self.upper:
            raise InvalidArgumentError("interval endpoints out of order")

    @property
    def length(self) -> float:
        return self.upper - self.lower

    def covers(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def lambda_delta(
    v: np.ndarray,
    U: np.ndarray,
    cond: RandomizationFactor,
    geom: ConditioningGeometry,
) -> tuple[float, np.ndarray]:
    """Affine pieces of the conditional mean of the free block.

    ``core = P v + R U + T``; returns ``(-Pj' Omega^{-1} core,
    -Theta Q' Omega^{-1} core)``, solving with the fit's cached factor of Omega.
    """
    rep = cond.rep
    core = rep.P @ v + rep.T
    if rep.R.shape[1]:
        core = core + rep.R @ U
    omega_inv_core = cho_solve(cond.omega_factor, core)
    lam = -float(geom.Pj @ omega_inv_core)
    delta = -(cond.Theta @ (rep.Q.T @ omega_inv_core))
    return lam, delta


def pivot_params(
    data: Dataset,
    cond: RandomizationFactor,
    geom: ConditioningGeometry,
    target: TargetSpec,
    sigma: float,
) -> PivotParams:
    """Assemble the pivot constants for one target from a fitted representation."""
    if not sigma > 0:
        raise InvalidArgumentError("sigma must be positive")
    c = target.contrast
    beta_hat = float(c @ data.y)
    gamma = data.y - c * (beta_hat / target.norm2)
    lam_val, delta = lambda_delta(gamma, cond.rep.sub, cond, geom)
    r_delta = float(geom.rj @ delta)
    vartheta2 = float(geom.rj @ cond.Theta @ geom.rj)
    pj_quad = float(geom.Pj @ cho_solve(cond.omega_factor, geom.Pj))
    inv_s2 = 1.0 / (sigma**2 * target.norm2) + pj_quad - vartheta2
    if not inv_s2 > 0:
        raise NumericalDegeneracyError(
            f"nonpositive precision {inv_s2:.3e}: randomization solves lost accuracy"
        )
    sigma_j2 = 1.0 / inv_s2
    lambda_j = sigma_j2 / (sigma**2 * target.norm2)
    zeta_j = sigma_j2 * (lam_val - r_delta)
    return PivotParams(
        vartheta2=vartheta2,
        sigma_j2=sigma_j2,
        lambda_j=lambda_j,
        zeta_j=zeta_j,
        theta_intercept=r_delta,
        interval=geom.interval,
        beta_hat_j=beta_hat,
    )


# Owen's T differences carry ~1e-16 absolute error.  The closed form is used
# while the truncation mass keeps the pivot's error far below 1e-9, and while
# the pivot's smaller tail is large enough for that error not to break its
# monotonicity in beta0; elsewhere the log-space rule takes over.
_OWEN_MIN_MASS = 1e-5
_OWEN_MIN_TAIL = 1e-4
# Log-space rule: the window drops integrand values below exp(-_WINDOW_DROP)
# times the value at its mode; each panel gets _GL_NODES.size Gauss-Legendre nodes.
_WINDOW_DROP = 36.0
_NEWTON_STEPS = 8
_MODE_MARKS = (-1.0, -0.5, 0.0, 0.5, 1.0)
_TURN_MARKS = (-6.0, -2.0, 0.0, 2.0, 6.0)
_MAX_PANEL = 3.0
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_LOG_GL_WEIGHTS = np.log(_GL_WEIGHTS)


def _owen_term(h: float, k: float, rho: float, s: float) -> float:
    """``T(h, (k - rho h) / (h s))``, with its h -> 0+ limit at ``h = 0``."""
    if h == 0.0:
        return math.copysign(0.25, k)
    return float(owens_t(h, (k - rho * h) / (h * s)))


def _bvn_cdf(h: float, k: float, rho: float, s: float) -> float:
    """P(U <= h, V <= k) for standard normals with correlation ``rho``.

    Owen's (1956) reduction to two T functions; ``s = sqrt(1 - rho^2)``.
    """
    if h == 0.0 and k == 0.0:
        return 0.25 + math.asin(rho) / (2.0 * math.pi)
    out = 0.5 * float(ndtr(h) + ndtr(k))
    out -= _owen_term(h, k, rho, s) + _owen_term(k, h, rho, s)
    if (h < 0.0) != (k < 0.0):
        out -= 0.5
    return out


def _upper_orthant(u: float, k: float, rho: float, s: float) -> float:
    """P(U > u, V > k) for standard normals with correlation ``rho``."""
    if k == math.inf:
        return 0.0
    if k == -math.inf:
        return float(ndtr(-u))
    return _bvn_cdf(-u, -k, rho, s)


def _log_cdf_weighted_integral(c: float, d: float, a: float, b: float) -> float:
    """Log of ``int_a^b exp(-v^2/2) Phi(c + d v) dv`` for ``a < b``.

    The integrand is log-concave.  Its mode v0 (safeguarded Newton) and the
    slope g there bound the log-integrand by its tangent minus
    ``(v - v0)^2 / 2``, which fixes a window outside which it is below
    ``exp(-_WINDOW_DROP)`` times its value at v0.  Gauss-Legendre panels cover
    the window, with breakpoints on the mode's local scale and across the
    turn of Phi; terms are summed in log space, so tiny integrals keep their
    relative accuracy.
    """

    def slope_curvature(v):
        z = c + d * v
        mills = math.exp(-0.5 * z * z - _LOG_SQRT_2PI - float(log_ndtr(z)))
        # mills (z + mills) lies in (0, 1) and tends to 1 as z -> -inf, where
        # the sum cancels
        shrink = 1.0 if z < -1e4 else min(max(mills * (z + mills), 0.0), 1.0)
        return -v + d * mills, 1.0 + d * d * shrink

    # start at the point of {w <= c + d v} nearest the origin
    v0 = min(max(-d * min(c, 0.0) / (1.0 + d * d), a), b)
    lo, hi = a, b  # brackets the mode
    for _ in range(_NEWTON_STEPS):
        g, curv = slope_curvature(v0)
        if g > 0:
            lo = v0
        else:
            hi = v0
        step = v0 + g / curv
        if not lo <= step <= hi:  # one side is v0, so this midpoint is finite
            step = 0.5 * (lo + hi)
        done = abs(step - v0) <= 1e-3 * (1.0 + abs(v0))
        v0 = step
        if done:
            break
    g, curv = slope_curvature(v0)
    reach = math.sqrt(g * g + 2.0 * _WINDOW_DROP)
    w_lo, w_hi = max(a, v0 + g - reach), min(b, v0 + g + reach)
    if not w_lo < w_hi:  # the interval is narrower than rounding
        return -math.inf
    local = (math.sqrt(g * g + 2.0 * curv * _WINDOW_DROP) - abs(g)) / curv
    # breakpoints on the mode's local scale and around the turn of Phi at
    # c + d v = 0 (scale 1 / |d|); no panel is wider than the unit scale allows
    marks = [v0 + local * k for k in _MODE_MARKS]
    if d != 0.0:
        marks += [(k - c) / d for k in _TURN_MARKS]
    cuts = sorted({w_lo, w_hi, *(x for x in marks if w_lo < x < w_hi)})
    panels = []
    for x, y in zip(cuts[:-1], cuts[1:]):
        k = math.ceil((y - x) / _MAX_PANEL)
        panels += [(x + (y - x) * i / k, x + (y - x) * (i + 1) / k) for i in range(k)]
    mid = np.array([0.5 * (x + y) for x, y in panels])
    half = np.array([0.5 * (y - x) for x, y in panels])
    v = mid[:, None] + half[:, None] * _GL_NODES
    logf = -0.5 * v * v + log_ndtr(c + d * v) + _LOG_GL_WEIGHTS + np.log(half)[:, None]
    top = float(logf.max())
    if top == -math.inf:
        return top
    return top + math.log(float(np.exp(logf - top).sum()))


def exact_pivot(params: PivotParams, beta0: float) -> float:
    """Value of the exact pivot at the hypothesized target value ``beta0``.

    Closed form through Owen's T where the truncation mass and the smaller
    tail allow it, else the log-space rule; see ``PivotParams``.  Where the
    standardized constants overflow or neither conditional tail has
    representable mass, the 0/1 limit is returned: 0 for ``beta0`` above the
    estimate, 1 below it.
    """
    if not math.isfinite(beta0):
        raise InvalidArgumentError("beta0 must be finite")
    sd = math.sqrt(params.sigma_j2)
    ts = math.sqrt(params.vartheta2) * sd
    spread = math.sqrt(1.0 + ts * ts)
    sd_y = math.sqrt(params.vartheta2) * spread
    r = -ts / spread
    s = 1.0 / spread  # sqrt(1 - r^2)
    mean = params.lambda_j * beta0 + params.zeta_j
    u = (params.beta_hat_j - mean) / sd
    mean_y = params.theta_intercept - params.vartheta2 * mean
    a = (params.interval.lower - mean_y) / sd_y
    b = (params.interval.upper - mean_y) / sd_y
    limit = 0.0 if beta0 > params.beta_hat_j else 1.0
    if math.isnan(a) or math.isnan(b) or not math.isfinite(u):
        return limit
    if a < -b:  # reflect V so that the endpoint nearer its bulk is the lower one
        a, b, r = -b, -a, -r
    mass = float(ndtr(-a) - ndtr(-b))
    if mass >= _OWEN_MIN_MASS:
        above = _upper_orthant(u, a, r, s) - _upper_orthant(u, b, r, s)
        below = mass - above
        if min(above, below) >= _OWEN_MIN_TAIL * mass:
            return float(min(max(below / mass, 0.0), 1.0))
    # P(U <= u | V = v) = Phi((u - r v) / s)
    log_below = _log_cdf_weighted_integral(u / s, -r / s, a, b)
    log_above = _log_cdf_weighted_integral(-u / s, r / s, a, b)
    if log_below == log_above == -math.inf:
        return limit
    ratio = math.exp(-abs(log_above - log_below))  # smaller tail over larger
    small = ratio / (1.0 + ratio)
    return small if log_below <= log_above else 1.0 - small


def invert_pivot(
    params: PivotParams, alpha: float, target_label: int = -1
) -> IntervalEstimate:
    """Level ``1 - alpha`` interval from the strictly decreasing pivot."""
    if not 0 < alpha < 1:
        raise InvalidArgumentError("alpha must be in (0, 1)")
    half = 5.0 * math.sqrt(params.sigma_j2) / params.lambda_j
    bracket = Interval(params.beta_hat_j - half, params.beta_hat_j + half)

    def pivot_at(b):
        return exact_pivot(params, b)

    lower = invert_monotone(pivot_at, 1.0 - alpha / 2.0, bracket)
    upper = invert_monotone(pivot_at, alpha / 2.0, bracket)
    return IntervalEstimate(
        lower=lower,
        upper=upper,
        target_label=target_label,
        method="exact",
    )


@dataclass(frozen=True)
class PolyhedralBounds:
    """Truncation of the non-randomized lasso event for one target.

    Given the selected set and signs, and the residual off the target contrast,
    the estimate ``beta_hat`` is Gaussian with standard deviation ``sd``
    truncated to ``[lower, upper]``.
    """

    lower: float
    upper: float
    beta_hat: float
    sd: float


@dataclass(frozen=True)
class LassoPolyhedron:
    """The lasso selection event {selected set, signs} as ``G y < h``.

    It depends on the design, the selected set, its signs and the penalty,
    not on the target, so a fit builds it once; ``row_norms`` holds the
    Euclidean norms of the rows of ``G``.
    """

    G: np.ndarray
    h: np.ndarray
    row_norms: np.ndarray


def lasso_polyhedron(
    data: Dataset, E0: np.ndarray, S0: np.ndarray, lam: float
) -> LassoPolyhedron:
    """Affine constraints on the response of the non-randomized lasso event.

    The inactive subgradient box constraints are kept, which is what makes the
    conditional law of each target exactly the truncated Gaussian.
    """
    X = data.X
    E0 = np.asarray(E0, dtype=int)
    S0 = np.asarray(S0, dtype=float)
    XE = X[:, E0]
    gram = XE.T @ XE
    try:
        factor = cho_factor(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("selected design is rank deficient") from exc
    M1 = cho_solve(factor, XE.T)  # |E| x n
    ginv_s = cho_solve(factor, S0)
    rows = [-(S0[:, None] * M1)]
    rhs = [-lam * S0 * ginv_s]
    inactive = np.setdiff1d(np.arange(data.p), E0)
    if inactive.size:
        Xi = X[:, inactive]
        cross = Xi.T @ XE
        proj_rows = (Xi.T - cross @ M1) / lam
        base = cross @ ginv_s
        rows.extend([proj_rows, -proj_rows])
        rhs.extend([1.0 - base, 1.0 + base])
    G = np.vstack(rows)
    return LassoPolyhedron(G=G, h=np.concatenate(rhs), row_norms=np.linalg.norm(G, axis=1))


def polyhedral_bounds(
    data: Dataset, poly: LassoPolyhedron, target: TargetSpec, sigma: float
) -> PolyhedralBounds:
    """One-dimensional truncation bounds of the lasso selection event.

    The event is affine in the response; at fixed residual off the target
    contrast it becomes an interval for the estimate.
    """
    y = data.y
    direction = target.contrast / target.norm2
    beta_hat = float(target.contrast @ y)
    gamma = y - target.contrast * (beta_hat / target.norm2)
    scale = 1e-12 * poly.row_norms * np.linalg.norm(direction)
    lower, upper = line_interval(poly.G @ direction, poly.h - poly.G @ gamma, scale)
    width_scale = 1e-8 * max(1.0, abs(beta_hat))
    if not lower - width_scale <= beta_hat <= upper + width_scale:
        raise GeometryInconsistencyError(
            f"observed estimate {beta_hat} outside its selection interval "
            f"[{lower}, {upper}]"
        )
    return PolyhedralBounds(
        lower=lower, upper=upper, beta_hat=beta_hat, sd=sigma * math.sqrt(target.norm2)
    )


def polyhedral_pivot(bounds: PolyhedralBounds, beta0: float) -> float:
    """Truncated-Gaussian CDF of the estimate at its observed value, given ``beta0``.

    When the truncation interval carries no representable mass at ``beta0``,
    the limit is returned: 0 for ``beta0`` above the estimate, 1 below it.
    """
    lower, upper, beta_hat, sd = bounds.lower, bounds.upper, bounds.beta_hat, bounds.sd
    if beta_hat <= lower:
        return 0.0
    if beta_hat >= upper:
        return 1.0
    log_num = log_truncation_prob(Interval(lower, beta_hat), beta0, sd)
    log_den = log_truncation_prob(Interval(lower, upper), beta0, sd)
    if log_den == -math.inf:
        return 0.0 if beta0 > beta_hat else 1.0
    return float(min(max(math.exp(log_num - log_den), 0.0), 1.0))


def polyhedral_interval(
    bounds: PolyhedralBounds, alpha: float, target_label: int = -1
) -> IntervalEstimate:
    """Invert the polyhedral pivot; huge endpoints are clipped and flagged.

    Truncated-Gaussian intervals can be effectively infinite; an endpoint
    beyond ``beta_hat +- 50 sd`` is clipped there and the estimate flagged.
    When both endpoints lie beyond the same side of that window (the estimate
    sits almost on a truncation bound), clipping one would put it past the
    other, so both are returned unclipped.
    """
    if not 0 < alpha < 1:
        raise InvalidArgumentError("alpha must be in (0, 1)")
    beta_hat = bounds.beta_hat
    p_lower, p_upper = 1.0 - alpha / 2.0, alpha / 2.0

    def pivot_at(b):
        return polyhedral_pivot(bounds, b)

    clip_lo = beta_hat - POLYHEDRAL_CLIP_SDS * bounds.sd
    clip_hi = beta_hat + POLYHEDRAL_CLIP_SDS * bounds.sd
    below, above = Interval(clip_lo, beta_hat), Interval(beta_hat, clip_hi)
    at_lo, at_hi = pivot_at(clip_lo), pivot_at(clip_hi)
    clipped = False
    if at_lo < p_upper:  # both endpoints below the window
        upper = invert_monotone(pivot_at, p_upper, above)
        lower = invert_monotone(pivot_at, p_lower, below)
    elif at_hi > p_lower:  # both endpoints above the window
        lower = invert_monotone(pivot_at, p_lower, below)
        upper = invert_monotone(pivot_at, p_upper, above)
    else:
        if at_lo < p_lower:
            lower = clip_lo
            clipped = True
        else:
            lower = invert_monotone(pivot_at, p_lower, below)
        if at_hi > p_upper:
            upper = clip_hi
            clipped = True
        else:
            upper = invert_monotone(pivot_at, p_upper, above)
    return IntervalEstimate(
        lower=lower,
        upper=upper,
        target_label=target_label,
        method="polyhedral",
        clipped=clipped,
    )


def plug_in_sigma2(data: Dataset, E: np.ndarray, model: str) -> float:
    """Residual-based noise variance: all columns (full) or the selected ones."""
    y, X, n = data.y, data.X, data.n
    if model == "full":
        cols = np.arange(data.p)
    elif model == "selected":
        cols = np.asarray(E, dtype=int)
    else:
        raise InvalidArgumentError(f"unknown model {model!r}")
    df = n - cols.size
    if df < 1:
        raise SingularDesignError("no residual degrees of freedom for the plug-in")
    if cols.size == 0:
        return float(y @ y / df)
    Xc = X[:, cols]
    try:
        coef = cho_solve(cho_factor(Xc.T @ Xc), Xc.T @ y)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("plug-in design is rank deficient") from exc
    resid = y - Xc @ coef
    return float(resid @ resid / df)


def _ls_z_intervals(
    y: np.ndarray,
    X: np.ndarray,
    E: np.ndarray,
    var_scale: float,
    alpha: float,
    method: str,
    sigma2: float | None = None,
) -> list[IntervalEstimate]:
    """Least-squares z-intervals for the coordinates of a selected design.

    ``sigma2`` of the response noise is estimated from the fit residuals when
    not supplied; ``var_scale`` multiplies the per-coordinate variance.
    """
    E = np.asarray(E, dtype=int)
    if E.size == 0:
        return []
    XE = X[:, E]
    n = y.shape[0]
    if n < E.size + 1:
        raise SingularDesignError("held-out sample too small for the selected set")
    try:
        factor = cho_factor(XE.T @ XE)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("held-out design is rank deficient") from exc
    coef = cho_solve(factor, XE.T @ y)
    if sigma2 is None:
        resid = y - XE @ coef
        sigma2 = float(resid @ resid / (n - E.size))
    diag = np.diag(cho_solve(factor, np.eye(E.size)))
    z = float(ndtri(1.0 - alpha / 2.0))
    out = []
    for k, jcol in enumerate(E):
        half = z * math.sqrt(var_scale * sigma2 * diag[k])
        out.append(
            IntervalEstimate(
                lower=float(coef[k] - half),
                upper=float(coef[k] + half),
                target_label=int(jcol),
                method=method,
            )
        )
    return out


def split_inference(
    data: Dataset,
    rho: float,
    lam: float,
    alpha: float,
    seed: int,
) -> list[IntervalEstimate]:
    """Data splitting: lasso on a random ``round(rho * n)`` subsample, then
    z-intervals from least squares on the held-out rows with a held-out
    plug-in noise estimate."""
    if not 0 < rho < 1:
        raise InvalidArgumentError("rho must be in (0, 1)")
    n = data.n
    n1 = int(round(rho * n))
    if not 2 <= n1 <= n - 2:
        raise InvalidArgumentError(f"split size n1={n1} leaves no usable half")
    perm = np.random.default_rng(seed).permutation(n)
    train, test = perm[:n1], perm[n1:]
    train_data = Dataset(y=data.y[train], X=data.X[train], sigma=data.sigma)
    out = solve_randomized_lasso(train_data, lam=lam, epsilon=0.0, w=np.zeros(data.p))
    E = out.selected
    if E.size == 0:
        return []
    if test.size < E.size + 1:
        raise SingularDesignError("held-out half smaller than the selected set")
    return _ls_z_intervals(
        data.y[test], data.X[test], E, var_scale=1.0, alpha=alpha, method="split"
    )


def uv_inference(
    data: Dataset,
    f: float,
    lam: float,
    alpha: float,
    sigma2: float,
    seed: int,
) -> list[IntervalEstimate]:
    """Response splitting: select on ``y + w`` with ``w ~ N(0, sigma2 f I)``,
    infer from the independent ``y - w/f`` whose noise variance is
    ``sigma2 (1 + 1/f)``; ``sigma2`` is the response noise variance."""
    if not f > 0:
        raise InvalidArgumentError("f must be positive")
    w = np.random.default_rng(seed).standard_normal(data.n) * math.sqrt(sigma2 * f)
    u_data = Dataset(y=data.y + w, X=data.X)
    out = solve_randomized_lasso(u_data, lam=lam, epsilon=0.0, w=np.zeros(data.p))
    E = out.selected
    if E.size == 0:
        return []
    v = data.y - w / f
    return _ls_z_intervals(
        v,
        data.X,
        E,
        var_scale=1.0 + 1.0 / f,
        alpha=alpha,
        method="uv",
        sigma2=sigma2,
    )
