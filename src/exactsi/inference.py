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

Both pivots' constants are records (``PivotParams``, ``PolyhedralBounds``)
whose fields are floats for one target or arrays for several, built for all
targets of a fit at once; both pivots are evaluated elementwise on arrays.
A fit's intervals come from one vectorized inversion (``invert_pivot``,
``polyhedral_interval``) that brackets and solves every endpoint of every
target together; each target keeps its own error.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import erfcx, log_ndtr, ndtr, ndtri, owens_t

from .conditioning import ConditioningGeometry, RandomizationFactor, TargetSpec
from .errors import (
    ExactSIError,
    GeometryInconsistencyError,
    InvalidArgumentError,
    NoRootError,
    NumericalDegeneracyError,
    SingularDesignError,
)
from .numerics import factor_gram, independent_columns, invert_monotone, line_interval
from .numerics import log_truncation_prob
from .selection import Dataset, solve_randomized_lasso

# Not called here: the exact pivot is closed form.  The benchmark's trace hooks
# (bench/spans.py, PATCHES) still wrap this name on this module; drop the
# import once they no longer do.
from .numerics import integrate_weighted_gaussian  # noqa: E402,F401

POLYHEDRAL_CLIP_SDS = 50.0
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class PivotParams:
    """Constants of the exact pivot for one target coordinate, or for several.

    The estimate is X ~ N(lambda_j beta0 + zeta_j, sigma_j2), and the
    conditioned combination is Y = theta_intercept - vartheta2 X + vartheta e
    with e ~ N(0, 1) independent, truncated to ``(lower, upper)``.
    The pivot at ``beta0`` is P(X <= beta_hat_j | lower < Y < upper).
    Standardizing X and Y to U and V gives sd_Y^2 = vartheta^4 sigma_j2 +
    vartheta^2 and corr(U, V) = r = -vartheta sigma_j / sqrt(1 + vartheta^2
    sigma_j2) < 0, so the pivot is P(U <= u | a < V < b), a ratio of
    bivariate-normal orthant differences (Owen's T).

    Each field is a float for one target, or an array whose entry i belongs
    to target i; ``exact_pivot`` evaluates every entry in one array call.

    ``exact_pivot`` first reflects V so that the endpoint nearer its bulk is
    the lower one.  Its accuracy regimes:

    * truncation mass P(a < V < b) >= 1e-5 and the smaller of the pivot and
      its complement >= 1e-4 of it: closed form, error ~1e-16 / mass;
    * otherwise: both conditional tails as log-space Gauss-Legendre integrals
      over V on a window fitted to each log-concave integrand, which keeps
      their relative accuracy (~1e-12) however small the mass;
    * both tails below the smallest double: the 0/1 limit.
    """

    vartheta2: float | np.ndarray
    sigma_j2: float | np.ndarray
    lambda_j: float | np.ndarray
    zeta_j: float | np.ndarray
    theta_intercept: float | np.ndarray
    lower: float | np.ndarray
    upper: float | np.ndarray
    beta_hat_j: float | np.ndarray

    def __post_init__(self):
        if not np.all(np.asarray(self.sigma_j2) > 0):
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


def pivot_params(
    data: Dataset,
    cond: RandomizationFactor,
    geom: ConditioningGeometry,
    target: TargetSpec,
    sigma: float,
) -> tuple[PivotParams, list[ExactSIError | None]]:
    """Assemble the pivot constants of every target from a fitted representation.

    With ``gamma`` the response off a target's contrast and ``core = P gamma +
    R U + T``, the free block's conditional mean has the affine pieces
    ``-Pj' Omega^{-1} core`` and ``-Theta Q' Omega^{-1} core``; all cores and
    directions share one solve.  Returns the constants of the targets that
    built, one record, and each target's error (else a nonpositive precision).
    """
    if not sigma > 0:
        raise InvalidArgumentError("sigma must be positive")
    rep, c, norm2 = cond.rep, target.contrast, target.norm2
    beta_hat = data.y @ c
    gamma = data.y[:, None] - c * (beta_hat / norm2)
    core = rep.P @ gamma + rep.T[:, None]
    if rep.R.shape[1]:
        core = core + (rep.R @ rep.sub)[:, None]
    solved = cho_solve(cond.omega_factor, np.hstack([core, geom.Pj]))
    omega_inv_core, omega_inv_pj = np.hsplit(solved, 2)
    lam_val = -(geom.Pj * omega_inv_core).sum(axis=0)
    delta = -(cond.Theta @ (rep.Q.T @ omega_inv_core))
    r_delta = (geom.rj * delta).sum(axis=0)
    pj_quad = (geom.Pj * omega_inv_pj).sum(axis=0)
    inv_s2 = 1.0 / (sigma**2 * norm2) + pj_quad - geom.vartheta2
    errors = [
        e if e or inv_s2[j] > 0 else NumericalDegeneracyError(
            f"nonpositive precision {inv_s2[j]:.3e}: randomization solves lost accuracy")
        for j, e in enumerate(geom.errors)
    ]
    ok = np.array([e is None for e in errors], dtype=bool)
    sigma_j2 = 1.0 / inv_s2[ok]
    return PivotParams(
        vartheta2=geom.vartheta2[ok],
        sigma_j2=sigma_j2,
        lambda_j=sigma_j2 / (sigma**2 * norm2[ok]),
        zeta_j=sigma_j2 * (lam_val - r_delta)[ok],
        theta_intercept=r_delta[ok],
        lower=geom.lower[ok],
        upper=geom.upper[ok],
        beta_hat_j=beta_hat[ok],
    ), errors


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
# A cut of the window needs more panels only far out, where rounding or the
# relative stopping rule of the mode search leaves a large slope at the mode
# (at |v| ~ 1e23 one element asked for 1.4e9 nodes); there the panels widen,
# so that the node count of an element stays bounded.
_MAX_PANELS_PER_CUT = 256
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_LOG_GL_WEIGHTS = np.log(_GL_WEIGHTS)


def _upper_orthant(u, k, rho, s):
    """P(U > u, V > k) for standard normals with correlation ``rho``, elementwise.

    Owen's (1956) reduction of the orthant P(U <= h, V <= k') at h = -u,
    k' = -k to the two T functions ``T(h, (k' - rho h) / (h s))`` and
    ``T(k', (h - rho k') / (k' s))``, each at its h -> 0+ limit where its
    first argument is 0; ``s = sqrt(1 - rho^2)``.
    """
    first, second = np.stack([-u, -k]), np.stack([-k, -u])
    with np.errstate(divide="ignore", invalid="ignore"):
        t = owens_t(first, (second - rho * first) / (first * s))
        out = 0.5 * (ndtr(-u) + ndtr(-k))
    out -= np.where(first == 0.0, np.copysign(0.25, second), t).sum(axis=0)
    out -= 0.5 * ((u > 0.0) != (k > 0.0))
    out = np.where((u == 0.0) & (k == 0.0), 0.25 + np.arcsin(rho) / (2.0 * math.pi), out)
    return np.where(k == math.inf, 0.0, np.where(k == -math.inf, ndtr(-u), out))


def _slope_curvature(v, c, d):
    """Slope and minus the curvature bound of ``-v^2/2 + log Phi(c + d v)``."""
    z = c + d * v
    far = z < -1e4
    with np.errstate(over="ignore", invalid="ignore"):
        mills = np.exp(-0.5 * z * z - _LOG_SQRT_2PI - log_ndtr(z))
        # far in the left tail the exponent cancels (a relative error of
        # ~1e-16 z^2); there phi / Phi = sqrt(2 / pi) / erfcx(-z / sqrt 2)
        mills[far] = math.sqrt(2.0 / math.pi) / erfcx(-z[far] / math.sqrt(2.0))
        # mills (z + mills) lies in (0, 1) and tends to 1 as z -> -inf, where
        # the product cancels
        shrink = np.where(far, 1.0, np.clip(mills * (z + mills), 0.0, 1.0))
    return -v + d * mills, 1.0 + d * d * shrink


def _log_cdf_weighted_integral(c, d, a, b):
    """Log of ``int_a^b exp(-v^2/2) Phi(c + d v) dv`` for ``a < b``, elementwise.

    The integrand is log-concave.  Its mode v0 (safeguarded Newton, run on
    all elements at once, each stopping at its own tolerance) and the slope
    g there bound the log-integrand by its tangent minus ``(v - v0)^2 / 2``,
    which fixes a window outside which it is below ``exp(-_WINDOW_DROP)``
    times its value at v0.  Gauss-Legendre panels cover the window, with
    breakpoints on the mode's local scale and across the turn of Phi.  The
    panels of all elements form one flat node array, summed per element in
    log space (a segmented log-sum-exp), so tiny integrals keep their
    relative accuracy.
    """
    # start at the point of {w <= c + d v} nearest the origin
    v0 = np.clip(-d * np.minimum(c, 0.0) / (1.0 + d * d), a, b)
    lo, hi = a.copy(), b.copy()  # bracket the mode
    todo = np.arange(v0.size)
    for _ in range(_NEWTON_STEPS):
        x = v0[todo]
        g, curv = _slope_curvature(x, c[todo], d[todo])
        up = g > 0
        lo[todo[up]] = x[up]
        hi[todo[~up]] = x[~up]
        step = x + g / curv
        out = ~((lo[todo] <= step) & (step <= hi[todo]))
        # one side is x, so this midpoint is finite
        step[out] = 0.5 * (lo[todo[out]] + hi[todo[out]])
        v0[todo] = step
        todo = todo[~(np.abs(step - x) <= 1e-3 * (1.0 + np.abs(x)))]
        if not todo.size:
            break
    g, curv = _slope_curvature(v0, c, d)
    reach = np.sqrt(g * g + 2.0 * _WINDOW_DROP)
    w_lo, w_hi = np.fmax(a, v0 + g - reach), np.fmin(b, v0 + g + reach)
    local = (np.sqrt(g * g + 2.0 * curv * _WINDOW_DROP) - np.abs(g)) / curv
    # breakpoints on the mode's local scale and around the turn of Phi at
    # c + d v = 0 (scale 1 / |d|); no panel is wider than the unit scale
    # allows.  A mark outside the window, or a turn with d = 0, is moved onto
    # w_lo, where it repeats a cut and so adds no panel.
    with np.errstate(divide="ignore", invalid="ignore"):
        marks = np.column_stack(
            [v0[:, None] + local[:, None] * np.array(_MODE_MARKS),
             (np.array(_TURN_MARKS) - c[:, None]) / d[:, None]]
        )
    inside = (w_lo[:, None] < marks) & (marks < w_hi[:, None])
    cuts = np.sort(
        np.column_stack([w_lo, w_hi, np.where(inside, marks, w_lo[:, None])]), axis=1
    )
    left, right = cuts[:, :-1], cuts[:, 1:]
    with np.errstate(invalid="ignore"):
        count = np.ceil((right - left) / _MAX_PANEL)
    count[~(w_lo < w_hi)] = 0  # the interval is narrower than rounding
    count = np.minimum(count, _MAX_PANELS_PER_CUT).astype(int)
    # panel i of a cut pair (x, y) split k ways is [x + (y - x) i / k, ...]
    flat = count.ravel()
    k = np.repeat(flat, flat)
    x, y = np.repeat(left.ravel(), flat), np.repeat(right.ravel(), flat)
    i = np.arange(k.size) - np.repeat(np.cumsum(flat) - flat, flat)
    p_lo, p_hi = x + (y - x) * i / k, x + (y - x) * (i + 1) / k
    mid, half = 0.5 * (p_lo + p_hi), 0.5 * (p_hi - p_lo)
    panels = count.sum(axis=1)
    own = np.repeat(np.arange(panels.size), panels)
    v = mid[:, None] + half[:, None] * _GL_NODES
    with np.errstate(divide="ignore"):  # a panel narrower than rounding
        logf = (
            -0.5 * v * v
            + log_ndtr(c[own, None] + d[own, None] * v)
            + _LOG_GL_WEIGHTS
            + np.log(half)[:, None]
        ).ravel()
    out = np.full(panels.size, -math.inf)
    # where the window is narrower than rounding, the integrand falls at a
    # slope too steep for any panel: take the one-term Laplace value f(v0) / |g|
    none = panels == 0
    with np.errstate(divide="ignore"):
        out[none] = (
            -0.5 * v0[none] ** 2 + log_ndtr(c[none] + d[none] * v0[none])
            - np.log(np.abs(g[none]))
        )
    some = np.flatnonzero(panels)
    if some.size:
        starts = (np.cumsum(panels) - panels)[some] * _GL_NODES.size
        top = np.maximum.reduceat(logf, starts)
        finite = top > -math.inf
        shift = np.where(finite, top, 0.0)
        nodes = panels[some] * _GL_NODES.size
        total = np.add.reduceat(np.exp(logf - np.repeat(shift, nodes)), starts)
        out[some[finite]] = top[finite] + np.log(total[finite])
    return out


def _columns(record) -> tuple:
    """The fields of a constants record, in declaration order."""
    return tuple(getattr(record, f.name) for f in fields(record))


def exact_pivot(params: PivotParams, beta0):
    """Value of the exact pivot at the hypothesized target values ``beta0``.

    The fields of ``params`` are one target's constants, or arrays of
    several targets' constants that broadcast against ``beta0``; elementwise,
    with a float for scalar constants at a scalar ``beta0``.  Closed form
    through Owen's T where the truncation mass and the smaller tail allow it,
    else the log-space rule; see ``PivotParams``.  Where the standardized
    constants overflow or neither conditional tail has representable mass,
    the 0/1 limit is returned: 0 for ``beta0`` above the estimate, 1 below it.
    """
    arrays = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (beta0, *_columns(params)))
    )
    shape = arrays[0].shape
    beta0, vt2, sj2, lam_j, zeta, icpt, lower, upper, beta_hat = map(np.ravel, arrays)
    if not np.isfinite(beta0).all():
        raise InvalidArgumentError("beta0 must be finite")
    sd = np.sqrt(sj2)
    ts = np.sqrt(vt2) * sd
    spread = np.sqrt(1.0 + ts * ts)
    sd_y = np.sqrt(vt2) * spread
    r = -ts / spread
    s = 1.0 / spread  # sqrt(1 - r^2)
    mean = lam_j * beta0 + zeta
    with np.errstate(over="ignore", invalid="ignore"):
        u = (beta_hat - mean) / sd
        mean_y = icpt - vt2 * mean
        a = (lower - mean_y) / sd_y
        b = (upper - mean_y) / sd_y
    out = np.where(beta0 > beta_hat, 0.0, 1.0)  # the 0/1 limit
    live = ~(np.isnan(a) | np.isnan(b)) & np.isfinite(u)
    # reflect V so that the endpoint nearer its bulk is the lower one
    flip = a < -b
    a, b, r = np.where(flip, -b, a), np.where(flip, -a, b), np.where(flip, -r, r)
    mass = ndtr(-a) - ndtr(-b)
    done = np.zeros(out.shape, dtype=bool)
    idx = np.flatnonzero(live & (mass >= _OWEN_MIN_MASS))
    if idx.size:
        # the orthants at both endpoints in one call
        ui, ri, si = (np.tile(x[idx], 2) for x in (u, r, s))
        at_a, at_b = _upper_orthant(ui, np.concatenate([a[idx], b[idx]]), ri, si).reshape(2, -1)
        mi = mass[idx]
        above = at_a - at_b
        below = mi - above
        ok = np.minimum(above, below) >= _OWEN_MIN_TAIL * mi
        out[idx[ok]] = np.clip(below[ok] / mi[ok], 0.0, 1.0)
        done[idx[ok]] = True
    idx = np.flatnonzero(live & ~done)
    if idx.size:
        # P(U <= u | V = v) = Phi((u - r v) / s); both tails in one call
        c, d = u[idx] / s[idx], -r[idx] / s[idx]
        log_below, log_above = _log_cdf_weighted_integral(
            np.concatenate([c, -c]),
            np.concatenate([d, -d]),
            np.tile(a[idx], 2),
            np.tile(b[idx], 2),
        ).reshape(2, -1)
        some = (log_below > -math.inf) | (log_above > -math.inf)
        ratio = np.exp(-np.abs(log_above[some] - log_below[some]))  # smaller tail over larger
        small = ratio / (1.0 + ratio)
        out[idx[some]] = np.where(log_below[some] <= log_above[some], small, 1.0 - small)
    if not shape:
        return float(out[0])
    return out.reshape(shape)


def _results(
    method: str, lower, upper, levels, target_labels, clipped, upper_first
) -> list[IntervalEstimate | ExactSIError]:
    """Entry i: target i's interval from its endpoint roots, or the error that
    stopped it.

    ``levels`` are the pivot levels of the lower and upper endpoints.  A NaN
    root is an endpoint whose bracket never straddled its level; the
    ``NoRootError`` names the first such endpoint, the upper one first where
    ``upper_first`` is set.
    """
    labels = [-1] * len(lower) if target_labels is None else list(target_labels)
    out: list[IntervalEstimate | ExactSIError] = []
    for i, label in enumerate(labels):
        ends = [(float(lower[i]), levels[0]), (float(upper[i]), levels[1])]
        try:
            for value, level in ends[::-1] if upper_first[i] else ends:
                if math.isnan(value):
                    raise NoRootError(
                        f"target {level!r} not straddled after 60 bracket expansions"
                    )
            out.append(IntervalEstimate(ends[0][0], ends[1][0], label, method, bool(clipped[i])))
        except ExactSIError as exc:
            out.append(exc)
    return out


def invert_pivot(
    params: PivotParams, alpha: float, target_labels: Sequence[int] | None = None
) -> list[IntervalEstimate | ExactSIError]:
    """Level ``1 - alpha`` intervals from the strictly decreasing exact pivots.

    Inverts every endpoint of every target in one ``invert_monotone`` call,
    each from the seed bracket ``beta_hat +- 5 sd / lambda_j``.  Entry i is
    target i's interval, or the error that stopped it (``NoRootError`` when
    an endpoint's bracket never straddled its level).
    """
    if not 0 < alpha < 1:
        raise InvalidArgumentError("alpha must be in (0, 1)")
    batch = PivotParams(*(np.atleast_1d(x).astype(float) for x in _columns(params)))
    k = batch.beta_hat_j.size
    half = 5.0 * np.sqrt(batch.sigma_j2) / batch.lambda_j
    levels = (1.0 - alpha / 2.0, alpha / 2.0)  # of the lower, then the upper endpoints

    def pivot_at(x, *columns):
        return exact_pivot(PivotParams(*columns), x)

    roots = invert_monotone(
        pivot_at,
        np.repeat(levels, k),
        np.tile(batch.beta_hat_j - half, 2),
        np.tile(batch.beta_hat_j + half, 2),
        args=tuple(np.tile(col, 2) for col in _columns(batch)),
    ).reshape(2, k)
    unset = np.zeros(k, dtype=bool)
    return _results("exact", roots[0], roots[1], levels, target_labels, unset, unset)


@dataclass(frozen=True)
class PolyhedralBounds:
    """Truncation of the non-randomized lasso event for one target, or several.

    Given the selected set and signs, and the residual off the target contrast,
    the estimate ``beta_hat`` is Gaussian with standard deviation ``sd``
    truncated to ``[lower, upper]``.  Fields are floats, or arrays over targets.
    """

    lower: float | np.ndarray
    upper: float | np.ndarray
    beta_hat: float | np.ndarray
    sd: float | np.ndarray


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
    factor = factor_gram(XE.T @ XE, "selected design")
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
) -> tuple[PolyhedralBounds, list[ExactSIError | None]]:
    """One-dimensional truncation bounds of the lasso selection event.

    The event is affine in the response; at fixed residual off a target's
    contrast it becomes an interval for its estimate.  Returns the bounds of
    the targets that built, one record of arrays, and each target's error.
    """
    y, c, norm2 = data.y, target.contrast, target.norm2
    direction = c / norm2
    beta_hat = y @ c
    gamma = y[:, None] - c * (beta_hat / norm2)
    scale = 1e-12 * poly.row_norms[:, None] * np.linalg.norm(direction, axis=0)
    slack = poly.h[:, None] - poly.G @ gamma
    lower, upper, violated = line_interval(poly.G @ direction, slack, scale)
    width_scale = 1e-8 * np.maximum(1.0, np.abs(beta_hat))
    inside = (lower - width_scale <= beta_hat) & (beta_hat <= upper + width_scale)

    def error(j):  # the first check that target j fails, in this order
        if violated[j]:
            return GeometryInconsistencyError(
                "a constraint orthogonal to the target direction is violated"
            )
        if not inside[j]:
            return GeometryInconsistencyError(
                f"observed estimate {float(beta_hat[j])} outside its selection interval "
                f"[{float(lower[j])}, {float(upper[j])}]"
            )
        return None

    errors = [error(j) for j in range(norm2.size)]
    ok = np.array([e is None for e in errors], dtype=bool)
    return PolyhedralBounds(lower[ok], upper[ok], beta_hat[ok], sigma * np.sqrt(norm2[ok])), errors


def polyhedral_pivot(bounds: PolyhedralBounds, beta0):
    """Truncated-Gaussian CDF of the estimate at its observed value, given ``beta0``.

    Elementwise: the fields of ``bounds`` may be arrays of several targets'
    bounds, broadcast against ``beta0``.  When the truncation interval
    carries no representable mass at ``beta0``, the limit is returned: 0 for
    ``beta0`` above the estimate, 1 below it.
    """
    lower, upper, beta_hat, sd, beta0 = np.broadcast_arrays(
        *(np.asarray(x, dtype=float)
          for x in (bounds.lower, bounds.upper, bounds.beta_hat, bounds.sd, beta0))
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        # lanes with beta_hat outside (lower, upper) are overwritten below
        log_num, log_den = log_truncation_prob((lower, np.stack([beta_hat, upper])), beta0, sd)
        out = np.clip(np.exp(log_num - log_den), 0.0, 1.0)
    out = np.where(log_den == -math.inf, np.where(beta0 > beta_hat, 0.0, 1.0), out)
    out = np.where(beta_hat <= lower, 0.0, np.where(beta_hat >= upper, 1.0, out))
    if out.ndim == 0:
        return float(out)
    return out


def polyhedral_interval(
    bounds: PolyhedralBounds,
    alpha: float,
    target_labels: Sequence[int] | None = None,
) -> list[IntervalEstimate | ExactSIError]:
    """Invert the polyhedral pivots of one or several targets; huge endpoints are clipped.

    Truncated-Gaussian intervals can be effectively infinite; an endpoint
    beyond ``beta_hat +- 50 sd`` is clipped there and the estimate flagged.
    When both endpoints lie beyond the same side of that window (the estimate
    sits almost on a truncation bound), clipping one would put it past the
    other, so both are returned unclipped.  Lower endpoints are solved from
    the seed bracket ``[beta_hat - 50 sd, beta_hat]`` and upper ones from
    ``[beta_hat, beta_hat + 50 sd]``, all in one ``invert_monotone`` call.
    Entry i is target i's interval, or the error that stopped it.
    """
    if not 0 < alpha < 1:
        raise InvalidArgumentError("alpha must be in (0, 1)")
    batch = PolyhedralBounds(*(np.atleast_1d(x).astype(float) for x in _columns(bounds)))
    k = batch.beta_hat.size
    beta_hat, sd = batch.beta_hat, batch.sd
    levels = p_lower, p_upper = 1.0 - alpha / 2.0, alpha / 2.0

    def pivot_at(x, *cols):
        return polyhedral_pivot(PolyhedralBounds(*cols), x)

    clip_lo = beta_hat - POLYHEDRAL_CLIP_SDS * sd
    clip_hi = beta_hat + POLYHEDRAL_CLIP_SDS * sd
    at_lo, at_hi = pivot_at(
        np.concatenate([clip_lo, clip_hi]), *(np.tile(col, 2) for col in _columns(batch))
    ).reshape(2, k)
    # both endpoints below the window, or both above it: neither is clipped
    below, above = at_lo < p_upper, at_hi > p_lower
    clip_lower = ~below & ~above & (at_lo < p_lower)
    clip_upper = ~below & ~above & (at_hi > p_upper)
    solve_lo, solve_hi = np.flatnonzero(~clip_lower), np.flatnonzero(~clip_upper)
    which = np.concatenate([solve_lo, solve_hi])
    roots = invert_monotone(
        pivot_at,
        np.repeat(levels, (solve_lo.size, solve_hi.size)),
        np.concatenate([clip_lo[solve_lo], beta_hat[solve_hi]]),
        np.concatenate([beta_hat[solve_lo], clip_hi[solve_hi]]),
        args=tuple(col[which] for col in _columns(batch)),
    )
    lower, upper = clip_lo.copy(), clip_hi.copy()
    lower[solve_lo], upper[solve_hi] = roots[: solve_lo.size], roots[solve_lo.size :]
    # where both endpoints lie below the window, the upper one is checked first
    return _results(
        "polyhedral", lower, upper, levels, target_labels,
        clipped=clip_lower | clip_upper, upper_first=below,
    )


def plug_in_sigma2(data: Dataset, E: np.ndarray, model: str) -> float:
    """Residual-based noise variance of least squares on the selected columns,
    or (full) on the independent columns of X, with n - rank degrees of freedom."""
    y, X, n = data.y, data.X, data.n
    if model == "full":
        gram = X.T @ X
        cols = independent_columns(gram)
        if cols.size < data.p:
            gram = gram[np.ix_(cols, cols)]
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
    # the full model's columns are independent by construction
    factor = cho_factor(gram) if model == "full" else factor_gram(Xc.T @ Xc, "plug-in design")
    coef = cho_solve(factor, Xc.T @ y)
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
    factor = factor_gram(XE.T @ XE, "held-out design")
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
