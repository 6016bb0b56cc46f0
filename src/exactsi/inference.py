"""Exact randomized-selection pivot, interval inversion, and baselines.

The pivot is the CDF of a bivariate truncated Gaussian: the probability that
the target estimate lies below its observed value given that the conditioned
solution combination, which is jointly Gaussian with it, stays in its
truncation interval.  It is evaluated in closed form, as a ratio of
bivariate-normal orthant differences through Owen's T function, with a
log-space Gauss-Legendre rule where the truncation mass or the pivot's
smaller tail is too small for that (see ``PivotParams``).  Baselines: the
polyhedral (non-randomized) truncated Gaussian pivot, data splitting, and
response-splitting with synthetic noise; the last two take z-intervals of
the same least-squares targets (``build_target``).

Both pivots' constants are records (``PivotParams``, ``PolyhedralBounds``)
whose fields are floats for one target or arrays for several, built for all
targets of a fit at once, by the last stage of ``build_target ->
build_geometry -> pivot_params`` (exact) or ``build_target ->
polyhedral_bounds`` (polyhedral); both pivots are evaluated elementwise.
A fit's intervals come from one vectorized inversion (``invert_pivot``,
``polyhedral_interval``) that solves every endpoint of every target together
by safeguarded Newton steps on the pivot's probit scale, from each endpoint's
full-line value (or, for the polyhedral pivot near a bound, its tail-law
root); each endpoint ends with its own status, and each target keeps its own
error.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import erfcx, log_ndtr, ndtr, ndtri, ndtri_exp, owens_t

from .conditioning import ConditioningGeometry, TargetSpec, build_target
from .errors import (
    ExactSIError,
    GeometryInconsistencyError,
    InvalidArgumentError,
    NumericalDegeneracyError,
    SingularDesignError,
)
from .numerics import NAN_VALUE, ROOT, invert_monotone, root_error
from .numerics import cho_factor, cho_solve, line_interval, log_standard_mass
from .selection import Dataset, solve_randomized_lasso

# Not called here: the exact pivot is closed form.  The benchmark's trace hooks
# (bench/spans.py, PATCHES) still wrap this name on this module; drop the
# import once they no longer do.
from .numerics import integrate_weighted_gaussian  # noqa: E402,F401

POLYHEDRAL_CLIP_SDS = 50.0
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_SQRT_2_OVER_PI = 0.5 * math.log(2.0 / math.pi)
_SQRT_PI_OVER_2 = math.sqrt(0.5 * math.pi)
# the side of the estimate on which an interval's lower and upper endpoints
# lie: arrays over endpoints have one row for each
_ENDPOINT_SIDES = np.array([[-1.0], [1.0]])
# the rows p1, p2, p3, p2, p3 of the polyhedral pivot's points, and what
# divides them into the arguments of its erfcx terms; then the rows of those
# terms that give its Mills ratios at p2, p3, p3 and, of the upper tail, p2
_ERFCX_ROWS = np.array([0, 1, 2, 1, 2])
_ERFCX_SCALE = np.array([[-1.0], [-1.0], [-1.0], [1.0], [1.0]]) * math.sqrt(2.0)
_MILLS_ROWS = np.array([1, 2, 2, 3])


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

    The pivot decreases in beta0, and ``invert_pivot`` solves on the negated
    probit ``-Phi^{-1}(pivot)``, which increases; ``_exact_probit`` takes the
    probit from the log of the smaller tail, with its closed-form slope in
    beta0.  Without truncation the probit is
    ``(beta_hat_j - lambda_j beta0 - zeta_j) / sigma_j``, linear in beta0,
    so each endpoint is seeded at that line's root, and ``sigma_j /
    lambda_j`` is the scale of its stopping rule.
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
    geom: ConditioningGeometry, target: TargetSpec, sigma: float
) -> tuple[PivotParams, list[ExactSIError | None]]:
    """Assemble the pivot constants of every target from a fit's geometry.

    With ``gamma`` the response off a target's contrast c, the free block's
    conditional mean has the affine pieces ``-Pj' Omega^{-1} core`` and
    ``-Theta Q' Omega^{-1} core`` of ``core = -X'gamma + offset``; all cores
    and directions share one solve.  ``-X'gamma`` is ``-(X'y - X'c beta_hat
    / ||c||^2)``, which is ``-stat - Pj beta_hat``, with ``beta_hat`` the
    target's estimate c'y, so nothing here has n rows.  Returns the
    constants of the targets that built, one record, and each target's error
    (else a nonpositive precision).
    """
    if not sigma > 0:
        raise InvalidArgumentError("sigma must be positive")
    rep, norm2, beta_hat = geom.rep, target.norm2, target.estimate
    core = rep.offset[:, None] - rep.stat[:, None] - geom.Pj * beta_hat
    solved = geom.omega_solve(np.hstack([core, geom.Pj]))
    omega_inv_core, omega_inv_pj = np.hsplit(solved, 2)
    lam_val = -(geom.Pj * omega_inv_core).sum(axis=0)
    delta = -(geom.Theta @ (rep.Q.T @ omega_inv_core))
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


def _mills_inverse(z):
    """``phi(z) / Phi(z)`` elementwise, accurate far into the left tail; 0
    where ``erfcx`` overflows far to the right."""
    return math.sqrt(2.0 / math.pi) / erfcx(-z / math.sqrt(2.0))


def _slope_curvature(v, c, d):
    """Slope and minus the curvature bound of ``-v^2/2 + log Phi(c + d v)``."""
    z = c + d * v
    mills = _mills_inverse(z)
    # mills (z + mills) lies in (0, 1) and tends to 1 as z -> -inf, where
    # the product cancels
    shrink = np.where(z < -1e4, 1.0, np.clip(mills * (z + mills), 0.0, 1.0))
    return -v + d * mills, 1.0 + d * d * shrink


def _log_cdf_weighted_integral(c, d, a, b):
    """Log of ``int_a^b exp(-v^2/2) Phi(c + d v) dv`` for ``a < b``, elementwise,
    and the integral's rate in c: its log's partial at fixed ``a, b``.

    The integrand is log-concave.  Its mode v0 (safeguarded Newton, run on
    all elements at once, each stopping at its own tolerance) and the slope
    g there bound the log-integrand by its tangent minus ``(v - v0)^2 / 2``,
    which fixes a window outside which it is below ``exp(-_WINDOW_DROP)``
    times its value at v0.  Gauss-Legendre panels cover the window, with
    breakpoints on the mode's local scale and across the turn of Phi.  The
    panels of all elements form one flat node array, summed per element in
    log space (a segmented log-sum-exp), so tiny integrals keep their
    relative accuracy.  The rate is the mean of the Mills ratio ``phi(z) /
    Phi(z) = sqrt(2 / pi) / erfcx(-z / sqrt 2)`` at ``z = c + d v`` under the
    integrand, summed on the same nodes against the same shift, so it holds
    no difference of logs of the integral's size.
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
    z = c[own, None] + d[own, None] * v
    with np.errstate(divide="ignore"):  # a panel narrower than rounding
        logf = (
            -0.5 * v * v
            + log_ndtr(z)
            + _LOG_GL_WEIGHTS
            + np.log(half)[:, None]
        ).ravel()
    out = np.full(panels.size, -math.inf)
    rate = np.full(panels.size, math.nan)
    # where the window is narrower than rounding, the integrand falls at a
    # slope too steep for any panel: take the one-term Laplace value f(v0) / |g|,
    # capped by the Gaussian half-line and the interval's width where g is small
    none = panels == 0
    with np.errstate(divide="ignore"):
        out[none] = (
            -0.5 * v0[none] ** 2 + log_ndtr(c[none] + d[none] * v0[none])
            - np.log(np.maximum.reduce([
                np.abs(g[none]), np.sqrt(2.0 * curv[none] / math.pi), 1.0 / (b[none] - a[none])
            ]))
        )
    rate[none] = _mills_inverse(c[none] + d[none] * v0[none])
    some = np.flatnonzero(panels)
    if some.size:
        starts = (np.cumsum(panels) - panels)[some] * _GL_NODES.size
        top = np.maximum.reduceat(logf, starts)
        finite = top > -math.inf
        shift = np.where(finite, top, 0.0)
        nodes = panels[some] * _GL_NODES.size
        weights = np.exp(logf - np.repeat(shift, nodes))
        total = np.add.reduceat(weights, starts)
        out[some[finite]] = top[finite] + np.log(total[finite])
        rated = np.add.reduceat(weights * _mills_inverse(z.ravel()), starts)
        rate[some[finite]] = rated[finite] / total[finite]
    return out, rate


def _columns(record) -> tuple:
    """The fields of a constants record, in declaration order."""
    return tuple(getattr(record, f.name) for f in fields(record))


def _log_phi(x):
    """Log of the standard normal density, elementwise."""
    return -0.5 * x * x - _LOG_SQRT_2PI


def _probit(log_small, lower_side):
    """``Phi^{-1}`` of a pivot from the log of its smaller tail, which is its
    lower one (the pivot itself) where ``lower_side`` is set; finite far into
    both tails."""
    h = ndtri_exp(log_small)
    return np.where(lower_side, h, -h)


def _exact_tails(params: PivotParams, beta0):
    """Everything ``exact_pivot`` and ``_exact_probit`` share, elementwise.

    Returns the broadcast shape, the pivot, the log of its smaller tail (of
    P(U <= u) and P(U > u) given the truncation; -inf in the 0/1 limit), a
    mask that is set where that tail is the lower one, the log truncation
    mass, the U partial of that tail over the tail where the log-space rule
    gives it (NaN elsewhere), and the standardized constants ``(u, a, b, r,
    s)`` after the reflection of V, with ``du/dbeta0`` and ``da/dbeta0 =
    db/dbeta0``.
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
    with np.errstate(over="ignore", invalid="ignore"):
        mean = lam_j * beta0 + zeta
        u = (beta_hat - mean) / sd
        c = u / s  # the log-space rule's standardized estimate
        mean_y = icpt - vt2 * mean
        a = (lower - mean_y) / sd_y
        b = (upper - mean_y) / sd_y
        ab_slope = vt2 * lam_j / sd_y
        # the log-space rule squares c; where that overflows, the pivot's
        # smaller tail underflows too
        live = ~(np.isnan(a) | np.isnan(b)) & np.isfinite(c * c)
    out = np.where(beta0 > beta_hat, 0.0, 1.0)  # the 0/1 limit
    log_small = np.full(out.shape, -math.inf)
    lower_side = out == 0.0
    log_mass = np.full(out.shape, math.nan)
    along = np.full(out.shape, math.nan)
    # reflect V so that the endpoint nearer its bulk is the lower one
    flip = a < -b
    a, b, r = np.where(flip, -b, a), np.where(flip, -a, b), np.where(flip, -r, r)
    ab_slope = np.where(flip, -ab_slope, ab_slope)
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
        idx, below, above, mi = idx[ok], below[ok], above[ok], mi[ok]
        out[idx] = np.clip(below / mi, 0.0, 1.0)
        log_mass[idx] = np.log(mi)
        log_small[idx] = np.log(np.minimum(below, above)) - log_mass[idx]
        lower_side[idx] = below <= above
        done[idx] = True
    idx = np.flatnonzero(live & ~done)
    if idx.size:
        # P(U <= u | V = v) = Phi((u - r v) / s); both tails in one call
        c, d = c[idx], -r[idx] / s[idx]
        logs, rates = _log_cdf_weighted_integral(
            np.concatenate([c, -c]),
            np.concatenate([d, -d]),
            np.tile(a[idx], 2),
            np.tile(b[idx], 2),
        )
        log_below, log_above = logs.reshape(2, -1)
        rate_below, rate_above = rates.reshape(2, -1)
        some = (log_below > -math.inf) | (log_above > -math.inf)
        idx, log_below, log_above = idx[some], log_below[some], log_above[some]
        rate_below, rate_above = rate_below[some], rate_above[some]
        gap = -np.abs(log_above - log_below)
        ratio = np.exp(gap)  # smaller tail over larger
        small = ratio / (1.0 + ratio)
        out[idx] = np.where(log_below <= log_above, small, 1.0 - small)
        log_small[idx] = gap - np.log1p(ratio)
        lower_side[idx] = log_below <= log_above
        log_mass[idx] = np.logaddexp(log_below, log_above) - _LOG_SQRT_2PI
        # the U partial of either tail is phi(u) P(a < V < b | U = u), its
        # rate in c = u / s over s
        along[idx] = np.where(log_below <= log_above, rate_below, rate_above) / s[idx]
    return (
        shape, out, log_small, lower_side, log_mass, along, (u, a, b, r, s), -lam_j / sd,
        ab_slope,
    )


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
    shape, out, *_ = _exact_tails(params, beta0)
    if not shape:
        return float(out[0])
    return out.reshape(shape)


def _exact_probit(params: PivotParams, beta0):
    """The exact pivot's probit ``h = Phi^{-1}(pivot)`` at ``beta0`` and its
    slope ``dh/dbeta0``, as flat arrays over the broadcast elements.

    ``h`` comes from the log of the pivot's smaller tail, so it is finite far
    into both tails, and it is linear in beta0 without truncation.  The slope
    is ``pivot' / phi(h)``: each partial of the orthant difference is
    ``phi(x) Phi((y - r x) / s)``, u, a and b are affine in beta0, and every
    term is formed in log space against the log mass, so that it holds in
    the log-space regime too.  The smaller tail is ``Phi(-|h|)``, so ``1 /
    phi(h)`` is its Mills ratio ``sqrt(pi / 2) erfcx(|h| / sqrt 2)`` over
    the tail, read from h itself as in ``_polyhedral_probit``: ``log phi(h)``
    would put an error of ``|h|`` times that of h in the slope.  Where the
    log-space rule gives the tail, its U partial over the tail is the rule's
    rate, not a difference of two logs of size ``u^2 / 2``.  In the 0/1
    limit ``h`` is infinite and the slope NaN.
    """
    _, _, log_small, lower_side, log_mass, along, std, du, dab = _exact_tails(params, beta0)
    h = _probit(log_small, lower_side)
    slope = np.full(h.shape, math.nan)
    idx = np.flatnonzero(np.isfinite(h) & (std[4] > 0))
    if idx.size:
        u, a, b, r, s = (x[idx] for x in std)
        side = np.where(lower_side[idx], 1.0, -1.0)
        mills = _SQRT_PI_OVER_2 * erfcx(np.abs(h[idx]) / math.sqrt(2.0))
        log_weight = -log_mass[idx] - log_small[idx]  # 1 / (mass tail)
        # far out a term may overflow, and the slope is then unusable
        with np.errstate(over="ignore", invalid="ignore"):
            log_along = _log_phi(u) + log_standard_mass((a - r * u) / s, (b - r * u) / s)
            # the U partial: phi(u) P(a < V < b | U = u), where the log-space
            # rule does not give it over the tail
            along_u = np.where(
                np.isnan(along[idx]), np.exp(log_along + log_weight), along[idx]
            )
            across = np.zeros(idx.size)
            for end, sign in ((a, -1.0), (b, 1.0)):
                # phi(end) (Phi(+-z) - smaller tail) / (mass tail), as two
                # terms; both vanish at an infinite end
                log_end = _log_phi(end) + log_weight
                z = (u - r * end) / s
                across += sign * (
                    np.exp(log_end + log_ndtr(side * z)) - np.exp(log_end + log_small[idx])
                )
            slope[idx] = mills * (du[idx] * along_u + side * dab[idx] * across)
    return h, slope


def _results(
    roots, status, levels, target_labels, clipped, upper_first
) -> list[IntervalEstimate | ExactSIError]:
    """Entry i: target i's interval from its endpoint roots ``roots[:, i]``
    (lower, then upper), or the error that stopped it.

    ``status`` holds each endpoint's ``invert_monotone`` status and
    ``levels`` the pivot levels of the lower and upper endpoints.  A target
    whose endpoint failed gets that endpoint's ``root_error`` (a
    ``NoRootError`` names its level), the upper endpoint's first where
    ``upper_first`` is set.
    """
    (lower, upper), (lower_status, upper_status) = roots.tolist(), status.tolist()
    k = len(lower)
    labels = [-1] * k if target_labels is None else list(target_labels)
    clipped, upper_first = np.broadcast_to(clipped, k).tolist(), upper_first.tolist()
    out: list[IntervalEstimate | ExactSIError] = []
    for i, label in enumerate(labels):
        if lower_status[i] != ROOT or upper_status[i] != ROOT:
            ends = [(lower_status[i], levels[0]), (upper_status[i], levels[1])]
            failed = [end for end in (ends[::-1] if upper_first[i] else ends) if end[0] != ROOT]
            out.append(root_error(*failed[0]))
            continue
        try:
            out.append(IntervalEstimate(lower[i], upper[i], label, clipped[i]))
        except ExactSIError as exc:
            out.append(exc)
    return out


def invert_pivot(
    params: PivotParams, alpha: float, target_labels: Sequence[int] | None = None
) -> list[IntervalEstimate | ExactSIError]:
    """Level ``1 - alpha`` intervals from the exact pivots.

    Given the truncation, the estimate's law is an exponential family in
    beta0 with natural parameter ``lambda_j beta0 / sigma_j2`` and ``lambda_j
    > 0``, so by its monotone likelihood ratio the pivot decreases in beta0.
    Every endpoint of every target is solved in one ``invert_monotone`` call
    on the negated probit ``-h``, which increases (``h`` from
    ``_exact_probit``): the pivot is the level ``1 - alpha / 2`` (lower
    endpoint) or ``alpha / 2`` (upper) exactly where ``-h`` is ``-z`` or
    ``+z``, ``z = Phi^{-1}(1 - alpha / 2)``.  Each endpoint starts at its
    full-line value ``(beta_hat - zeta -+ z sd) / lambda``, its root without
    truncation, and stops at a step of ``numerics._STEP_TOL`` times ``sd /
    lambda`` (or on a quadratic contraction).  Entry i is target i's
    interval, or the error its own endpoints met (see ``_results``): a
    ``NoRootError`` when an endpoint is not bracketed within
    ``BRACKET_EXPANSIONS`` steps, a ``NumericalDegeneracyError`` for a NaN
    pivot or a search that does not converge.
    """
    if not 0 < alpha < 1:
        raise InvalidArgumentError("alpha must be in (0, 1)")
    batch = PivotParams(*(np.atleast_1d(x).astype(float) for x in _columns(params)))
    k = batch.beta_hat_j.size
    sd = np.sqrt(batch.sigma_j2)
    z = float(ndtri(1.0 - alpha / 2.0))
    levels = (1.0 - alpha / 2.0, alpha / 2.0)  # of the lower, then the upper endpoints

    def probit_at(x, *columns):
        h, slope = _exact_probit(PivotParams(*columns), x)
        return -h, -slope

    center = batch.beta_hat_j - batch.zeta_j
    roots, status = invert_monotone(
        probit_at,
        np.repeat([-z, z], k),
        np.concatenate([center - z * sd, center + z * sd])
        / np.concatenate([batch.lambda_j, batch.lambda_j]),
        np.concatenate([sd / batch.lambda_j] * 2),
        args=tuple(np.concatenate([col, col]) for col in _columns(batch)),
    )
    unset = np.zeros(k, dtype=bool)
    return _results(
        roots.reshape(2, k), status.reshape(2, k), levels, target_labels, unset, unset
    )


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


def polyhedral_bounds(
    data: Dataset, selected, signs, lam: float, target: TargetSpec, sigma: float
) -> tuple[PolyhedralBounds, list[ExactSIError | None]]:
    """One-dimensional truncation bounds of the lasso selection event.

    The event {selected set E, signs S} is ``G y < h`` (Lee, Sun, Sun &
    Taylor 2016), with active rows ``-S G_EE^{-1} X_E'`` and inactive rows
    ``+-(X_I' - G_IE G_EE^{-1} X_E') / lam``, G the Gram.  Its inactive
    subgradient box constraints are kept, which is what makes the
    conditional law of each target exactly the truncated Gaussian.  At fixed
    residual ``gamma`` off a target's contrast c the event is the interval
    of t where ``G (gamma + v t) < h``, ``v = c / ||c||^2``.

    The n-column matrix G is never formed.  With ``u = X'v``, the
    coefficient of every row is p-space algebra on the Gram: ``-S (G_EE^{-1}
    u_E)`` on the active block, ``+-(u_I - G_IE G_EE^{-1} u_E) / lam`` on the
    inactive one.  The same map of ``X'gamma = X'y - X'c beta_hat /
    ||c||^2`` gives each row's slack, from the target's statistics X'c and
    ``beta_hat = c'y``.  A coefficient is zero below ``1e-12 ||row||
    ||v||``, with the row norms ``sqrt(diag G_EE^{-1})`` (active) and
    ``sqrt(max(G_II - diag(G_IE G_EE^{-1} G_EI), 0)) / lam`` (inactive), and
    ``||v|| = 1 / ||c||``.  The
    factor of ``G_EE`` is the dataset's (``Dataset.factor_columns``), which
    ``build_target`` and the selected-model plug-in share.  Returns the
    bounds of the targets that built, one record of arrays, and each
    target's error.
    """
    E = np.asarray(selected, dtype=int)
    S = np.asarray(signs, dtype=float)
    factor = data.factor_columns(E, "selected design")
    off = np.ones(data.p, dtype=bool)
    off[E] = False
    inactive = np.flatnonzero(off)
    xtc, norm2, beta_hat = target.xtc, target.norm2, target.estimate
    q, k = E.size, norm2.size
    xtv = xtc / norm2
    xtgamma = data.xty[:, None] - xtc * (beta_hat / norm2)
    G_EI = data.gram[np.ix_(E, inactive)]
    # G_EE^{-1} applied to S, the identity, G_EI, and the E rows of X'v and X'gamma
    ginv_s, ginv, ginv_ei, ginv_v, ginv_gamma = np.split(
        cho_solve(factor, np.hstack([S[:, None], np.eye(q), G_EI, xtv[E], xtgamma[E]])),
        np.cumsum([1, q, inactive.size, k]),
        axis=1,
    )

    def rows(u, ginv_u):  # G @ (the vectors whose X' is u): active, then +-inactive
        across = (u[inactive] - G_EI.T @ ginv_u) / lam
        return np.vstack([-S[:, None] * ginv_u, across, -across])

    base = G_EI.T @ ginv_s[:, 0]
    h = np.concatenate([-lam * S * ginv_s[:, 0], 1.0 - base, 1.0 + base])
    residual = np.diag(data.gram)[inactive] - (G_EI * ginv_ei).sum(axis=0)
    across_norm = np.sqrt(np.maximum(residual, 0.0)) / lam
    row_norm = np.concatenate([np.sqrt(np.diag(ginv)), across_norm, across_norm])
    lower, upper, violated = line_interval(
        rows(xtv, ginv_v), 1e-12 * row_norm[:, None] / np.sqrt(norm2),
        h[:, None] - rows(xtgamma, ginv_gamma),
    )
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


@dataclass(slots=True)  # not frozen: an inversion builds one per evaluation
class _PolyhedralLine:
    """Polyhedral constants on flat arrays, with what every evaluation of
    the pivot reads of them formed once: ``lower``, ``upper``, ``beta_hat``
    and ``sd`` of each element; half the standardized widths, ``below =
    (beta_hat - lower) / sd / 2`` and ``above = (upper - beta_hat) / sd /
    2``, undefined where a constant is NaN (or the estimate infinite), whose
    pivot is then NaN; and the mask ``inside`` of estimates strictly inside
    their bounds.  An inversion forms it once, and ``invert_monotone``
    carries its fields as ``args``."""

    lower: np.ndarray
    upper: np.ndarray
    beta_hat: np.ndarray
    sd: np.ndarray
    below: np.ndarray
    above: np.ndarray
    inside: np.ndarray

    def limit_log(self):
        """The log tail of an element whose pivot is a 0/1 limit: -inf, or NaN
        where a standardized width is undefined."""
        return np.where(np.isnan(self.below + self.above), math.nan, -math.inf)


def _polyhedral_line(lower, upper, beta_hat, sd) -> _PolyhedralLine:
    """The ``_PolyhedralLine`` of flat arrays of bounds, estimates and sds."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        below, above = 0.5 * ((beta_hat - lower) / sd), 0.5 * ((upper - beta_hat) / sd)
    return _PolyhedralLine(
        lower, upper, beta_hat, sd, below, above, (lower < beta_hat) & (beta_hat < upper)
    )


def _broadcast_line(bounds: PolyhedralBounds, beta0):
    """The broadcast shape of the fields of ``bounds`` and ``beta0``, the line
    of the bounds over it, and the flat ``beta0``."""
    arrays = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (beta0, *_columns(bounds)))
    )
    beta0, *columns = map(np.ravel, arrays)
    return arrays[0].shape, _polyhedral_line(*columns), beta0


def _polyhedral_tails(line: _PolyhedralLine, beta0):
    """Everything ``polyhedral_pivot`` and ``_polyhedral_probit`` share, on
    the flat arrays of ``line`` and ``beta0``; run under the caller's
    ``np.errstate``, which ignores divide, invalid and over.

    With ``a, m, b`` the standardized ``lower, beta_hat, upper``, the line is
    reflected where ``a > -b``, so that ``p1 < p2 < p3`` (``a, m, b`` or
    ``-b, -m, -a``) has on top the end nearer the bulk, and every mass is
    taken over ``Phi(p3)``.  The logs of ``Phi(p1) / Phi(p2)``
    and ``Phi(p2) / Phi(p3)`` are tail differences of log Phi: where the
    upper point q of a pair is at most 0 (so both lie in the left tail),
    they are taken in the erfcx form ``w (p + q) / 2 + log(erfcx(-p / sqrt
    2) / erfcx(-q / sqrt 2))``, with the width ``w = q - p`` read directly
    from ``(beta_hat - lower) / sd`` or ``(upper - beta_hat) / sd``;
    elsewhere as a difference of ``log_ndtr``.  A piece ``(p2, p3)`` in the
    right tail is ``Q(p2) - Q(p3)`` in the same form.  No log of size ``p^2
    / 2`` then enters a difference, so the pivot holds however far beta0
    lies from the truncation interval, and so does its slope, from the rate
    of each piece below.  The slope's relative error is about ``eps x / w``
    at x sd from a piece of width w, where the rates of two pieces that
    share an end nearly cancel.

    Returns the logs of the masses of ``(p1, p2)``, ``(p2, p3)`` and ``(p1,
    p3)`` over ``Phi(p3)``; the reflection mask; the mask of the live
    elements, whose pivot is neither a 0/1 limit nor that of an estimate
    outside its bounds, or None where all are live; a mask set where the
    pivot's smaller tail is its lower one (elsewhere, where the limit is 0);
    and the slope in beta0 of the log of that tail over the truncation mass,
    negated where the tail is the upper one.  The slope of ``log mass(p,
    q)`` is ``dp/dbeta0`` times the rate ``(phi(q) - phi(p)) / mass(p, q)``.
    """
    std = (np.array([line.lower, line.beta_hat, line.upper]) - beta0) / line.sd  # a, m, b
    flip = std[0] > -std[2]
    p = np.where(flip, -std[::-1], std)
    widths = np.array([line.below, line.above])  # halves, of (a, m) and (m, b)
    w = np.where(flip, widths[::-1], widths)
    log_cdf = log_ndtr(p)
    # log erfcx(-p_i / sqrt 2) for i = 1, 2, 3, then log erfcx(p_i / sqrt 2) for i = 2, 3
    log_ex = np.log(erfcx(p[_ERFCX_ROWS] / _ERFCX_SCALE))
    half = w * (p[:2] + p[1:])  # log(phi(p1) / phi(p2)), log(phi(p2) / phi(p3))
    gaps = np.where(
        p[1:] <= 0.0, half + log_ex[:2] - log_ex[1:3], log_cdf[:2] - log_cdf[1:]
    )
    right_gap = log_ex[4] - log_ex[3] - half[1]  # log Phi(-p3) - log Phi(-p2)
    # expm1 of the gaps over (p1, p2), (p2, p3) and (p1, p3), and of a
    # right-tail (p2, p3), then of the log density ratios of the same pieces
    # (the last negated) for the rates below.  The log of minus each of the
    # first four, at most 0, is log(1 - exp(gap)) to an absolute error of
    # eps, which is all a log mass needs
    expm1s = np.expm1(np.array([
        gaps[0], gaps[1], gaps[0] + gaps[1], right_gap,
        half[0], half[1], half[0] + half[1], -half[1],
    ]))
    drops, rises = expm1s[:4], expm1s[4:]
    ones = np.log(-np.fmin(drops, 0.0))
    # the masses of (p1, p2), (p2, p3) and (p1, p3), each as a log over Phi(p3)
    right = ones[3] + log_ex[3] - 0.5 * p[1] * p[1] - math.log(2.0) - log_cdf[2]
    logs = gaps[1] + ones[0], np.where(p[1] > 0.0, right, ones[1]), ones[2]
    # d log mass(p, q) / dp = (phi(q) - phi(p)) / mass(p, q).  Where phi(q)
    # >= phi(p), that is phi(q) / Phi(q) times expm1 of log(phi(p) /
    # phi(q)) over expm1 of log(Phi(p) / Phi(q)), which holds no log of
    # size q^2 / 2; elsewhere (a piece (p2, p3) with p2 + p3 > 0) the same
    # on the reflected piece.  phi / Phi at p2, p3, p3, then phi / Q at p2:
    mills = np.exp(_LOG_SQRT_2_OVER_PI - log_ex[_MILLS_ROWS])
    # the rates of (p1, p2), (p2, p3) and (p1, p3), then of a right-tail (p2,
    # p3) negated
    rates = mills * rises / drops
    rate_second = np.where(p[1] + p[2] <= 0.0, rates[1], -rates[3])
    # 0 where phi(p3) / Phi(p3) underflows, p1 <= -p3 lying as far out
    rate_whole = np.where(mills[1] > 0.0, rates[2], 0.0)
    first = logs[0] <= logs[1]  # (p1, p2) is the smaller piece
    live = line.inside & (logs[2] > -math.inf)
    lower_side = first != flip
    if np.count_nonzero(live) == live.size:
        live = None
    else:
        # the 0/1 limit is 0 for an estimate on or below its lower bound, and
        # where the interval carries no mass, for beta0 above the estimate
        lower_side = np.where(live, lower_side, np.where(
            line.inside, beta0 > line.beta_hat, line.beta_hat <= line.lower
        ))
    # dp/dbeta0 is -1 / sd, or 1 / sd on the reflected line, and the smaller
    # tail is the lower one exactly where first and flip differ
    slope = np.where(first, rate_whole - rates[0], rate_second - rate_whole) / line.sd
    return logs, flip, live, lower_side, slope


def polyhedral_pivot(bounds: PolyhedralBounds, beta0):
    """Truncated-Gaussian CDF of the estimate at its observed value, given ``beta0``.

    Elementwise: the fields of ``bounds`` may be arrays of several targets'
    bounds, broadcast against ``beta0``.  Accurate however far beta0 lies
    from the truncation interval (see ``_polyhedral_tails``); where the
    standardized bounds overflow, so that the interval carries no
    representable mass, the limit is returned: 0 for ``beta0`` above the
    estimate, 1 below it.  A NaN constant gives NaN.
    """
    shape, line, beta0 = _broadcast_line(bounds, beta0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logs, flip, live, lower_side, _ = _polyhedral_tails(line, beta0)
        pivot = np.minimum(np.exp(np.where(flip, logs[1], logs[0]) - logs[2]), 1.0)
    out = pivot
    if live is not None:
        limit = np.where(lower_side, 0.0, 1.0)
        limit[np.isnan(line.limit_log())] = math.nan
        out = np.where(live, pivot, limit)
    if not shape:
        return float(out[0])
    return out.reshape(shape)


def _polyhedral_probit(record, beta0):
    """The polyhedral pivot's probit ``h = Phi^{-1}(pivot)`` at ``beta0`` and
    its slope ``dh/dbeta0``, elementwise.

    ``record`` is a ``PolyhedralBounds``, broadcast against ``beta0``, or
    the ``_PolyhedralLine`` an inversion formed, whose fields are flat
    arrays that match a flat ``beta0``.  ``h`` comes from the log of the
    smaller tail, so it is finite far into both tails.  Its slope is
    ``+-tail / phi(h)`` times the slope of that log (``_polyhedral_tails``),
    + where the tail is the lower one.  The tail is ``Phi(-|h|)``, so the
    factor is the Mills ratio ``sqrt(pi / 2) erfcx(|h| / sqrt 2)``, read
    from h itself: a ratio of the two logs, each of size ``h^2 / 2``, would
    put an error of ``|h|`` times that of h in the slope.  In the 0/1 limit
    ``h`` is infinite and the slope NaN; a NaN constant gives NaN for both.
    """
    shape = None
    if isinstance(record, PolyhedralBounds):
        shape, record, beta0 = _broadcast_line(record, beta0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logs, _, live, lower_side, slope = _polyhedral_tails(record, beta0)
        log_small = np.minimum(logs[0], logs[1]) - logs[2]
        if live is not None:
            log_small = np.where(live, log_small, record.limit_log())
        h = np.where(lower_side, 1.0, -1.0) * ndtri_exp(log_small)
        slope = _SQRT_PI_OVER_2 * erfcx(np.abs(h) / math.sqrt(2.0)) * slope
    slope = np.where(np.isfinite(h), slope, math.nan)
    if shape is None:
        return h, slope
    return h.reshape(shape), slope.reshape(shape)


def polyhedral_interval(
    bounds: PolyhedralBounds,
    alpha: float,
    target_labels: Sequence[int] | None = None,
) -> list[IntervalEstimate | ExactSIError]:
    """Invert the polyhedral pivots of one or several targets; huge endpoints are clipped.

    Truncated-Gaussian intervals can be effectively infinite; an endpoint
    beyond ``beta_hat +- 50 sd`` is clipped there and the estimate flagged.
    When both endpoints lie beyond the same side of that window (the
    estimate sits almost on a truncation bound), clipping one would put it
    past the other, so both are returned unclipped.  The truncated Gaussian
    is an exponential family in beta0 with natural parameter ``beta0 /
    sd^2``, so by its monotone likelihood ratio the pivot decreases in
    beta0, and the endpoints are solved in one ``invert_monotone`` call on
    the negated probit ``-h``, which increases (``h`` from
    ``_polyhedral_probit``), and stop at a step of ``numerics._STEP_TOL``
    times ``sd`` (or on a quadratic contraction).  Each starts at the root
    of the one-sided exponential tail law at its own bound: far below
    ``lower`` the estimate is ``lower`` plus an exponential of rate
    ``(lower - beta0) / sd^2``, whose upper ``alpha / 2`` tail starts at
    ``beta_hat`` where ``beta0 = lower - sd^2 log(2 / alpha) / (beta_hat -
    lower)``, and mirrored at ``upper``.  That law holds only far beyond the
    bound, so the root is taken where it is finite and at least one sd
    beyond its bound (an estimate within ``log(2 / alpha)`` sd of the
    bound); elsewhere the seed is the full-line value ``beta_hat -+ z sd``
    (``z = Phi^{-1}(1 - alpha / 2)``).

    One probit call evaluates the window's ends and every seed.  As ``-h``
    increases, the lower endpoint lies below the window where ``-h`` at the
    window's lower end is above ``-z``, and both endpoints do where it is
    above ``z``; mirrored at the upper end.  The values and slopes at the
    seeds are the inversion's first iteration, and an endpoint whose value
    there is NaN fails without a search.  Entry i is target i's interval, or
    the error its own endpoints met (see ``_results``), such as the NaN
    pivot of a NaN constant.
    """
    if not 0 < alpha < 1:
        raise InvalidArgumentError("alpha must be in (0, 1)")
    lower, upper, beta_hat, sd = (np.array(x, dtype=float, ndmin=1) for x in _columns(bounds))
    k = beta_hat.size
    levels = 1.0 - alpha / 2.0, alpha / 2.0  # of the lower, then the upper endpoints
    z = float(ndtri(levels[0]))
    side = _ENDPOINT_SIDES
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # how far beyond its bound the root of the tail law lies
        depth = sd**2 * math.log(2.0 / alpha) / np.array([beta_hat - lower, upper - beta_hat])
        tail = np.array([lower, upper]) + side * depth
    seeds = np.where(np.isfinite(tail) & (depth >= sd), tail, beta_hat + side * (z * sd))
    window = beta_hat + side * (POLYHEDRAL_CLIP_SDS * sd)
    # every target four times: at the window's ends, then at its seeds
    line = _polyhedral_line(*(np.concatenate([x] * 4) for x in (lower, upper, beta_hat, sd)))
    h, slope = _polyhedral_probit(line, np.concatenate([window.ravel(), seeds.ravel()]))
    at, value, slope = -h[: 2 * k].reshape(2, k), -h[2 * k :], -slope[2 * k :]
    # both endpoints below the window, or both above it: neither is clipped;
    # else an endpoint is clipped where -h at its end of the window falls
    # short of its target, -z for the lower one and z for the upper
    below, above = at[0] > z, at[1] < -z
    clipped = (~(below | above) & (side * at < z)).ravel()
    nan = np.isnan(value) & ~clipped
    solve = (~(clipped | nan)).nonzero()[0]
    seeded = 2 * k + solve  # in the line

    def probit_at(x, *columns):
        h, slope = _polyhedral_probit(_PolyhedralLine(*columns), x)
        return -h, -slope

    roots, status = window.ravel(), np.where(nan, NAN_VALUE, ROOT)
    roots[solve], status[solve] = invert_monotone(
        probit_at,
        np.where(solve < k, -z, z),
        seeds.ravel()[solve],
        line.sd[seeded],
        args=tuple(col[seeded] for col in _columns(line)),
        first=(value[solve], slope[solve]),
    )
    # where both endpoints lie below the window, the upper one is checked first
    return _results(
        roots.reshape(2, k), status.reshape(2, k), levels, target_labels,
        clipped=clipped[:k] | clipped[k:], upper_first=below,
    )


def plug_in_sigma2(data: Dataset, E: np.ndarray, model: str) -> float:
    """Residual-based noise variance of least squares on the selected columns,
    or (full) on the independent columns of X, with n - rank degrees of
    freedom.  The normal equations read the dataset's ``gram`` and ``xty``;
    the selected Gram's factor is the dataset's (``Dataset.factor_columns``),
    and so is the full Gram's where every column is independent
    (``Dataset.randomization_factor``)."""
    y, X, n = data.y, data.X, data.n
    if model == "full":
        cols = data.independent_columns
    elif model == "selected":
        cols = np.asarray(E, dtype=int)
    else:
        raise InvalidArgumentError(f"unknown model {model!r}")
    df = n - cols.size
    if df < 1:
        raise SingularDesignError("no residual degrees of freedom for the plug-in")
    if cols.size == 0:
        return float(y @ y / df)
    if model == "selected":
        factor = data.factor_columns(cols, "plug-in design")
    elif cols.size < data.p:  # its columns are independent by construction
        factor = cho_factor(data.gram[np.ix_(cols, cols)])
    else:
        # every column is independent, so the Gram is the randomization base,
        # factored once per dataset; where that Cholesky failed, this raises
        factor = data.randomization_factor or cho_factor(data.gram)
    design = data.column_major if cols.size == data.p else X[:, cols]
    resid = y - design @ cho_solve(factor, data.xty[cols])
    return float(resid @ resid / df)


def _z_intervals(
    target: TargetSpec, E: np.ndarray, variance: float, alpha: float
) -> list[IntervalEstimate]:
    """Level ``1 - alpha`` z-intervals ``c'v -+ z sqrt(variance ||c||^2)`` of
    the least-squares targets of the selected columns ``E``, where ``variance``
    is the noise variance of the response v that the estimates c'v read."""
    half = float(ndtri(1.0 - alpha / 2.0)) * np.sqrt(variance * target.norm2)
    ends = zip((target.estimate - half).tolist(), (target.estimate + half).tolist(), E.tolist())
    return [IntervalEstimate(lower, upper, j) for lower, upper, j in ends]


def split_inference(
    data: Dataset,
    rho: float,
    lam: float,
    alpha: float,
    seed: int,
) -> list[IntervalEstimate]:
    """Data splitting: lasso on a random ``round(rho * n)`` subsample, then
    z-intervals from the least-squares targets (``build_target``) of the
    held-out rows, with their plug-in noise estimate (``plug_in_sigma2``)."""
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
    # the held-out rows of the selected columns, which are its columns 0..|E|-1
    held_out = Dataset(y=data.y[test], X=data.X[np.ix_(test, E)], sigma=data.sigma)
    columns = np.arange(E.size)
    sigma2 = plug_in_sigma2(held_out, columns, "selected")
    return _z_intervals(build_target(held_out, columns, "selected"), E, sigma2, alpha)


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
    ``sigma2 (1 + 1/f)``; ``sigma2`` is the response noise variance.  The
    least-squares targets (``build_target``) read ``X'(y - w/f)``, from the
    X'w that the lasso reads."""
    if not f > 0:
        raise InvalidArgumentError("f must be positive")
    w = np.random.default_rng(seed).standard_normal(data.n) * math.sqrt(sigma2 * f)
    # the lasso on y + w is the lasso on y perturbed linearly by X'w
    xtw = data.X.T @ w
    out = solve_randomized_lasso(data, lam=lam, epsilon=0.0, w=xtw)
    E = out.selected
    if E.size == 0:
        return []
    target = build_target(data, E, "selected", xty=data.xty - xtw / f)
    return _z_intervals(target, E, sigma2 * (1.0 + 1.0 / f), alpha)
