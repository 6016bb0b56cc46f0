"""Exact randomized-selection pivot, interval inversion, and baselines.

The pivot is the CDF of a bivariate truncated Gaussian: the probability that
the target estimate lies below its observed value given that the conditioned
solution combination, which is jointly Gaussian with it, stays in its
truncation interval.  It is evaluated in closed form, as a ratio of
bivariate-normal orthant differences through Owen's T function, with a
log-space Gauss-Legendre rule where the truncation mass or the pivot's
smaller tail is too small for that (see ``PivotParams``).  Baselines: the
polyhedral (non-randomized) truncated Gaussian pivot, data splitting, and
response-splitting with synthetic noise.  Here the last two only select
(``split_inference``, ``uv_inference``); ``exactsi.study`` builds their
least-squares targets, which are untruncated (``untruncated_bounds``), so
their pivot is the z pivot (``z_interval``).

Each pivot's constants have one form, a record (``PivotParams``,
``PolyhedralBounds``) whose fields are floats for one target or arrays for
several.  A fit's record is built for all its targets at once, by the last
stage of ``build_target -> build_geometry -> pivot_params`` (exact) or
``build_target -> polyhedral_bounds`` (polyhedral), and its row j is target
j: a target that failed a check keeps its row, whose pivot is NaN.  Each
pivot has one kernel, its probit ``h = Phi^{-1}(pivot)`` with the slope
(``_exact_probit``, ``_polyhedral_probit``), which reads such a record with
flat fields as it is (``_broadcast`` forms one against ``beta0``); the
pivot is ``Phi(h)`` (``_pivot``).  One inversion routine (``_invert``)
gives the intervals of a record, one fit's or many fits' rows
concatenated, for both pivots: it solves every endpoint of every target
together by safeguarded Newton steps on the negated probit, from one
kernel call at the seeds; each endpoint ends with its own status, and
each target keeps its own error.  Every inversion (``invert_pivot``,
``polyhedral_interval``, ``z_interval``) returns a list whose entry j is
target j's ``IntervalEstimate`` or error, with no labels, and checks its
level with ``check_level``, the one check of ``alpha``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx, log_ndtr, ndtr, ndtri, ndtri_exp, owens_t

from .conditioning import ConditioningGeometry, TargetSpec, check_model
from .errors import (
    ExactSIError,
    GeometryInconsistencyError,
    InvalidArgumentError,
    NumericalDegeneracyError,
    SingularDesignError,
)
from .numerics import NAN_VALUE, NO_START, ROOT, invert_monotone, root_error
from .numerics import cho_solve, independent_columns, line_interval, log_standard_mass
from .selection import Dataset, SelectionOutcome, check_noise_scale, check_tau2
from .selection import solve_randomized_lasso

# Not called here: the exact pivot is closed form.  The benchmark's trace hooks
# (bench/spans.py, PATCHES) still wrap this name on this module; drop the
# import once they no longer do.
from .numerics import integrate_weighted_gaussian  # noqa: E402,F401

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
    to target i; the kernel evaluates every entry in one array call.
    A target with a NaN constant, or whose ``sigma_j2`` is not positive, has
    a NaN pivot, and ``invert_pivot`` fails it alone.  ``pivot_params``
    gives a target that failed a check a NaN ``sigma_j2``, and so a NaN
    ``lambda_j`` and ``zeta_j``, in its row.

    The pivot is ``Phi(h)`` of the probit h of its one kernel,
    ``_exact_probit``, which first reflects V so that the endpoint nearer
    its bulk is the lower one.  Its accuracy regimes:

    * truncation mass P(a < V < b) >= 1e-5 and the smaller of the pivot and
      its complement >= 1e-4 of it: closed form, error ~1e-16 / mass;
    * otherwise: both conditional tails as log-space Gauss-Legendre integrals
      over V on a window fitted to each log-concave integrand, which keeps
      their relative accuracy (~1e-12) however small the mass;
    * both tails below the smallest double: the 0/1 limit, h infinite.

    The pivot decreases in beta0, and ``invert_pivot`` solves on the negated
    probit.  Without truncation the probit is
    ``(beta_hat_j - lambda_j beta0 - zeta_j) / sigma_j``, linear in beta0,
    so each endpoint is seeded at that line's root.
    """

    vartheta2: float | np.ndarray
    sigma_j2: float | np.ndarray
    lambda_j: float | np.ndarray
    zeta_j: float | np.ndarray
    theta_intercept: float | np.ndarray
    lower: float | np.ndarray
    upper: float | np.ndarray
    beta_hat_j: float | np.ndarray


@dataclass(frozen=True)
class IntervalEstimate:
    """A two-sided confidence interval for one target.  It carries no label:
    every inversion returns its intervals in the order of its targets, and
    the caller pairs entry j with target j (``Fit.selected[j]``)."""

    lower: float
    upper: float

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
    """Add the noise sd ``sigma`` (``check_noise_scale``) to a fit's geometry:
    the estimate's precision ``1 / (sigma^2 ||c||^2) + pj_quad - vartheta2``
    gives ``sigma_j2``.  Returns one record whose row j is target j's
    constants, and each target's error (else a nonpositive precision); a
    target with an error has a NaN ``sigma_j2``."""
    check_noise_scale(sigma, "sigma")
    inv_s2 = 1.0 / (sigma**2 * target.norm2) + geom.pj_quad - geom.vartheta2
    errors = [
        e if e or inv_s2[j] > 0 else NumericalDegeneracyError(
            f"nonpositive precision {inv_s2[j]:.3e}: randomization solves lost accuracy")
        for j, e in enumerate(geom.errors)
    ]
    ok = np.array([e is None for e in errors], dtype=bool)
    sigma_j2 = np.divide(1.0, inv_s2, out=np.full(ok.size, math.nan), where=ok)
    return PivotParams(
        vartheta2=geom.vartheta2,
        sigma_j2=sigma_j2,
        lambda_j=sigma_j2 / (sigma**2 * target.norm2),
        zeta_j=sigma_j2 * (geom.mean_shift - geom.theta_intercept),
        theta_intercept=geom.theta_intercept,
        lower=geom.lower,
        upper=geom.upper,
        beta_hat_j=target.estimate,
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
    return tuple(getattr(record, name) for name in record.__dataclass_fields__)


def _broadcast(record, beta0):
    """The broadcast shape of the fields of a constants ``record`` and of
    ``beta0``, the record of the same type with the raveled fields, and the
    raveled ``beta0``: the form a kernel takes."""
    arrays = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (beta0, *_columns(record)))
    )
    beta0, *columns = map(np.ravel, arrays)
    return arrays[0].shape, type(record)(*columns), beta0


def _log_phi(x):
    """Log of the standard normal density, elementwise."""
    return -0.5 * x * x - _LOG_SQRT_2PI


def _probit(log_small, lower_side):
    """``h = Phi^{-1}`` of a pivot from the log of its smaller tail, which is
    its lower one (the pivot itself) where ``lower_side`` is set, finite far
    into both tails; and the factor ``tail / phi(h)`` that turns the slope of
    that log into the slope of h.  The tail is ``Phi(-|h|)``, so the factor
    is the Mills ratio ``sqrt(pi / 2) erfcx(|h| / sqrt 2)``, read from h
    itself: ``log phi(h)``, or a ratio of two logs of size ``h^2 / 2``, would
    put an error of ``|h|`` times that of h in the slope."""
    h = ndtri_exp(log_small)
    h = np.where(lower_side, h, -h)
    return h, _SQRT_PI_OVER_2 * erfcx(np.abs(h) / math.sqrt(2.0))


def _pivot(kernel, record, beta0):
    """``Phi(h)`` of the probit h that ``kernel`` gives for a constants
    ``record`` broadcast against ``beta0``, the one form of both pivots: a
    float for scalar constants at a scalar ``beta0``."""
    shape, record, beta0 = _broadcast(record, beta0)
    out = ndtr(kernel(record, beta0)[0])
    return out.reshape(shape) if shape else float(out[0])


def exact_pivot(params: PivotParams, beta0):
    """The exact pivot at the hypothesized target values ``beta0``: ``Phi(h)``
    of the probit h of its one kernel, ``_exact_probit``, on which the
    inversion solves too.  The fields of ``params`` are one target's
    constants, or arrays of several targets' that broadcast against
    ``beta0``.  In the 0/1 limit the pivot is 0 for ``beta0`` above the
    estimate and 1 below it; a NaN constant, or a ``sigma_j2`` that is not
    positive, gives NaN."""
    if not np.isfinite(beta0).all():
        raise InvalidArgumentError("beta0 must be finite")
    return _pivot(_exact_probit, params, beta0)


def _exact_probit(params: PivotParams, beta0):
    """The exact pivot's probit ``h = Phi^{-1}(pivot)`` at ``beta0`` and its
    slope ``dh/dbeta0``, on the flat arrays of ``params`` and ``beta0``.

    ``h`` comes from the log of the pivot's smaller tail, of P(U <= u) and
    P(U > u) given the truncation, in the regime that ``PivotParams`` names,
    so it is finite far into both tails, and it is linear in beta0 without
    truncation.  The slope is ``pivot' / phi(h)``: each partial of
    the orthant difference is ``phi(x) Phi((y - r x) / s)``, u, a and b are
    affine in beta0, and every term is formed in log space against the log
    mass, so that it holds in the log-space regime too; ``_probit`` gives
    ``tail / phi(h)``.  Where the log-space rule gives the tail, its U
    partial over the tail is the rule's rate, not a difference of two logs
    of size ``u^2 / 2``.  Where the standardized constants overflow or
    neither conditional tail has representable mass (the 0/1 limit) ``h``
    is infinite and the slope NaN; where the pivot is undefined (u, a or b
    is NaN, or ``sigma_j2`` is not positive) both are NaN.
    """
    vt2, sj2, lam_j, zeta, icpt, lower, upper, beta_hat = _columns(params)
    # a NaN constant or a nonpositive sigma_j2 gives NaN or infinite constants here
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sd = np.sqrt(sj2)
        ts = np.sqrt(vt2) * sd
        spread = np.sqrt(1.0 + ts * ts)
        sd_y = np.sqrt(vt2) * spread
        r = -ts / spread
        s = 1.0 / spread  # sqrt(1 - r^2)
        mean = lam_j * beta0 + zeta
        u = (beta_hat - mean) / sd
        c = u / s  # the log-space rule's standardized estimate
        mean_y = icpt - vt2 * mean
        a = (lower - mean_y) / sd_y
        b = (upper - mean_y) / sd_y
        du = -lam_j / sd
        dab = vt2 * lam_j / sd_y
        undefined = np.isnan(u) | np.isnan(a) | np.isnan(b) | ~(sj2 > 0)
        # the log-space rule squares c; where that overflows, the pivot's
        # smaller tail underflows too
        live = ~undefined & np.isfinite(c * c)
    # the 0/1 limit, 0 for beta0 above the estimate, where nothing below replaces it
    log_small = np.where(undefined, math.nan, -math.inf)
    lower_side = beta0 > beta_hat
    log_mass, along = np.full((2, log_small.size), math.nan)
    flip = a < -b
    a, b, r = np.where(flip, -b, a), np.where(flip, -a, b), np.where(flip, -r, r)
    dab = np.where(flip, -dab, dab)
    mass = ndtr(-a) - ndtr(-b)
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
        log_mass[idx] = np.log(mi)
        log_small[idx] = np.log(np.minimum(below, above)) - log_mass[idx]
        lower_side[idx] = below <= above
    idx = np.flatnonzero(live & np.isnan(log_mass))  # not given by the closed form
    if idx.size:
        # P(U <= u | V = v) = Phi((u - r v) / s); both tails in one call
        ci, di = c[idx], -r[idx] / s[idx]
        logs, rates = _log_cdf_weighted_integral(
            np.concatenate([ci, -ci]),
            np.concatenate([di, -di]),
            np.tile(a[idx], 2),
            np.tile(b[idx], 2),
        )
        log_below, log_above = logs.reshape(2, -1)
        rate_below, rate_above = rates.reshape(2, -1)
        some = (log_below > -math.inf) | (log_above > -math.inf)
        idx, log_below, log_above = idx[some], log_below[some], log_above[some]
        rate_below, rate_above = rate_below[some], rate_above[some]
        gap = -np.abs(log_above - log_below)  # log of the smaller tail over the larger
        log_small[idx] = gap - np.log1p(np.exp(gap))
        lower_side[idx] = log_below <= log_above
        log_mass[idx] = np.logaddexp(log_below, log_above) - _LOG_SQRT_2PI
        # the U partial of either tail is phi(u) P(a < V < b | U = u), its
        # rate in c = u / s over s
        along[idx] = np.where(log_below <= log_above, rate_below, rate_above) / s[idx]
    h, mills = _probit(log_small, lower_side)
    slope = np.full(h.shape, math.nan)
    idx = np.flatnonzero(np.isfinite(h) & (s > 0))
    if idx.size:
        u, a, b, r, s = (x[idx] for x in (u, a, b, r, s))
        side = np.where(lower_side[idx], 1.0, -1.0)
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
            slope[idx] = mills[idx] * (du[idx] * along_u + side * dab[idx] * across)
    return h, slope


def check_level(alpha: float) -> None:
    """Raise ``InvalidArgumentError`` unless ``alpha`` lies in (0, 1) and above
    2**-53, where ``Phi^{-1}(1 - alpha / 2)`` is finite: the one level check."""
    if not 0 < alpha < 1:
        raise InvalidArgumentError("alpha must lie in (0, 1)")
    if not alpha > 2.0**-53:  # Phi^{-1} of 1 is inf
        raise InvalidArgumentError("alpha must exceed 2**-53, or 1 - alpha / 2 rounds to 1")


def check_rho(rho: float) -> None:
    """Raise ``InvalidArgumentError`` unless the split share ``rho`` lies in (0, 1)."""
    if not 0 < rho < 1:
        raise InvalidArgumentError("rho must lie in (0, 1)")


def split_size(rho: float, n: int) -> int:
    """The rows of a ``rho`` share of n, ``round(rho * n)``: data splitting's
    subsample, and the one to which exact and uv match tau2."""
    return int(round(rho * n))


def _results(roots, status, levels) -> list[IntervalEstimate | ExactSIError]:
    """Entry i: target i's interval from its endpoint roots ``roots[:, i]``
    (lower, then upper), or the error that stopped it.

    ``status`` holds each endpoint's ``invert_monotone`` status and
    ``levels`` the pivot levels of the lower and upper endpoints.  A target
    whose endpoint failed gets that endpoint's ``root_error`` (a
    ``NoRootError`` names its level), the lower endpoint's first.
    """
    out: list[IntervalEstimate | ExactSIError] = []
    for lower, upper, *ends in zip(*roots.tolist(), *status.tolist()):
        failed = [i for i, end in enumerate(ends) if end != ROOT]
        if failed:
            out.append(root_error(ends[failed[0]], levels[failed[0]]))
            continue
        try:
            out.append(IntervalEstimate(lower, upper))
        except ExactSIError as exc:
            out.append(exc)
    return out


def _invert(probit, record, alpha: float, seeds, scale) -> list[IntervalEstimate | ExactSIError]:
    """Level ``1 - alpha`` intervals of k targets from a pivot that decreases
    in beta0: the one inversion behind ``invert_pivot`` and
    ``polyhedral_interval``, which solves every endpoint of every target in
    one ``invert_monotone`` call on the negated probit ``-h``, which
    increases.  The pivot is the level ``1 - alpha / 2`` (lower endpoint) or
    ``alpha / 2`` (upper) exactly where ``-h`` is ``-z`` or ``+z``, ``z =
    Phi^{-1}(1 - alpha / 2)``.

    ``probit(record, x)`` gives h and its slope on a record of flat fields
    and abscissae of one size; ``record`` is such a record over the targets,
    which this flattens once against both rows of seeds.  ``seeds(z)`` gives
    each endpoint's start, the lower endpoints in row 0, and ``scale`` each
    target's length for the stopping rule: a step of ``numerics._STEP_TOL``
    times it, or a quadratic contraction.  One probit call evaluates every
    seed, and its values and slopes there are the first iteration.  An
    endpoint whose value there is NaN, such as either endpoint of a target
    with a NaN constant, or whose seed or scale is not finite or positive,
    fails without a search (``NAN_VALUE``, or ``NO_START`` where the seed or
    scale overflowed).  Entry i is target i's interval, or the error its own
    endpoints met (see ``_results``).
    """
    check_level(alpha)
    levels = 1.0 - alpha / 2.0, alpha / 2.0  # of the lower, then the upper endpoints
    z = float(ndtri(levels[0]))
    k = scale.size
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        starts = seeds(z).ravel()
    every = type(record)(*(np.concatenate([col, col]) for col in _columns(record)))
    h, slope = probit(every, starts)
    scales = np.concatenate([scale, scale])
    usable = np.isfinite(starts) & (scales > 0.0) & (scales < math.inf)
    nan = np.isnan(h) | ~usable
    solve = np.flatnonzero(~nan)

    def negated(x, *columns):
        h, slope = probit(type(every)(*columns), x)  # every's fields, compacted
        return -h, -slope

    overflow = np.isinf(starts) | np.isinf(scales)
    status = np.where(nan, np.where(overflow, NO_START, NAN_VALUE), ROOT)
    roots = np.full(2 * k, math.nan)
    roots[solve], status[solve] = invert_monotone(
        negated,
        np.where(solve < k, -z, z),
        starts[solve],
        scales[solve],
        args=tuple(col[solve] for col in _columns(every)),
        first=(-h[solve], -slope[solve]),
    )
    return _results(roots.reshape(2, k), status.reshape(2, k), levels)


def invert_pivot(params: PivotParams, alpha: float) -> list[IntervalEstimate | ExactSIError]:
    """Level ``1 - alpha`` intervals from the exact pivots.

    Given the truncation, the estimate's law is an exponential family in
    beta0 with natural parameter ``lambda_j beta0 / sigma_j2`` and ``lambda_j
    > 0``, so by its monotone likelihood ratio the pivot decreases in beta0,
    and ``_invert`` solves every endpoint on ``_exact_probit``, the first
    iteration from one call at the seeds.  Each endpoint starts at its
    full-line value ``(beta_hat - zeta -+ z sd) / lambda``, its root without
    truncation, on the scale ``sd / lambda``.  Entry i is target i's
    interval, or the error its own endpoints met: a ``NoRootError`` when an
    endpoint is not bracketed within ``BRACKET_EXPANSIONS`` steps, a
    ``NumericalDegeneracyError`` for a NaN pivot, a seed or scale that
    overflows, or a search that does not converge.  A target with a NaN
    constant is not solved and fails alone, one whose ``sigma_j2`` is NaN or
    not positive with a ``NumericalDegeneracyError`` that says so.
    """
    line = PivotParams(*(np.atleast_1d(x).astype(float) for x in _columns(params)))
    # a tiny lambda_j overflows the seeds and scale, and _invert fails its target
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sd = np.sqrt(line.sigma_j2)
        scale = sd / line.lambda_j
    center = line.beta_hat_j - line.zeta_j
    out = _invert(
        _exact_probit, line, alpha,
        lambda z: (center + _ENDPOINT_SIDES * (z * sd)) / line.lambda_j, scale,
    )
    return [
        result if good else NumericalDegeneracyError("sigma_j2 must be positive")
        for result, good in zip(out, (line.sigma_j2 > 0).tolist())
    ]


@dataclass(frozen=True)
class PolyhedralBounds:
    """Truncation of the non-randomized lasso event for one target, or several.

    Given the selected set and signs, and the residual off the target contrast,
    the estimate ``beta_hat`` is Gaussian with standard deviation ``sd``
    truncated to ``[lower, upper]``.  Fields are floats, or arrays over
    targets.  A NaN constant gives a NaN pivot; ``polyhedral_bounds`` gives a
    target that failed a check a NaN ``sd`` in its row.  Split and uv give
    bounds of -inf and +inf: no truncation, and so the z pivot.
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
    ``||v|| = 1 / ||c||``, or, if larger, below 1e-12 of the terms that it
    cancels, ``(|u_I| + |G_IE| |G_EE^{-1} u_E|) / lam`` (inactive).  Such a
    row is orthogonal to the line; with a slack that is 0 to 1e-12 of its
    terms too, it is tight and fails the strict event, as the identically
    zero row of an inactive copy of a selected column does.  The
    factor of ``G_EE`` and its verdict are the dataset's
    (``Dataset.checked_factor``), which ``build_target`` and the
    selected-model plug-in share.  Returns one
    record of arrays whose row j is target j's bounds, and each target's
    error; a target with an error has a NaN ``sd``.
    """
    E = np.asarray(selected, dtype=int)
    S = np.asarray(signs, dtype=float)
    factor = data.checked_factor(E, "selected design", SingularDesignError)
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

    abs_ie = np.abs(G_EI.T)

    def sizes(u, ginv_u):  # the size of the terms that each inactive row cancels
        across = (np.abs(u[inactive]) + abs_ie @ np.abs(ginv_u)) / lam
        return np.vstack([np.zeros_like(ginv_u), across, across])

    base = G_EI.T @ ginv_s[:, 0]
    h = np.concatenate([-lam * S * ginv_s[:, 0], 1.0 - base, 1.0 + base])
    base_size = 1.0 + abs_ie @ np.abs(ginv_s[:, 0])
    h_size = np.concatenate([np.zeros(q), base_size, base_size])
    residual = np.diag(data.gram)[inactive] - (G_EI * ginv_ei).sum(axis=0)
    across_norm = np.sqrt(np.maximum(residual, 0.0)) / lam
    row_norm = np.concatenate([np.sqrt(np.diag(ginv)), across_norm, across_norm])
    coefs, slack = rows(xtv, ginv_v), h[:, None] - rows(xtgamma, ginv_gamma)
    zero = 1e-12 * np.maximum(row_norm[:, None] / np.sqrt(norm2), sizes(xtv, ginv_v))
    lower, upper, violated = line_interval(coefs, zero, slack)
    # an orthogonal row whose slack is 0 to rounding is tight: violated
    tight = np.abs(slack) <= 1e-12 * (h_size[:, None] + sizes(xtgamma, ginv_gamma))
    violated |= ((np.abs(coefs) <= zero) & tight).any(axis=0)
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
    return PolyhedralBounds(
        lower, upper, beta_hat, np.where(ok, sigma * np.sqrt(norm2), math.nan)
    ), errors


def polyhedral_pivot(bounds: PolyhedralBounds, beta0):
    """Truncated-Gaussian CDF of the estimate at its observed value, given
    ``beta0``: ``Phi(h)`` of the probit h of its one kernel,
    ``_polyhedral_probit``, on which the inversion solves too.  The fields
    of ``bounds`` may be arrays of several targets' bounds, broadcast
    against ``beta0``.  In the 0/1 limit the pivot is 0 for ``beta0`` above
    the estimate and 1 below it; a NaN constant gives NaN.
    """
    return _pivot(_polyhedral_probit, bounds, beta0)


def _polyhedral_probit(bounds: PolyhedralBounds, beta0):
    """The polyhedral pivot's probit ``h = Phi^{-1}(pivot)`` at ``beta0`` and
    its slope ``dh/dbeta0``, on the flat arrays of ``bounds`` and ``beta0``.

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
    / 2`` then enters a difference, so h, from the log of the smaller of the
    masses of ``(p1, p2)`` and ``(p2, p3)`` over that of ``(p1, p3)``, holds
    however far beta0 lies from the truncation interval.  So does its slope,
    ``+-tail / phi(h)`` (``_probit``) times the slope of that log, + where
    the tail is the lower one, from the rate ``(phi(q) - phi(p)) / mass(p,
    q)`` of each piece.  The slope's relative error is about ``eps x / w``
    at x sd from a piece of width w, where the rates of two pieces that
    share an end nearly cancel.  In the 0/1 limit (an estimate outside its
    bounds, or an interval with no mass) ``h`` is infinite and the slope
    NaN; a NaN constant gives NaN for both.
    """
    lower, upper, beta_hat, sd = _columns(bounds)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ends = np.array([lower, beta_hat, upper])
        std = (ends - beta0) / sd  # a, m, b
        flip = std[0] > -std[2]
        p = np.where(flip, -std[::-1], std)
        # half the standardized widths of (a, m) and (m, b)
        widths = 0.5 * ((ends[1:] - ends[:-1]) / sd)
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
        inside = (lower < beta_hat) & (beta_hat < upper)
        live = inside & (logs[2] > -math.inf)
        # the smaller tail is the lower one exactly where first and flip differ
        lower_side = first != flip
        log_small = np.minimum(logs[0], logs[1]) - logs[2]
        if not live.all():
            # the 0/1 limit is 0 for an estimate on or below its lower bound,
            # and where the interval carries no mass, for beta0 above the
            # estimate; NaN where a standardized width is undefined (a NaN
            # constant, or an infinite estimate)
            lower_side = np.where(live, lower_side, np.where(
                inside, beta0 > beta_hat, beta_hat <= lower
            ))
            log_small = np.where(live, log_small, np.where(
                np.isnan(widths[0] + widths[1]), math.nan, -math.inf
            ))
        h, factor = _probit(log_small, lower_side)  # factor: tail / phi(h)
        # dp/dbeta0 is -1 / sd, or 1 / sd on the reflected line
        slope = factor * (np.where(first, rate_whole - rates[0], rate_second - rate_whole) / sd)
    return h, np.where(np.isfinite(h), slope, math.nan)


def polyhedral_interval(
    bounds: PolyhedralBounds, alpha: float
) -> list[IntervalEstimate | ExactSIError]:
    """Invert the polyhedral pivots of one or several targets.

    Every endpoint is reported where it lies, however far out: an estimate
    near a truncation bound can put one or both endpoints thousands of sd
    beyond it, and the expected length of these intervals is infinite
    (Kivaranovic & Leeb, JASA 2021).  The truncated Gaussian is an
    exponential family in beta0 with natural parameter ``beta0 / sd^2``, so
    by its monotone likelihood ratio the pivot decreases in beta0, and
    ``_invert`` solves the endpoints on ``_polyhedral_probit`` on the scale
    ``sd``.  Each starts at the root of the one-sided exponential tail law
    at its own bound: far below ``lower`` the estimate is ``lower`` plus an
    exponential of rate ``(lower - beta0) / sd^2``, whose upper ``alpha /
    2`` tail starts at ``beta_hat`` where ``beta0 = lower - sd^2 log(2 /
    alpha) / (beta_hat - lower)``, and mirrored at ``upper``.  That law
    holds only far beyond the bound, so the root is taken where it is finite
    and at least one sd beyond its bound (an estimate within ``log(2 /
    alpha)`` sd of the bound); elsewhere the seed is the full-line value
    ``beta_hat -+ z sd`` (``z = Phi^{-1}(1 - alpha / 2)``).  Entry i is
    target i's interval, or the error its own endpoints met (see
    ``_results``), such as the NaN pivot of a NaN constant.
    """
    bounds = PolyhedralBounds(*(np.array(x, dtype=float, ndmin=1) for x in _columns(bounds)))
    lower, upper, beta_hat, sd = _columns(bounds)
    side = _ENDPOINT_SIDES

    def seeds(z):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # how far beyond its bound the root of the tail law lies
            depth = sd**2 * math.log(2.0 / alpha) / np.array([beta_hat - lower, upper - beta_hat])
            tail = np.array([lower, upper]) + side * depth
        return np.where(np.isfinite(tail) & (depth >= sd), tail, beta_hat + side * (z * sd))

    return _invert(_polyhedral_probit, bounds, alpha, seeds, sd)


def plug_in_sigma2(data: Dataset, E: np.ndarray, model: str) -> float:
    """Residual-based noise variance of least squares on the selected columns,
    or (full) on the independent columns of X, with n - rank degrees of
    freedom.  The normal equations read the dataset's ``gram`` and ``xty``,
    and its factor of the Gram block of those columns (``Dataset.factor``),
    checked for the selected model; the full model's columns pass the rank
    test, so it asks only that Cholesky succeed."""
    y, X, n = data.y, data.X, data.n
    check_model(model)
    cols = independent_columns(data.gram) if model == "full" else np.asarray(E, dtype=int)
    df = n - cols.size
    if df < 1:
        raise SingularDesignError("no residual degrees of freedom for the plug-in")
    resid = y
    if cols.size:
        if model == "selected":
            factor = data.checked_factor(cols, "plug-in design", SingularDesignError)
        elif (factor := data.factor(cols)) is None:
            # the rank test keeps every column, yet Cholesky fails
            raise SingularDesignError("plug-in design is singular: Cholesky failed")
        coef = cho_solve(factor, data.xty[cols])  # before X[:, cols]: one n-row copy at a time
        resid = y - X[:, cols] @ coef
    with np.errstate(over="ignore"):  # calibrate rejects an infinite variance
        return float(resid @ resid / df)


def split_inference(
    data: Dataset, rho: float, lam: float, seed: int
) -> tuple[SelectionOutcome, np.ndarray]:
    """Data splitting's selection: the lasso on a random ``split_size(rho,
    n)`` subsample.  Returns its outcome and the held-out rows, on which the
    targets and, unless the noise is known, their plug-in noise estimate are
    read."""
    check_rho(rho)
    n = data.n
    n1 = split_size(rho, n)
    if not 2 <= n1 <= n - 2:
        raise InvalidArgumentError(f"split size n1={n1} leaves no usable half")
    perm = np.random.default_rng(seed).permutation(n)
    train = data.subset(perm[:n1])
    return solve_randomized_lasso(train, lam=lam, epsilon=0.0, w=np.zeros(data.p)), perm[n1:]


def uv_inference(
    data: Dataset, var_w: float, lam: float, seed: int
) -> tuple[SelectionOutcome, np.ndarray]:
    """Response splitting's selection: the lasso on ``y + w``, ``w ~ N(0,
    var_w I)``, whose X'w has the exact method's law at tau2 ``var_w``
    (``check_tau2``) and base X'X.  Returns its outcome and X'w: with r =
    ``sigma2 / var_w``, ``sigma2`` the noise variance of y, ``y - w r`` is
    independent of ``y + w`` and has variance ``sigma2 (1 + r)``, and its
    X' is ``X'y - X'w r``."""
    check_tau2(var_w)
    w = np.random.default_rng(seed).standard_normal(data.n) * math.sqrt(var_w)
    # the lasso on y + w is the lasso on y perturbed linearly by X'w
    xtw = data.X.T @ w
    return solve_randomized_lasso(data, lam=lam, epsilon=0.0, w=xtw), xtw


def untruncated_bounds(target: TargetSpec, variance: float) -> PolyhedralBounds:
    """The estimates c'v of ``target`` with no truncation, where ``variance``
    is the noise variance of the response v."""
    sd = np.sqrt(variance * target.norm2)
    infinite = np.full(sd.size, math.inf)
    return PolyhedralBounds(-infinite, infinite, target.estimate, sd)


def z_interval(bounds: PolyhedralBounds, alpha: float) -> list[IntervalEstimate | ExactSIError]:
    """Level ``1 - alpha`` intervals ``beta_hat -+ z sd``, ``z = Phi^{-1}(1 -
    alpha / 2)``: the polyhedral pivot of untruncated ``bounds``, inverted in
    closed form.  Entry i is target i's interval, or its error (see
    ``_results``), such as that of a NaN or zero ``sd``; ``alpha`` outside
    (0, 1) raises ``InvalidArgumentError``."""
    check_level(alpha)
    roots = bounds.beta_hat + _ENDPOINT_SIDES * (float(ndtri(1.0 - alpha / 2.0)) * bounds.sd)
    return _results(roots, np.full(roots.shape, ROOT), None)
