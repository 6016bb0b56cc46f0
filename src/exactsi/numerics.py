"""Stable Gaussian primitives on arrays.

Log probabilities of univariate Gaussians over intervals (with infinite
endpoints allowed), elementwise; the slice of a polyhedron along a line; the
rank test of a Gram matrix; and the vectorized inversion of monotone
functions, which brackets every root by doubling and then solves them all in
one loop of Chandrupatla's method, written here on plain numpy arrays.  The
loop starts from the function values the bracketing already computed and
stops each root at a bracket width of 1e-10 (plus 4 eps of the root).
Tail quantities are computed through ``log_ndtr`` (scaled complementary error
function under the hood) so that differences of far-tail CDFs never cancel to
zero while the true value is representable.  The log-space Simpson quadrature
of density-times-weight products here is on no pipeline path (the exact pivot
is closed form); it stays only because the benchmark's trace hooks still wrap
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpstrf
from scipy.special import log_ndtr, logsumexp

from .errors import (
    EmptyMassError,
    InvalidArgumentError,
    NumericalDegeneracyError,
    SingularDesignError,
)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# Doubling steps a seed bracket may take before its root is declared missing.
BRACKET_EXPANSIONS = 60
# Chandrupatla's stopping rule: a bracket narrower than 4 eps |x| + 1e-10, or
# a function value no larger than the smallest normal, ends the search; as many
# iterations as bisections span the normal floats end it too.
_XATOL = 1e-10
_XRTOL = 4 * np.finfo(float).eps
_FATOL = np.finfo(float).smallest_normal
_MAX_ITERATIONS = math.log2(np.finfo(float).max) - math.log2(_FATOL)


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid extent (in standard deviations) and node count for quadrature."""

    half_width_sigmas: float = 8.5
    n_points: int = 4097

    def __post_init__(self):
        if not self.half_width_sigmas >= 6:
            raise InvalidArgumentError("half_width_sigmas must be >= 6")
        if not self.n_points >= 64:
            raise InvalidArgumentError("n_points must be >= 64")


DEFAULT_QUADRATURE = QuadratureSpec()


def _log1mexp(d):
    """log(1 - exp(d)) for d <= 0, elementwise, without catastrophic loss."""
    d = np.asarray(d, dtype=float)
    out = np.full(d.shape, -np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        small = d < -math.log(2.0)  # exp(d) < 1/2: log1p is safe
        out = np.where(small, np.log1p(-np.exp(np.minimum(d, 0.0))), out)
        big = (~small) & (d < 0)  # exp(d) close to 1: expm1 keeps precision
        out = np.where(big, np.log(-np.expm1(np.where(big, d, -1.0))), out)
    return out


def log_truncation_prob(interval, theta, vartheta):
    """Log of the probability that N(theta, vartheta^2) falls in ``interval``.

    ``interval`` is a ``(lower, upper)`` pair of endpoint arrays (infinite
    endpoints allowed); elementwise over the broadcast endpoints, ``theta`` and
    ``vartheta``, and a float when they are all scalars.  Finite (not -inf)
    whenever the dominant endpoint's log-CDF is, which covers means hundreds
    of standard deviations away from the interval.
    """
    lower, upper, theta, vartheta = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (*interval, theta, vartheta))
    )
    if not (vartheta > 0).all():
        raise InvalidArgumentError("vartheta must be positive")
    if np.isnan(theta).any():
        raise InvalidArgumentError("log_truncation_prob: NaN theta")
    with np.errstate(invalid="ignore"):
        za = (lower - theta) / vartheta
        zb = (upper - theta) / vartheta
        # Reflect so the dominant endpoint sits in the left tail; `za > -zb`
        # is the overlap-free way to test za + zb > 0 with infinities around.
        flip = za > -zb
        lo_arg = np.where(flip, -zb, za)
        hi_arg = np.where(flip, -za, zb)
    log_hi = log_ndtr(hi_arg)
    log_lo = log_ndtr(lo_arg)
    out = log_hi + _log1mexp(log_lo - log_hi)
    if out.ndim == 0:
        return float(out)
    return out


def integrate_weighted_gaussian(
    mean: float,
    sd: float,
    log_weight: Callable[[np.ndarray], np.ndarray],
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    upper_limit: float = math.inf,
) -> float:
    """Log of ``int_{-inf}^{upper_limit} phi(x; mean, sd^2) * w(x) dx``.

    ``log_weight`` maps a grid of abscissae to log-weights (``-inf`` allowed
    pointwise).  Composite Simpson weights on an even grid over
    ``[mean - h*sd, min(mean + h*sd, upper_limit)]``, accumulated with
    log-sum-exp; mass beyond the grid is below the documented tolerances.
    Returns ``-inf`` when the upper limit cuts away the whole grid.
    """
    if not sd > 0:
        raise InvalidArgumentError("sd must be positive")
    if math.isnan(mean) or math.isnan(upper_limit):
        raise InvalidArgumentError("integrate_weighted_gaussian: NaN bound")
    lo = mean - spec.half_width_sigmas * sd
    hi = min(mean + spec.half_width_sigmas * sd, upper_limit)
    if not hi > lo:
        return -math.inf
    n = spec.n_points + (spec.n_points % 2 == 0)  # Simpson wants an odd count
    x = np.linspace(lo, hi, n)
    logw = np.asarray(log_weight(x), dtype=float)
    if logw.ndim == 0:
        logw = np.full_like(x, float(logw))
    if np.isnan(logw).any():
        raise InvalidArgumentError("log_weight returned NaN")
    if np.all(np.isneginf(logw)):
        raise EmptyMassError("all grid weights are -inf: integrand carries no mass")
    z = (x - mean) / sd
    logf = -0.5 * z * z - math.log(sd) - _LOG_SQRT_2PI + logw
    simpson = np.full(n, 2.0)
    simpson[1::2] = 4.0
    simpson[0] = simpson[-1] = 1.0
    step = (hi - lo) / (n - 1)
    return float(logsumexp(logf + np.log(simpson * (step / 3.0))))


def independent_columns(gram: np.ndarray) -> np.ndarray:
    """The package's one rank test: the sorted columns that LAPACK's pivoted
    Cholesky (``dpstrf``, tolerance n eps times the largest pivot) keeps on the
    Gram scaled to unit diagonal, so that units cannot decide a feature's rank;
    a zero column is dependent."""
    norms = np.sqrt(np.diag(gram))
    norms[norms == 0] = 1.0  # a zero column keeps its zero pivot
    _, piv, rank, _ = dpstrf(gram / norms / norms[:, None])
    return np.sort(piv[:rank] - 1)


def factor_gram(gram: np.ndarray, what: str) -> tuple:
    """``cho_factor`` of a Gram matrix; ``SingularDesignError`` ("<what> is rank
    deficient") when ``independent_columns`` drops a column."""
    if independent_columns(gram).size < gram.shape[0]:
        raise SingularDesignError(f"{what} is rank deficient")
    return cho_factor(gram)


def line_interval(
    rows: np.ndarray, direction: np.ndarray, slack: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slice the constraints ``(rows @ direction) t < slack`` along t, column
    by column: column j of ``direction`` and ``slack`` is one line.

    A row whose coefficient ``|row @ direction|`` is at most ``1e-12 ||row||
    ||direction||`` is orthogonal to the line and must hold on its own; a
    column where such a row is violated is flagged in the returned mask,
    which signals an upstream inconsistency.  The other rows bound t below
    (negative coefficients) or above (positive ones) by ``slack / coefs``; a
    side no row bounds is infinite.  Returns the ``lower`` and ``upper`` ends
    of each column's slice, which may be empty, and the mask of violated
    columns.
    """
    coefs = rows @ direction
    scale = 1e-12 * np.linalg.norm(rows, axis=1)[:, None] * np.linalg.norm(direction, axis=0)
    zero = np.abs(coefs) <= scale
    violated = (zero & (slack <= 0)).any(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        bounds = slack / coefs
    lower = np.where(~zero & (coefs < 0), bounds, -math.inf).max(axis=0, initial=-math.inf)
    upper = np.where(~zero & (coefs > 0), bounds, math.inf).min(axis=0, initial=math.inf)
    return lower, upper, violated


def _chandrupatla(g, target, x1, f1, x2, f2, args):
    """Roots of ``g(x, *args) = target`` in the brackets ``[x1, x2]``, whose
    ends have the values ``f1 = g(x1) - target`` and ``f2 = g(x2) - target``.

    Chandrupatla's method (Adv. Eng. Software 28(3):145-149, 1997), one call
    of ``g`` per iteration on the elements still open: an inverse quadratic
    step through the last three points where it is safe, else bisection, kept
    half a tolerance inside the bracket.  The arithmetic is that of
    ``scipy.optimize.elementwise.find_root`` with ``xatol=1e-10``, step for
    step.  Returns the roots and their statuses: 0 converged, -1 the ends
    share a sign, -2 iteration cap, -3 non-finite value; the root is NaN on
    statuses -1 and -3.
    """
    roots = np.full(target.size, np.nan)
    status = np.zeros(target.size, dtype=int)
    active = np.arange(target.size)
    x3 = f3 = None
    nit = 0
    while True:
        better = np.abs(f1) < np.abs(f2)
        xmin, fmin = np.where(better, x1, x2), np.where(better, f1, f2)
        code = np.where(np.abs(fmin) <= _FATOL, 0, 1)
        code[(code == 1) & (np.sign(f1) == np.sign(f2))] = -1
        nonfinite = ~(np.isfinite(x1) & np.isfinite(x2)) | (np.isnan(f1) & np.isnan(f2))
        code[(code == 1) & nonfinite] = -3
        xmin[code < 0] = np.nan  # and so tol is NaN: no narrow bracket rescues it
        dx = np.abs(x2 - x1)
        tol = np.abs(xmin) * _XRTOL + _XATOL
        code[dx < tol] = 0
        if nit >= _MAX_ITERATIONS:
            code[code == 1] = -2
        stop = code != 1
        roots[active[stop]], status[active[stop]] = xmin[stop], code[stop]
        go = ~stop
        if not go.any():
            return roots, status
        active = active[go]
        x1, f1, x2, f2, dx, tol, target = (v[go] for v in (x1, f1, x2, f2, dx, tol, target))
        args = [arg[go] for arg in args]
        t = 0.5
        if x3 is not None:
            x3, f3 = x3[go], f3[go]
            with np.errstate(all="ignore"):  # the bisected lanes may divide by 0
                xi1 = (x1 - x2) / (x3 - x2)
                phi1 = (f1 - f2) / (f3 - f2)
                alpha = (x3 - x1) / (x2 - x1)
                quadratic = ((1 - np.sqrt(1 - xi1)) < phi1) & (phi1 < np.sqrt(xi1))
                t = np.where(
                    quadratic,
                    f1 / (f1 - f2) * f3 / (f3 - f2) - alpha * f1 / (f3 - f1) * f2 / (f2 - f3),
                    0.5,
                )
            tl = 0.5 * tol / dx
            t = np.clip(t, tl, 1 - tl)
        x = x1 + t * (x2 - x1)
        f = g(x, *args) - target
        same = np.sign(f) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, f
        nit += 1


def invert_monotone(g, target, lower, upper, args=()) -> np.ndarray:
    """Solve ``g(x) = target`` elementwise for continuous monotone ``g``.

    ``g(x, *args)`` is evaluated elementwise, and ``target``, the seed
    brackets ``[lower, upper]`` and ``args`` broadcast together.  Each
    bracket is expanded geometrically (factor 2 per step, at most
    ``BRACKET_EXPANSIONS`` steps) toward the side that has not yet straddled
    its target, or toward both sides while ``g`` ties on the two ends of the
    bracket; all brackets grow together, one call of ``g`` per step on the
    elements still growing.  An element whose target is still not
    straddled after those steps has root NaN, and one that ``g`` hits
    exactly at a bracket end has that end.  The other roots are isolated
    together by Chandrupatla's method (``_chandrupatla``) to a bracket width
    of 1e-10 plus 4 eps of the root, starting from the values ``g`` took on
    the final bracket ends, so the search evaluates neither end again.
    ``NumericalDegeneracyError`` reports a root the method could not isolate
    inside its straddling bracket, such as one where ``g`` is NaN.
    """
    target, a, b, *args = np.broadcast_arrays(
        np.asarray(target, dtype=float),
        np.asarray(lower, dtype=float),
        np.asarray(upper, dtype=float),
        *(np.asarray(x) for x in args),
    )
    shape = target.shape
    target, a, b = (x.ravel().copy() for x in (target, a, b))
    args = [x.ravel() for x in args]
    if not target.size:
        return target.reshape(shape)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InvalidArgumentError("seed bracket must be finite")
    ga, gb = g(np.concatenate([a, b]), *(np.concatenate([x, x]) for x in args)).reshape(2, -1)
    for _ in range(BRACKET_EXPANSIONS):
        grow = np.flatnonzero(
            ~((np.minimum(ga, gb) <= target) & (target <= np.maximum(ga, gb)))
        )
        if not grow.size:
            break
        width = b[grow] - a[grow]
        increasing = gb[grow] >= ga[grow]
        target_above = target[grow] > np.maximum(ga[grow], gb[grow])
        # For increasing g, values grow to the right; move the deficient side.
        right = target_above == increasing
        # A tie g(a) == g(b) does not tell the direction: move the other side too.
        tie = ga[grow] == gb[grow]
        x = np.concatenate([
            np.where(right, b[grow] + width, a[grow] - width),
            np.where(right, a[grow] - width, b[grow] + width)[tie],
        ])
        moved = np.concatenate([grow, grow[tie]])
        right = np.concatenate([right, ~right[tie]])
        gx = g(x, *(arg[moved] for arg in args))
        i, j = moved[right], moved[~right]
        b[i], gb[i] = x[right], gx[right]
        a[j], ga[j] = x[~right], gx[~right]
    straddled = (np.minimum(ga, gb) <= target) & (target <= np.maximum(ga, gb))
    roots = np.full(target.shape, np.nan)
    roots[straddled & (gb == target)] = b[straddled & (gb == target)]
    roots[straddled & (ga == target)] = a[straddled & (ga == target)]
    solve = np.flatnonzero(straddled & (ga != target) & (gb != target))
    if solve.size:
        x, status = _chandrupatla(
            g,
            target[solve],
            a[solve],
            ga[solve] - target[solve],
            b[solve],
            gb[solve] - target[solve],
            [arg[solve] for arg in args],
        )
        if status.any():
            raise NumericalDegeneracyError(
                "root finding failed inside a straddling bracket "
                f"(status {sorted(set(status[status != 0].tolist()))})"
            )
        roots[solve] = x
    return roots.reshape(shape)
