"""Stable Gaussian primitives on arrays.

Log probabilities of standard Gaussians over intervals (with infinite
endpoints allowed), elementwise; the slice of a polyhedron along a line; the
rank test of a Gram matrix and the one check of every matrix the package
factors (``factor_spd``, or ``scaled_rcond`` and ``check_conditioning`` on a
factor made elsewhere); and the vectorized inversion of increasing
functions.  The inversion runs one safeguarded Newton loop over all
elements: each starts at its own seed, keeps a bracket from the signs of the
values it has seen, bisects where a Newton step would leave that bracket or
the slope is not positive, steps toward the target by a doubling multiple of
its own scale while it has no bracket, and stops when its next step is at
most 1e-10 of that scale (plus 4 eps of the root), so that the rule does not
depend on units.  The pivots decrease in their parameter and are inverted on
their negated probit scale, where a pivot without truncation is linear in
its parameter (see ``inference.invert_pivot``).
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
from scipy.linalg.lapack import dpocon, dpstrf
from scipy.special import log_ndtr, logsumexp

from .errors import (
    EmptyMassError,
    ExactSIError,
    InvalidArgumentError,
    NumericalDegeneracyError,
)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# ``factor_spd`` rejects a matrix whose 1-norm condition number, scaled to
# unit diagonal, LAPACK estimates above this.
_MAX_SCALED_COND = 1e12
# Steps an element may take without a bracket before its root is declared missing.
BRACKET_EXPANSIONS = 60
# ``invert_monotone`` stops an element when its next step is at most
# _STEP_TOL times its scale plus 4 eps of the iterate.
_STEP_TOL = 1e-10
_X_RTOL = 4 * np.finfo(float).eps
# Inside a bracket the step length at least halves every two iterations, so
# twice the bisections that span the doubles bound the loop.
_MAX_ITERATIONS = BRACKET_EXPANSIONS + 2 * int(
    math.log2(np.finfo(float).max) - math.log2(np.finfo(float).smallest_subnormal)
)


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
    """log(1 - exp(d)) for d <= 0, elementwise, without catastrophic loss;
    -inf for d >= 0 and for NaN (the difference of two -inf logs)."""
    d = np.fmin(d, 0.0)
    with np.errstate(divide="ignore"):
        # exp(d) < 1/2: log1p is safe; exp(d) close to 1: expm1 keeps precision
        return np.where(d < -math.log(2.0), np.log1p(-np.exp(d)), np.log(-np.expm1(d)))


def log_standard_mass(za, zb):
    """Log of P(za < Z < zb) for a standard normal Z, elementwise over arrays
    of standardized endpoints (infinite ones allowed), without checks.
    Finite (not -inf) whenever the dominant endpoint's log-CDF is, which
    covers intervals hundreds of standard deviations from the mean."""
    # Reflect so the dominant endpoint sits in the left tail; `za > -zb` is
    # the overlap-free way to test za + zb > 0 with infinities around.
    flip = za > -zb
    lo_arg = np.where(flip, -zb, za)
    hi_arg = np.where(flip, -za, zb)
    log_hi = log_ndtr(hi_arg)
    return log_hi + _log1mexp(log_ndtr(lo_arg) - log_hi)


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


def scaled_rcond(mat: np.ndarray, factor: tuple) -> float:
    """LAPACK's ``dpocon`` estimate of the reciprocal 1-norm condition of
    ``mat`` scaled to unit diagonal, from ``factor``, its upper ``cho_factor``.
    With D the root of the diagonal, mat = R'R makes R D^-1 the factor of
    D^-1 mat D^-1, whose 1-norm is one pass over |mat| and a matrix-vector
    product; dpocon reads only the upper triangle of the factor."""
    scale = 1.0 / np.sqrt(np.diag(mat))
    norm = float((scale * (np.abs(mat) @ scale)).max())
    return float(dpocon(factor[0] * scale, norm)[0])


def check_conditioning(rcond: float, what: str, error: type[ExactSIError]) -> None:
    """Raise ``error`` ("<what> is singular or ill-conditioned") where the
    scaled condition that ``rcond`` is the reciprocal of exceeds
    ``_MAX_SCALED_COND``; a NaN or zero ``rcond`` fails."""
    if not rcond * _MAX_SCALED_COND >= 1.0:
        raise error(
            f"{what} is singular or ill-conditioned (scaled cond > {_MAX_SCALED_COND:.0e})"
        )


def factor_spd(mat: np.ndarray, what: str, error: type[ExactSIError]) -> tuple:
    """``cho_factor`` of ``mat`` (its upper triangle), checked by the one
    rule for every matrix the package factors: ``error`` ("<what> is
    singular or ill-conditioned") where Cholesky fails or where
    ``scaled_rcond`` puts the 1-norm condition of ``mat`` scaled to unit
    diagonal above ``_MAX_SCALED_COND``.  A Cholesky solve is as accurate as
    that scaled condition allows (van der Sluis 1969), so units cannot decide
    a verdict."""
    try:
        factor = cho_factor(mat)
        rcond = scaled_rcond(mat, factor)
    except np.linalg.LinAlgError:
        factor, rcond = None, 0.0
    check_conditioning(rcond, what, error)
    return factor


def line_interval(
    coefs: np.ndarray, zero: np.ndarray, slack: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slice the constraints ``coefs t < slack`` along t, column by column:
    entry (i, j) of ``coefs`` and ``slack`` is row i of line j.

    A coefficient at most ``zero`` in size (which broadcasts against
    ``coefs``: the caller's rounding threshold, such as ``1e-12 ||row||
    ||direction||`` for ``coefs = rows @ direction``) makes its row
    orthogonal to the line, where it must hold on its own; a column where
    such a row is violated is flagged in the returned mask, which signals an
    upstream inconsistency.  The other rows bound t below (negative
    coefficients) or above (positive ones) by ``slack / coefs``; a side no
    row bounds is infinite.  Returns the ``lower`` and ``upper`` ends of each
    column's slice, which may be empty, and the mask of violated columns.
    """
    orthogonal = np.abs(coefs) <= zero
    violated = (orthogonal & (slack <= 0)).any(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        bounds = slack / coefs
    lower = np.where(~orthogonal & (coefs < 0), bounds, -math.inf).max(axis=0, initial=-math.inf)
    upper = np.where(~orthogonal & (coefs > 0), bounds, math.inf).min(axis=0, initial=math.inf)
    return lower, upper, violated


def invert_monotone(g, target, seed, scale, args=()) -> np.ndarray:
    """Solve ``g(x) = target`` elementwise for continuous increasing ``g``.

    ``g(x, *args)`` returns the values of g and of its slope at the
    abscissae ``x``, elementwise.  ``target``, the starting points ``seed``,
    each element's positive length ``scale`` and ``args`` broadcast
    together.  All elements run one safeguarded Newton loop, one call of
    ``g`` per iteration on the elements still open:

    * the nearest abscissae seen so far where g is below and above the
      target bracket the root once both exist;
    * a slope is usable where it is positive and gives a finite step;
    * inside a bracket, the Newton step is taken when it lands strictly
      inside the bracket and is at most half the step before the last, or
      is within the tolerance below, else the bracket is bisected;
    * without a bracket, the Newton step is taken where the slope is usable;
      elsewhere a blind step of ``scale``, doubled at each blind step, goes
      right where g is below the target and left where it is above.  After
      ``BRACKET_EXPANSIONS`` steps without a bracket, not counting Newton
      steps shorter than the step before them, the root is NaN.

    An element stops when its next step is at most ``_STEP_TOL * scale + 4
    eps |x|``; its root is the point that step reaches, so the stopping rule
    scales with the problem.  An element where g equals its target has that
    abscissa as root.  A NaN value of g raises ``NumericalDegeneracyError``,
    and so does a search still open after ``_MAX_ITERATIONS`` calls.
    """
    target, x, scale, *args = np.broadcast_arrays(
        np.asarray(target, dtype=float),
        np.asarray(seed, dtype=float),
        np.asarray(scale, dtype=float),
        *(np.asarray(a) for a in args),
    )
    shape = target.shape
    roots = np.full(target.size, np.nan)
    if not (np.isfinite(x).all() and np.isfinite(scale).all() and (scale > 0).all()):
        raise InvalidArgumentError("seeds must be finite and scales positive and finite")
    idx = np.arange(target.size)
    args = [a.ravel() for a in args]
    # per open element: its target and iterate; its absolute tolerance; the
    # nearest abscissae seen below and above the target with their values
    # (NaN and -+inf until seen; as g increases, the first lies left of the
    # second); the steps counted without a bracket; the next blind step's
    # length, which doubles at each blind step; and the last two step
    # lengths, halved
    ones = np.ones(idx.size)
    state = [
        target.ravel(), x.ravel(), _STEP_TOL * scale.ravel(), np.nan * ones, -np.inf * ones,
        np.nan * ones, np.inf * ones, 0 * ones, scale.ravel(), np.inf * ones, np.inf * ones,
    ]
    for _ in range(_MAX_ITERATIONS if idx.size else 0):
        target, x, atol, neg, f_neg, pos, f_pos, outward, reach, last, before = state
        value, slope = g(x, *args)
        f = value - target
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            near = (f < 0) & (f >= f_neg)
            neg, f_neg = np.where(near, x, neg), np.where(near, f, f_neg)
            near = (f > 0) & (f <= f_pos)
            pos, f_pos = np.where(near, x, pos), np.where(near, f, f_pos)
            bracketed = ~np.isnan(neg + pos)
            newton = -f / slope
            usable = np.isfinite(newton * slope) & (slope > 0)
            tol = atol + _X_RTOL * np.abs(x)
            size = np.abs(newton)
            landing = x + newton
            # inside a bracket, a Newton step must land strictly inside it and
            # at least halve the step before the last, unless it is within the
            # tolerance, which ends the search even on an end of the bracket
            trusted = usable & (
                ~bracketed | (size <= tol) | ((neg < landing) & (landing < pos) & (size <= before))
            )
            bisect = 0.5 * neg + 0.5 * pos - x
            step = np.where(trusted, newton, np.where(bracketed, bisect, -np.sign(f) * reach))
            step[f == 0] = 0.0
        done = np.abs(step) <= tol
        stop = done | np.isnan(f) | (~bracketed & (outward >= BRACKET_EXPANSIONS))
        # a Newton step shorter than the last one converges: it does not count
        # against the steps an element may take without a bracket
        state = [
            target, x + step, atol, neg, f_neg, pos, f_pos,
            outward + ~(bracketed | (trusted & (size < 2.0 * last))),
            np.where(trusted | bracketed, reach, 2.0 * reach), 0.5 * np.abs(step), last,
        ]
        if stop.any():
            if np.isnan(f).any():
                raise NumericalDegeneracyError("root finding met a NaN value of g")
            roots[idx[done]] = state[1][done]
            keep = ~stop
            state, idx, args = [a[keep] for a in state], idx[keep], [a[keep] for a in args]
            if not idx.size:
                return roots.reshape(shape)
    if idx.size:
        raise NumericalDegeneracyError(f"root finding did not converge in {_MAX_ITERATIONS} steps")
    return roots.reshape(shape)
