"""Stable Gaussian primitives on arrays.

Log probabilities of standard Gaussians over intervals (with infinite
endpoints allowed), elementwise; the slice of a polyhedron along a line; the
rank test of a Gram matrix and the one check of every matrix the package
factors (``factor_spd``, whose rule ``Dataset.checked_factor`` applies to the
factors a dataset keeps); and the vectorized inversion of increasing
functions.  The inversion runs one safeguarded Newton loop over all
elements: each starts at its own seed, keeps a bracket from the signs of the
values it has seen, bisects where a Newton step would leave that bracket or
the slope is not positive, steps toward the target by a doubling multiple of
its own scale while it has no bracket, and stops when its next step is at
most 1e-10 of that scale (plus 4 eps of the root), or when its last two
Newton steps contracted quadratically, so that the rule does not depend on
units.  Each element ends with its own status (``ROOT``, ``NO_BRACKET``,
``NAN_VALUE``, ``NO_CONVERGENCE``), which ``root_error`` turns into that
element's error.  The pivots decrease in their parameter and are inverted on
their negated probit scale, where a pivot without truncation is linear in
its parameter (see ``inference.invert_pivot``).
Tail quantities are computed through ``log_ndtr`` (scaled complementary error
function under the hood) so that differences of far-tail CDFs never cancel to
zero while the true value is representable.  ``cho_factor`` and
``cho_solve`` are scipy's functions of the same names on LAPACK's
``dpotrf`` and ``dpotrs`` without the wrappers' checks and copies, which at
the package's q x q sizes cost several times the factorization.  The
log-space Simpson quadrature of density-times-weight products here is on no
pipeline path (the exact pivot is closed form); it stays only because the
benchmark's trace hooks still wrap it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dpocon, dpotrf, dpotrs, dpstrf
from scipy.special import log_ndtr, logsumexp

from .errors import (
    EmptyMassError,
    ExactSIError,
    InvalidArgumentError,
    NoRootError,
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
# Where Newton converges quadratically, a step of length s after one of length
# t leaves about s^3 / t^2 for the next: the search stops on that step,
# unconfirmed, where _QUADRATIC_SAFETY times that length is within the
# tolerance.  A step longer than the tolerance then follows one more than 30
# times longer, so the two have contracted quadratically; with a factor of 1
# endpoints moved by up to 1.3e-9 of max(1, |x|).
_QUADRATIC_SAFETY = 1000.0
# ``invert_monotone``'s status of an element: its root was found; no bracket
# straddled the target within BRACKET_EXPANSIONS steps; g was NaN; the search
# was still open after _MAX_ITERATIONS calls of g.  NO_START is a caller's
# status for an element it cannot pass: its seed or scale is not finite.
ROOT, NO_BRACKET, NAN_VALUE, NO_CONVERGENCE, NO_START = range(5)
# scales the shortfall target - g into the two rows of the bracket state
_SIDES = np.array([[-1.0], [1.0]])


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


def well_conditioned(rcond: float) -> bool:
    """Whether the scaled condition ``1 / rcond`` is at most ``_MAX_SCALED_COND``."""
    return rcond * _MAX_SCALED_COND >= 1.0


def check_conditioning(rcond: float, what: str, error: type[ExactSIError]) -> None:
    """Raise ``error`` ("<what> is singular or ill-conditioned") if not ``well_conditioned``."""
    if not well_conditioned(rcond):
        raise error(
            f"{what} is singular or ill-conditioned (scaled cond > {_MAX_SCALED_COND:.0e})"
        )


def cho_factor(mat: np.ndarray) -> tuple:
    """``scipy.linalg.cho_factor(mat)``, bit for bit: the upper Cholesky
    factor by ``dpotrf``, the rest of ``mat`` left below it, and False (not
    lower).  Raises ``ValueError`` for a matrix that is not finite and
    ``np.linalg.LinAlgError`` for one that is not positive definite, as
    scipy's does."""
    if not np.isfinite(mat).all():
        raise ValueError("array must not contain infs or NaNs")
    factor, info = dpotrf(mat, lower=0, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    return factor, False


def cho_solve(factor: tuple, b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.cho_solve(factor, b, check_finite=False)`` by
    ``dpotrs``: ``mat^{-1} b`` from the upper factor of ``cho_factor``."""
    return dpotrs(factor[0], b, lower=0)[0]


def try_cho_factor(mat: np.ndarray) -> tuple | None:
    """``cho_factor`` of ``mat``, or None: the one verdict on a failed Cholesky."""
    try:
        return cho_factor(mat)
    except (np.linalg.LinAlgError, ValueError):  # not positive definite, or not finite
        return None


def factor_spd(mat: np.ndarray, what: str, error: type[ExactSIError]) -> tuple:
    """``cho_factor`` of ``mat`` (its upper triangle), checked by the one
    rule for every matrix the package factors: ``error`` ("<what> is
    singular or ill-conditioned") where ``try_cho_factor`` fails or where
    ``scaled_rcond`` puts the 1-norm condition of ``mat`` scaled to unit
    diagonal above ``_MAX_SCALED_COND``.  A Cholesky solve is as accurate as
    that scaled condition allows (van der Sluis 1969), so units cannot decide
    a verdict."""
    factor = try_cho_factor(mat)
    check_conditioning(0.0 if factor is None else scaled_rcond(mat, factor), what, error)
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


def invert_monotone(g, target, seed, scale, args=(), first=None):
    """Solve ``g(x) = target`` elementwise for continuous increasing ``g``.

    ``g(x, *args)`` returns the values of g and of its slope at the
    abscissae ``x``, elementwise.  ``target``, the starting points ``seed``,
    each element's positive length ``scale`` and ``args`` broadcast
    together.  ``first``, where given, is the pair g returned at the seeds,
    which then serves as the first iteration.  All elements run one
    safeguarded Newton loop, one call of ``g`` per iteration on the elements
    still open:

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
      steps shorter than the step before them, the search gives up.

    On an iteration where every element takes a Newton step, the bisection
    and blind-step rules are skipped, and where, besides, none has a bracket
    yet and every slope is usable, so is the bracket test.  An element stops
    when its next step is at most ``_STEP_TOL * scale + 4 eps |x|``; its
    root is the point that step reaches, so the stopping rule scales with
    the problem.  It also stops, without evaluating g there, on a Newton step
    of length s after a Newton step of length t where
    ``_QUADRATIC_SAFETY s^3 / t^2`` is within that tolerance: about ``s^3 /
    t^2`` is left for the next step, which its root then adds.  An element
    where g equals its target has that abscissa as root.

    Returns the roots and each element's status: ``ROOT``; ``NO_BRACKET``
    where the search gave up; ``NAN_VALUE`` where g was NaN; and
    ``NO_CONVERGENCE`` for a search still open after ``_MAX_ITERATIONS``
    calls.  The root of an element that failed is NaN, and no element's
    failure changes another's root.
    """
    arrays = [np.asarray(a, dtype=float) for a in (target, seed, scale)]
    arrays += [np.asarray(a) for a in args]
    if any(a.shape != arrays[0].shape for a in arrays):
        arrays = np.broadcast_arrays(*arrays)
    target, x, scale, *args = (a.ravel() for a in arrays)
    shape, size = arrays[0].shape, target.size
    if np.count_nonzero(np.isfinite(x) & (scale > 0.0) & (scale < math.inf)) < size:
        raise InvalidArgumentError("seeds must be finite and scales positive and finite")
    if first is not None:
        first = [np.ravel(a) for a in first]
    roots = np.empty(size)
    status = np.full(size, NO_CONVERGENCE)
    idx = np.arange(size)
    # per open element: its absolute tolerance; the nearest abscissae seen
    # below and above the target (NaN until seen; as g increases, the first
    # lies left of the second) and the values there, the second negated (-inf
    # until seen); the steps counted without a bracket; the next blind step's
    # length, which doubles at each blind step; the last two step lengths;
    # and the square of the last step where it was a Newton step, else NaN
    atol = _STEP_TOL * scale
    bracket = np.full((2, size), np.nan)
    f_bracket = np.full((2, size), -np.inf)
    prev_sq = np.full(size, np.nan)
    last = before = np.full(size, np.inf)
    outward, reach = np.zeros(size), scale
    calls = range(_MAX_ITERATIONS if size else 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for call in calls:
            value, slope = first if call == 0 and first is not None else g(x, *args)
            short = target - value  # how far g falls short of its target
            newton = short / slope
            tol = atol + _X_RTOL * np.abs(x)
            length = np.abs(newton)
            signed = short * _SIDES  # g - target and target - g, one per bracket row
            near = (signed < 0.0) & (signed >= f_bracket)
            np.copyto(bracket, x, where=near)
            np.copyto(f_bracket, signed, where=near)
            open_ = np.isnan(bracket[0] - bracket[1])  # no bracket yet
            unbracketed = np.count_nonzero(open_)
            # every slope is usable where all are positive and the sum of their
            # products with the steps is finite (a NaN or an inf makes it not)
            usable = slope.min() > 0.0 and math.isfinite(newton @ slope)
            trusted = None
            if not (usable and unbracketed == open_.size):
                neg, pos = bracket
                landing = x + newton
                # inside a bracket, a Newton step must land strictly inside it
                # and at least halve the step before the last, unless it is
                # within the tolerance, which ends the search even on an end
                # of the bracket
                trusted = open_ | (length <= tol) | (
                    (neg < landing) & (landing < pos) & (length <= 0.5 * before)
                )
                if not usable:
                    trusted &= np.isfinite(newton * slope) & (slope > 0.0)
            if trusted is None or np.count_nonzero(trusted) == trusted.size:
                # every element takes a Newton step: no bisection, no blind step
                step, trusted = newton, True
            else:
                bisect = 0.5 * neg + 0.5 * pos - x
                step = np.where(trusted, newton, np.where(open_, np.sign(short) * reach, bisect))
                step[short == 0.0] = 0.0
                reach = np.where(trusted | ~open_, reach, 2.0 * reach)
            quadratic = (call > 0 and _QUADRATIC_SAFETY * length**3 <= tol * prev_sq) & trusted
            newton_sq = np.where(trusted, length * length, np.nan)
            nan = np.isnan(short)
            done = (np.abs(step) <= tol) | quadratic
            stop = done | nan | (open_ & (outward >= BRACKET_EXPANSIONS))
            # a Newton step shorter than the last one converges: it does not
            # count against the steps an element may take without a bracket
            outward = outward + (open_ & ~(trusted & (length < last)))
            last, before = np.abs(step), last
            x = x + step
            if np.count_nonzero(stop):
                gone = stop.nonzero()[0]
                ended = idx[gone]
                # a quadratic stop also takes the step it expects next; the
                # roots of the elements that failed are unset below
                roots[ended] = (x + np.where(quadratic, step**3 / prev_sq, 0.0))[gone]
                code = np.where(done, ROOT, NO_BRACKET)
                code[nan] = NAN_VALUE
                status[ended] = code[gone]
                keep = (~stop).nonzero()[0]
                if not keep.size:
                    break
                idx, target, x, atol, outward, reach, last, before, newton_sq = (
                    a[keep] for a in (idx, target, x, atol, outward, reach, last, before, newton_sq)
                )
                bracket, f_bracket = bracket[:, keep], f_bracket[:, keep]
                args = [a[keep] for a in args]
            prev_sq = newton_sq
    roots[status != ROOT] = np.nan
    return roots.reshape(shape), status.reshape(shape)


def root_error(status: int, target) -> ExactSIError | None:
    """The error of an element that ``invert_monotone`` left with ``status``,
    naming its ``target`` where no bracket straddled it; None for a root."""
    if status == NO_BRACKET:
        return NoRootError(
            f"target {target!r} not straddled after {BRACKET_EXPANSIONS} bracket expansions"
        )
    if status == NAN_VALUE:
        return NumericalDegeneracyError("root finding met a NaN value of g")
    if status == NO_START:
        return NumericalDegeneracyError(
            "root finding cannot start: the seed or the scale is not finite"
        )
    if status == NO_CONVERGENCE:
        return NumericalDegeneracyError(
            f"root finding did not converge in {_MAX_ITERATIONS} steps"
        )
    return None
