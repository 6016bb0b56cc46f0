import math

import numpy as np
import pytest
import scipy.linalg as scipy_linalg
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpstrf
from scipy.special import ndtr

from exactsi import numerics
from exactsi.errors import (
    EmptyMassError,
    InvalidArgumentError,
    NumericalDegeneracyError,
    SingularDesignError,
)
from exactsi.numerics import (
    BRACKET_EXPANSIONS,
    DEFAULT_QUADRATURE,
    NAN_VALUE,
    NO_BRACKET,
    ROOT,
    QuadratureSpec,
    factor_spd,
    independent_columns,
    integrate_weighted_gaussian,
    invert_monotone,
    line_interval,
    log_standard_mass,
    root_error,
)

# Frozen with mpmath at 50 digits (erf series, independent of scipy):
#   Phi(1.959964)          = 0.9750000009035575956975049
#   2*Phi(1) - 1           = 0.6826894921370858971704651
#   log(Phi(-10)-Phi(-11)) = -53.23131022558312486042055
#   Phi^{-1}(0.975)        = 1.959963984540054235524594
PHI_1959964 = 0.9750000009035576
TWO_PHI_1_MINUS_1 = 0.6826894921370859
LOG_TP_10_11 = -53.23131022558312
Z_975 = 1.959963984540054


def log_prob(interval, theta, vartheta):
    """Log probability of ``interval`` under N(theta, vartheta^2), elementwise
    over ``theta``; a float for a scalar one."""
    (a, b), theta = interval, np.asarray(theta, dtype=float)
    out = log_standard_mass((a - theta) / vartheta, (b - theta) / vartheta)
    return float(out) if out.ndim == 0 else out


def prob(interval, theta, vartheta):
    """Probability of ``interval`` under N(theta, vartheta^2), from its log."""
    return math.exp(log_prob(interval, theta, vartheta))


def std_normal_cdf(x):
    """The standard normal CDF as the probability of a half-line."""
    return prob((-math.inf, x), 0.0, 1.0)


class TestIndependentColumns:
    def test_tiny_column_stays_independent(self):
        """A column in units 1e9 times smaller is still independent: raw
        pivoted Cholesky drops it (its pivot is below n eps times the largest
        one), the Gram scaled to unit diagonal keeps it."""
        X = np.random.default_rng(0).standard_normal((50, 5))
        X[:, 2] *= 1e-9
        gram = X.T @ X
        assert dpstrf(gram)[2] == 4
        assert independent_columns(gram).tolist() == [0, 1, 2, 3, 4]

    def test_duplicate_and_zero_columns_are_dependent(self):
        X = np.random.default_rng(1).standard_normal((50, 5))
        X[:, 4] = X[:, 1]
        X[:, 3] = 0.0
        kept = independent_columns(X.T @ X)
        assert kept.size == 3 and 3 not in kept and (1 in kept) != (4 in kept)
        assert np.all(np.diff(kept) > 0)
        with pytest.raises(SingularDesignError, match="toy Gram is singular"):
            factor_spd(X.T @ X, "toy Gram", SingularDesignError)

    def test_wide_design_keeps_n_columns(self):
        X = np.random.default_rng(2).standard_normal((5, 8))
        assert independent_columns(X.T @ X).size == 5
        assert independent_columns(np.zeros((3, 3))).size == 0

    def test_cholesky_matches_scipy_and_its_errors(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 7))
        gram, rhs = X.T @ X, rng.standard_normal((7, 3))
        got, want = numerics.cho_factor(gram), scipy_linalg.cho_factor(gram)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        assert np.array_equal(numerics.cho_solve(got, rhs), scipy_linalg.cho_solve(want, rhs))
        assert np.array_equal(
            numerics.cho_solve(got, rhs[:, 0]), scipy_linalg.cho_solve(want, rhs[:, 0])
        )
        for bad, error in ((np.diag([1.0, -1.0]), np.linalg.LinAlgError),
                           (np.diag([1.0, math.nan]), ValueError),
                           (np.diag([1.0, math.inf]), ValueError)):
            with pytest.raises(error):
                scipy_linalg.cho_factor(bad)
            with pytest.raises(error):
                numerics.cho_factor(bad)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_matrix_that_is_not_finite_fails_its_callers_check(self, bad):
        """``factor_spd`` and the dataset's factors share one verdict on a
        failed Cholesky (``try_cho_factor``): a matrix that is not finite
        raises the caller's error, where numpy's ``ValueError`` escaped."""
        mat = np.diag([1.0, bad])
        assert numerics.try_cho_factor(mat) is None
        for error in (SingularDesignError, NumericalDegeneracyError):
            with pytest.raises(error, match="^toy Gram is singular or ill-conditioned"):
                factor_spd(mat, "toy Gram", error)

    def test_full_rank_factor_is_cho_factor(self):
        X = np.random.default_rng(3).standard_normal((40, 6))
        gram = X.T @ X
        got, want = factor_spd(gram, "toy Gram", SingularDesignError), cho_factor(gram)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]


class TestQuadratureSpec:
    def test_invariants(self):
        with pytest.raises(InvalidArgumentError):
            QuadratureSpec(half_width_sigmas=4.0)
        with pytest.raises(InvalidArgumentError):
            QuadratureSpec(n_points=32)
        assert DEFAULT_QUADRATURE.n_points == 4097
        assert DEFAULT_QUADRATURE.half_width_sigmas == 8.5


class TestGaussianCdf:
    def test_symmetry_point(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_limits(self):
        # a half-line 1e100 sd away from the mean carries mass 0 or 1 exactly
        assert prob((-math.inf, 0.0), 1e100, 1.0) == 0.0
        assert prob((-math.inf, 0.0), -1e100, 1.0) == 1.0

    def test_erf_series_oracle(self):
        assert abs(std_normal_cdf(1.959964) - PHI_1959964) < 1e-12
        assert abs(std_normal_cdf(1.959964) - 0.975) < 1e-8

    def test_complement_identity(self):
        for x in np.linspace(-8, 8, 401):
            assert abs(std_normal_cdf(x) + std_normal_cdf(-x) - 1.0) < 1e-14


class TestTruncationProb:
    def test_full_support(self):
        assert prob((-math.inf, math.inf), theta=3.7, vartheta=2.0) == 1.0

    def test_half_line_symmetry(self):
        assert abs(prob((0, math.inf), 0.0, 1.0) - 0.5) < 1e-15

    def test_central_interval_cdf_oracle(self):
        tp = prob((-1, 1), 0.0, 1.0)
        assert abs(tp - TWO_PHI_1_MINUS_1) < 1e-14

    def test_matches_direct_difference_centrally(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b = np.sort(rng.normal(size=2) * 3)
            if b - a < 1e-12:
                continue
            theta = rng.normal() * 2
            vt = rng.uniform(0.2, 3.0)
            direct = ndtr((b - theta) / vt) - ndtr((a - theta) / vt)
            tp = prob((a, b), theta, vt)
            # exp of the log probability may round to 1 on a finite interval
            assert 0.0 < tp <= 1.0
            # the plain difference itself cancels at ~1e-16 absolute
            assert abs(tp - direct) <= 1e-13 * direct + 5e-16

    def test_far_tail_does_not_cancel(self):
        # true value ~ 7e-306: a plain CDF difference returns exactly 0 here
        tp = prob((37.0, 38.0), 0.0, 1.0)
        assert tp > 0.0
        assert tp < 1e-290

    def test_degenerate_interval_has_no_mass(self):
        assert prob((1.0, 1.0), 0.0, 1.0) == 0.0


class TestLogTruncationProb:
    def test_full_line_is_log_one(self):
        assert log_prob((-math.inf, math.inf), 0.0, 1.0) == 0.0

    def test_half_line(self):
        lt = log_prob((0, math.inf), 0.0, 1.0)
        assert abs(lt - math.log(0.5)) < 1e-14

    def test_mills_ratio_oracle(self):
        lt = log_prob((10.0, 11.0), 0.0, 1.0)
        assert abs(lt - LOG_TP_10_11) < 1e-10

    def test_finite_deep_in_tail(self):
        # 37 sigma from the interval: still finite, exp underflows gracefully
        lt = log_prob((37.0, 38.0), 0.0, 1.0)
        assert math.isfinite(lt)
        lt = log_prob((-38.0, -37.0), 0.0, 1.0)
        assert math.isfinite(lt)

    def test_exp_agrees_with_truncation_prob(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b = np.sort(rng.normal(size=2) * 4)
            if b - a < 1e-9:
                continue
            theta = rng.normal() * 3
            vt = rng.uniform(0.1, 4.0)
            za, zb = (a - theta) / vt, (b - theta) / vt
            direct = float(ndtr(zb) - ndtr(za))
            lt = log_prob((a, b), theta, vt)
            assert lt <= 0.0
            # the plain difference itself cancels at ~1e-16 absolute
            assert abs(math.exp(lt) - direct) <= 1e-12 * direct + 5e-16

    def test_vectorized_over_theta(self):
        thetas = np.linspace(-5, 5, 17)
        out = log_prob((-1, 2), thetas, 1.3)
        assert out.shape == thetas.shape
        for th, val in zip(thetas, out):
            assert abs(val - log_prob((-1, 2), float(th), 1.3)) < 1e-15


class TestIntegrateWeightedGaussian:
    def test_normalization(self):
        val = integrate_weighted_gaussian(0.0, 1.0, lambda x: np.zeros_like(x))
        assert abs(val) < 1e-10

    def test_half_mass(self):
        val = integrate_weighted_gaussian(
            0.0, 1.0, lambda x: np.zeros_like(x), upper_limit=0.0
        )
        assert abs(val - math.log(0.5)) < 1e-10

    def test_gaussian_smoothing_identity(self):
        # E[Phi(X - c)] = Phi((mu - c)/sqrt(1 + s^2)) for X ~ N(mu, s^2).
        # Frozen mpmath value of log Phi(1/sqrt(2)) = -0.2741080327843857.
        val = integrate_weighted_gaussian(
            2.0, 1.0, lambda x: np.log(ndtr(x - 1.0))
        )
        assert abs(val - (-0.2741080327843857)) < 1e-10

    def test_gaussian_smoothing_identity_mc_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(2.0, 1.0, size=1_000_000)
        mc = float(np.mean(ndtr(x - 1.0)))
        se = float(np.std(ndtr(x - 1.0)) / math.sqrt(x.size))
        val = math.exp(
            integrate_weighted_gaussian(2.0, 1.0, lambda t: np.log(ndtr(t - 1.0)))
        )
        assert abs(val - mc) < 4 * se

    def test_normalization_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            mean = rng.normal() * 10
            sd = rng.uniform(0.05, 8.0)
            val = integrate_weighted_gaussian(mean, sd, lambda x: np.zeros_like(x))
            assert abs(val) < 1e-10

    def test_doubling_points_stable(self):
        fine = QuadratureSpec(n_points=2 * DEFAULT_QUADRATURE.n_points - 1)
        for upper in (math.inf, 0.7, -1.3):
            a = integrate_weighted_gaussian(
                0.3, 1.7, lambda x: np.log(ndtr(x)), upper_limit=upper
            )
            b = integrate_weighted_gaussian(
                0.3, 1.7, lambda x: np.log(ndtr(x)), spec=fine, upper_limit=upper
            )
            assert abs(a - b) < 1e-8

    def test_empty_mass_error(self):
        with pytest.raises(EmptyMassError):
            integrate_weighted_gaussian(0.0, 1.0, lambda x: np.full_like(x, -np.inf))

    def test_upper_limit_below_grid(self):
        val = integrate_weighted_gaussian(
            0.0, 1.0, lambda x: np.zeros_like(x), upper_limit=-20.0
        )
        assert val == -math.inf


def lines(coefs, slack, across=1.0):
    """``line_interval`` on the coefficients ``coefs`` of the rows ``[coefs_i,
    across_i]`` along the unit directions of the first columns, each with
    the zero threshold ``1e-12 ||row||`` that such a caller sets: ``across``
    sets each row's norm, so its threshold."""
    coefs = np.asarray(coefs, dtype=float).reshape(len(slack), -1)
    norms = np.hypot(np.linalg.norm(coefs, axis=1), across)
    return line_interval(coefs, 1e-12 * norms[:, None], np.reshape(slack, coefs.shape))


def slice_line(coefs, slack, across=1.0):
    """One line's ``(lower, upper, violated)`` as Python values."""
    lower, upper, violated = lines(coefs, slack, across)
    return float(lower[0]), float(upper[0]), bool(violated[0])


class TestLineInterval:
    def test_zero_row_that_holds_is_ignored(self):
        coefs = np.array([0.0, -1.0, 2.0, 1e-15])
        slack = np.array([1.0, 3.0, 4.0, 0.5])
        assert slice_line(coefs, slack) == (-3.0, 2.0, False)

    def test_violated_zero_row_is_flagged(self):
        coefs = np.array([-(2.0**-50), 1.0])
        slack = np.array([-0.5, 1.0])
        assert slice_line(coefs, slack)[2]
        # the tolerance is per row, relative to its norm: a row that is
        # orthogonal to the line only up to 2^-50 / 1e-8 bounds it
        assert slice_line(coefs, slack, np.array([1e-8, 1.0])) == (2.0**49, 1.0, False)

    def test_tolerance_is_relative_to_the_direction(self):
        # a longer direction scales the coefficients and their thresholds
        # alike: the verdicts hold, and the bounds shrink by its length
        coefs = np.array([[1e-15], [1.0]])
        zero = 1e-12 * np.array([[1.0], [math.sqrt(2.0)]])
        slack = np.array([[-0.5], [1.0]])
        for size in (1e-9, 1.0, 1e9):
            lower, upper, violated = line_interval(size * coefs, size * zero, slack)
            assert bool(violated[0]) and upper[0] == 1.0 / size

    def test_unbounded_side_is_infinite(self):
        assert slice_line(np.array([2.0]), np.array([4.0])) == (-math.inf, 2.0, False)
        assert slice_line(np.array([-2.0]), np.array([4.0])) == (-2.0, math.inf, False)
        empty = np.zeros(0)
        lower, upper, violated = line_interval(empty[:, None], 0.0, empty[:, None])
        assert (lower[0], upper[0], violated[0]) == (-math.inf, math.inf, False)

    def test_bounds_are_tightest_rows(self):
        coefs = np.array([-1.0, -2.0, 1.0, 4.0])
        slack = np.array([1.0, 1.0, 3.0, 4.0])
        assert slice_line(coefs, slack) == (-0.5, 1.0, False)

    def test_columns_are_sliced_alone(self):
        coefs = np.array([
            [0.0, -1.0, 2.0, 0.0],
            [1.0, 1.0, 1.0, 1e-15],
            [-1.0, 0.5, 0.0, 0.0],
        ])
        slack = np.array([
            [-1.0, 3.0, 4.0, 0.5],  # column 0: a violated orthogonal row
            [2.0, -4.0, 6.0, 1.0],  # column 1: lower -3 above upper -4, empty
            [1.0, 1.0, 1.0, 2.0],   # column 2: bounded above only
        ])                          # column 3: every row orthogonal, the full line
        lower, upper, violated = lines(coefs, slack)
        assert violated.tolist() == [True, False, False, False]
        assert (lower[1], upper[1]) == (-3.0, -4.0)
        assert (lower[2], upper[2]) == (-math.inf, 2.0)
        assert (lower[3], upper[3]) == (-math.inf, math.inf)
        for j in range(4):
            alone = slice_line(coefs[:, j], slack[:, j])
            assert (float(lower[j]), float(upper[j]), bool(violated[j])) == alone


def affine(t, m, c):
    """``m t + c`` and its slope."""
    return m * t + c, np.broadcast_to(m, np.shape(t))


class TestInvertMonotone:
    def test_identity(self):
        x, status = invert_monotone(lambda t: (t, np.ones_like(t)), 0.3, 0.0, 1.0)
        assert abs(x - 0.3) < 1e-10
        assert status == ROOT

    def test_gaussian_quantile_oracle(self):
        def cdf(t):
            density = np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
            return np.exp(log_prob((-math.inf, t), 0.0, 1.0)), density

        x, _ = invert_monotone(cdf, 0.975, 0.5, 1.0)
        assert abs(x - Z_975) < 1e-8

    def test_cube_root_with_expansion(self):
        # the slope is 0 at the seed, so the search steps out blind first
        x, _ = invert_monotone(lambda t: (t**3, 3.0 * t**2), 8.0, 0.0, 0.5)
        assert abs(x - 2.0) < 1e-8

    def test_random_affine_maps(self):
        # a decreasing map g is solved as the increasing sign * g = sign * target
        rng = np.random.default_rng(13)
        sign = rng.choice([-1, 1], size=100)
        slope = sign * rng.uniform(0.01, 50, size=100)
        icept = rng.normal(size=100) * 20
        target = rng.normal(size=100) * 20
        want = (target - icept) / slope
        got, status = invert_monotone(
            affine, sign * target, 0.0, 0.5, args=(sign * slope, sign * icept)
        )
        assert got.shape == status.shape == (100,)
        assert (status == ROOT).all()
        ok = (np.abs(slope * got + icept - target) <= 1e-8) | (np.abs(got - want) <= 1e-10)
        assert ok.all()

    def test_no_root(self):
        # tanh never reaches 2: that element alone has no root
        def g(t):
            with np.errstate(over="ignore"):  # the slope underflows to 0 far out
                return np.tanh(t), 1.0 / np.cosh(t) ** 2

        x, status = invert_monotone(g, np.array([2.0, 0.5]), 0.0, 1.0)
        assert math.isnan(x[0])
        assert abs(x[1] - math.atanh(0.5)) < 1e-10
        assert status.tolist() == [NO_BRACKET, ROOT]
        x, status = invert_monotone(g, 2.0, 0.0, 1.0)
        assert math.isnan(x) and status == NO_BRACKET

    def test_slopes_against_the_values_are_not_followed(self):
        # g(t) = t, but every slope after the seed's has the wrong sign: with
        # its values below the target, the search steps out blind to the
        # right, brackets the root and bisects
        def g(t):
            return t, np.where(t == 0.0, 10.0, -1.0)

        assert abs(invert_monotone(g, 10.0, 0.0, 1.0)[0] - 10.0) <= 1e-9

    def test_a_wrong_sign_slope_is_never_followed(self):
        # g(t) = t with slope -1 everywhere: a Newton step from the seed would
        # go to -10, away from the root at 10
        seen = []

        def g(t):
            seen.extend(t)
            return t, -np.ones_like(t)

        assert abs(invert_monotone(g, 10.0, 0.0, 1.0)[0] - 10.0) <= 1e-9
        assert min(seen) >= 0.0
        assert len(seen) == 8

    def test_a_flat_start_is_left_on_one_side_only(self):
        # g is 0, with slope 0, up to 3: below the target there, so every
        # blind step goes right
        seen = []

        def g(t):
            seen.extend(t)
            return np.maximum(t - 3.0, 0.0), (t > 3.0).astype(float)

        assert abs(invert_monotone(g, 0.5, 0.0, 1.0)[0] - 3.5) <= 1e-9
        assert min(seen) >= 0.0
        assert len(seen) == 6

    def test_slow_one_sided_newton_steps_are_not_expansions(self):
        # a slope four times too steep: every step covers a quarter of the
        # distance left, from one side, far more than BRACKET_EXPANSIONS times
        calls = []

        def g(t):
            calls.append(t.size)
            return t, np.full_like(t, 4.0)

        assert abs(invert_monotone(g, 10.0, 0.0, 1.0)[0] - 10.0) <= 1e-8
        assert len(calls) > BRACKET_EXPANSIONS

    def test_flat_function_gives_up_after_the_expansions(self):
        calls = []

        def g(t):
            calls.append(t.size)
            return np.zeros_like(t), np.zeros_like(t)

        x, status = invert_monotone(g, 1.0, 0.0, 1.0)
        assert math.isnan(x) and status == NO_BRACKET
        assert len(calls) == BRACKET_EXPANSIONS + 1

    def test_nan_inside_a_straddling_bracket_fails(self):
        # the slope is half the true one, so the first Newton step overshoots
        # to 1.6 and the second leaves the bracket [-1, 1.6]: its midpoint
        # 0.3 lies in the NaN hole.  Only that element fails; the second,
        # shifted by 10, never meets the hole and keeps the root it has alone
        def g(x, shift):
            hole = (np.abs(x - 0.3) < 0.2) & (shift == 0.0)
            return np.where(hole, np.nan, x - shift), np.full_like(x, 0.5)

        roots, status = invert_monotone(g, 0.3, -1.0, 1.0, args=(np.array([0.0, 10.0]),))
        assert math.isnan(roots[0]) and status.tolist() == [NAN_VALUE, ROOT]
        alone, alone_status = invert_monotone(g, 0.3, -1.0, 1.0, args=(10.0,))
        assert roots[1] == alone and alone_status == ROOT
        error = root_error(status[0], 0.3)
        assert isinstance(error, NumericalDegeneracyError)
        assert str(error) == "root finding met a NaN value of g"
        assert root_error(ROOT, 0.3) is None
        assert str(root_error(NO_BRACKET, 0.95)) == (
            f"target 0.95 not straddled after {BRACKET_EXPANSIONS} bracket expansions"
        )

    def test_quadratic_contraction_stops_without_a_confirming_call(self):
        # t + t^3 = 2 from 0.5 at scale 100 (tolerance 1e-8): the Newton
        # steps shrink 0.0017 -> 2.2e-6, whose cube over the square of the
        # one before is 3.7e-12, and 1000 times that is within the tolerance,
        # so the search ends on that step without evaluating where it lands.
        # No call comes within the tolerance of the root, which, with the
        # step expected next added, holds to 1e-13, where that landing point
        # is 3.7e-12 off
        seen = []

        def g(t):
            seen.extend(t.tolist())
            return t + t**3, 1.0 + 3.0 * t * t

        root, status = invert_monotone(g, 2.0, 0.5, 100.0)
        assert status == ROOT and abs(root - 1.0) <= 1e-13
        assert min(abs(x - 1.0) for x in seen) > 1e-6
        assert len(seen) == 5

    def test_given_first_values_replace_the_first_call(self):
        calls = []

        def g(t):
            calls.append(t.tolist())
            return t + t**3, 1.0 + 3.0 * t * t

        want, _ = invert_monotone(g, 2.0, 0.5, 1.0)
        first = g(np.array([0.5]))
        calls.clear()
        root, status = invert_monotone(g, 2.0, 0.5, 1.0, first=first)
        assert status == ROOT and root == want
        assert [0.5] not in calls

    def test_seeds_and_scales_are_checked(self):
        for seed, scale in ((math.inf, 1.0), (0.0, 0.0), (0.0, math.nan)):
            with pytest.raises(InvalidArgumentError):
                invert_monotone(affine, 0.0, seed, scale, args=(1.0, 0.0))

    def test_stopping_rule_scales_with_the_problem(self):
        # tanh(t / s) = 0.3 in units s: the same steps and the same relative
        # root at every scale
        def solve(s):
            calls = []

            def g(t):
                calls.append(t.size)
                return np.tanh(t / s), 1.0 / (s * np.cosh(t / s) ** 2)

            return invert_monotone(g, 0.3, 2.0 * s, s)[0] / s, len(calls)

        base, calls = solve(1.0)
        assert abs(base - math.atanh(0.3)) < 1e-15
        for s in (1e-9, 1e-6, 1e3, 1e9):
            x, n = solve(s)
            assert n == calls
            assert abs(x - base) <= 1e-15
