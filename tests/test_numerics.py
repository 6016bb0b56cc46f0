import math

import numpy as np
import pytest
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpstrf
from scipy.special import ndtr

from exactsi.errors import (
    EmptyMassError,
    InvalidArgumentError,
    SingularDesignError,
)
from exactsi.numerics import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    factor_gram,
    independent_columns,
    integrate_weighted_gaussian,
    invert_monotone,
    line_interval,
    log_truncation_prob,
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


def prob(interval, theta, vartheta):
    """Probability of ``interval`` under N(theta, vartheta^2), from its log."""
    return math.exp(log_truncation_prob(interval, theta, vartheta))


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
        with pytest.raises(SingularDesignError, match="toy Gram is rank deficient"):
            factor_gram(X.T @ X, "toy Gram")

    def test_wide_design_keeps_n_columns(self):
        X = np.random.default_rng(2).standard_normal((5, 8))
        assert independent_columns(X.T @ X).size == 5
        assert independent_columns(np.zeros((3, 3))).size == 0

    def test_full_rank_factor_is_cho_factor(self):
        X = np.random.default_rng(3).standard_normal((40, 6))
        gram = X.T @ X
        got, want = factor_gram(gram, "toy Gram"), cho_factor(gram)
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

    def test_nan_rejected(self):
        with pytest.raises(InvalidArgumentError):
            log_truncation_prob((-math.inf, 0.0), math.nan, 1.0)

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

    def test_bad_vartheta(self):
        with pytest.raises(InvalidArgumentError):
            prob((0, 1), 0.0, 0.0)


class TestLogTruncationProb:
    def test_full_line_is_log_one(self):
        assert log_truncation_prob((-math.inf, math.inf), 0.0, 1.0) == 0.0

    def test_half_line(self):
        lt = log_truncation_prob((0, math.inf), 0.0, 1.0)
        assert abs(lt - math.log(0.5)) < 1e-14

    def test_mills_ratio_oracle(self):
        lt = log_truncation_prob((10.0, 11.0), 0.0, 1.0)
        assert abs(lt - LOG_TP_10_11) < 1e-10

    def test_finite_deep_in_tail(self):
        # 37 sigma from the interval: still finite, exp underflows gracefully
        lt = log_truncation_prob((37.0, 38.0), 0.0, 1.0)
        assert math.isfinite(lt)
        lt = log_truncation_prob((-38.0, -37.0), 0.0, 1.0)
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
            lt = log_truncation_prob((a, b), theta, vt)
            assert lt <= 0.0
            # the plain difference itself cancels at ~1e-16 absolute
            assert abs(math.exp(lt) - direct) <= 1e-12 * direct + 5e-16

    def test_vectorized_over_theta(self):
        thetas = np.linspace(-5, 5, 17)
        out = log_truncation_prob((-1, 2), thetas, 1.3)
        assert out.shape == thetas.shape
        for th, val in zip(thetas, out):
            assert abs(val - log_truncation_prob((-1, 2), float(th), 1.3)) < 1e-15


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


def slice_line(coefs, slack, scale):
    """``line_interval`` on one line: ``(lower, upper, violated)`` as Python values."""
    lower, upper, violated = line_interval(coefs[:, None], slack[:, None], np.c_[scale])
    return float(lower[0]), float(upper[0]), bool(violated[0])


class TestLineInterval:
    def test_zero_row_that_holds_is_ignored(self):
        coefs = np.array([0.0, -1.0, 2.0, 1e-15])
        slack = np.array([1.0, 3.0, 4.0, 0.5])
        assert slice_line(coefs, slack, 1e-12) == (-3.0, 2.0, False)

    def test_violated_zero_row_is_flagged(self):
        coefs = np.array([-(2.0**-50), 1.0])
        slack = np.array([-0.5, 1.0])
        assert slice_line(coefs, slack, 1e-12)[2]
        # the tolerance is per row: under a smaller scale the row bounds t
        assert slice_line(coefs, slack, np.array([1e-20, 1e-12])) == (2.0**49, 1.0, False)

    def test_unbounded_side_is_infinite(self):
        assert slice_line(np.array([2.0]), np.array([4.0]), 1e-12) == (-math.inf, 2.0, False)
        assert slice_line(np.array([-2.0]), np.array([4.0]), 1e-12) == (-2.0, math.inf, False)
        empty = np.zeros(0)
        assert slice_line(empty, empty, empty) == (-math.inf, math.inf, False)

    def test_bounds_are_tightest_rows(self):
        coefs = np.array([-1.0, -2.0, 1.0, 4.0])
        slack = np.array([1.0, 1.0, 3.0, 4.0])
        assert slice_line(coefs, slack, 1e-12) == (-0.5, 1.0, False)

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
        scale = np.full(coefs.shape, 1e-12)
        lower, upper, violated = line_interval(coefs, slack, scale)
        assert violated.tolist() == [True, False, False, False]
        assert (lower[1], upper[1]) == (-3.0, -4.0)
        assert (lower[2], upper[2]) == (-math.inf, 2.0)
        assert (lower[3], upper[3]) == (-math.inf, math.inf)
        for j in range(4):
            alone = slice_line(coefs[:, j], slack[:, j], scale[:, j])
            assert (float(lower[j]), float(upper[j]), bool(violated[j])) == alone


class TestInvertMonotone:
    def test_identity(self):
        x = invert_monotone(lambda t: t, 0.3, -1.0, 1.0)
        assert abs(x - 0.3) < 1e-10

    def test_gaussian_quantile_oracle(self):
        def cdf(t):
            return np.exp(log_truncation_prob((-math.inf, t), 0.0, 1.0))

        x = invert_monotone(cdf, 0.975, 0.0, 1.0)
        assert abs(x - Z_975) < 1e-8

    def test_cube_root_with_expansion(self):
        x = invert_monotone(lambda t: t**3, 8.0, 0.0, 1.0)
        assert abs(x - 2.0) < 1e-8

    def test_decreasing_function(self):
        x = invert_monotone(lambda t: -2.0 * t + 1.0, 0.0, -10.0, -9.0)
        assert abs(x - 0.5) < 1e-9

    def test_random_affine_maps(self):
        rng = np.random.default_rng(13)
        slope = rng.choice([-1, 1], size=100) * rng.uniform(0.01, 50, size=100)
        icept = rng.normal(size=100) * 20
        target = rng.normal(size=100) * 20
        want = (target - icept) / slope
        got = invert_monotone(
            lambda t, m, c: m * t + c, target, -0.5, 0.5, args=(slope, icept)
        )
        assert got.shape == (100,)
        ok = (np.abs(slope * got + icept - target) <= 1e-8) | (np.abs(got - want) <= 1e-10)
        assert ok.all()

    def test_tie_on_the_seed_bracket_expands_both_sides(self):
        # decreasing, flat at 0 on the seed bracket, with its root to the left;
        # the increasing twin has its root to the right
        def g(t, sign):
            return np.clip(-sign * (t + sign * 3.0), 0.0, None)

        x = invert_monotone(g, 0.5, -1.0, 1.0, args=(np.array([1.0, -1.0]),))
        assert np.abs(x - [-3.5, 3.5]).max() < 1e-9

    def test_no_root(self):
        # tanh never reaches 2: that element alone has no root
        x = invert_monotone(np.tanh, np.array([2.0, 0.5]), -1.0, 1.0)
        assert math.isnan(x[0])
        assert abs(x[1] - math.atanh(0.5)) < 1e-10
        assert math.isnan(invert_monotone(np.tanh, 2.0, -1.0, 1.0))
