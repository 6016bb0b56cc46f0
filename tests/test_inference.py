import math
from dataclasses import fields, replace

import numpy as np
import pytest
from conftest import (
    carving_fit,
    carving_pivot_params,
    explicit_contrasts,
    explicit_polyhedral_bounds,
    oracle_pivot,
    reference_invert_pivot,
    reference_polyhedral_interval,
    stack,
    take,
    toy_fit,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor
from scipy.special import log_ndtr, ndtr, ndtri

from exactsi.conditioning import TargetSpec, build_geometry, build_target
from exactsi import inference, study
from exactsi.errors import (
    ExactSIError,
    GeometryInconsistencyError,
    InvalidArgumentError,
    NoRootError,
    NumericalDegeneracyError,
    SingularDesignError,
)
from exactsi.inference import (
    IntervalEstimate,
    PivotParams,
    PolyhedralBounds,
    exact_pivot,
    invert_pivot,
    pivot_params,
    plug_in_sigma2,
    polyhedral_bounds,
    polyhedral_interval,
    polyhedral_pivot,
    split_inference,
    uv_inference,
)
from exactsi.selection import (
    Dataset,
    lasso_event_rep,
    solve_randomized_lasso,
)
from exactsi.study import (
    SimConfig,
    _seed_for,
    calibrate,
    fit_method,
    generate_design,
    generate_response,
    support_indices,
)


def exact_targets(data, out, rep, tau2, sigma=1.0):
    """Every target's exact-pivot constants, built together as a fit builds them."""
    target = build_target(data, out.selected, "selected")
    geom = build_geometry(data, rep, tau2, target)
    params, errors = pivot_params(geom, target, sigma=sigma)
    assert errors == [None] * out.selected.size
    return params


def toy_params():
    """The toy instance's one target's constants, as floats."""
    return take(exact_targets(*toy_fit()), 0)


class TestPivotParams:
    def test_toy_constants(self):
        params = toy_params()
        assert params.vartheta2 == pytest.approx(1.0, abs=1e-10)
        assert params.sigma_j2 == pytest.approx(1.0, abs=1e-10)
        assert params.lambda_j == pytest.approx(1.0, abs=1e-10)
        assert params.zeta_j == pytest.approx(0.0, abs=1e-10)
        assert params.theta_intercept == pytest.approx(1.0, abs=1e-10)
        assert params.beta_hat_j == pytest.approx(2.0)

    def test_array_sigma_must_be_positive_everywhere(self):
        fields = dict(vartheta2=1.0, lambda_j=1.0, zeta_j=0.0, theta_intercept=0.0,
                      lower=-math.inf, upper=math.inf, beta_hat_j=0.0)
        PivotParams(sigma_j2=np.array([1.0, 2.0]), **fields)
        with pytest.raises(NumericalDegeneracyError, match="sigma_j2 must be positive"):
            PivotParams(sigma_j2=np.array([1.0, 0.0, 2.0]), **fields)

    def test_generic_matches_carving_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            data, out, rep, lam, tau2 = carving_fit(rng)
            every = exact_targets(data, out, rep, tau2)
            for j in range(out.selected.size):
                generic = take(every, j)
                closed = carving_pivot_params(data, out, j, 1.0, tau2, lam)
                assert generic.vartheta2 == pytest.approx(closed.vartheta2, rel=1e-8)
                assert generic.sigma_j2 == pytest.approx(closed.sigma_j2, rel=1e-8)
                assert generic.lambda_j == pytest.approx(1.0, rel=1e-8)
                assert abs(generic.zeta_j) < 1e-8 * max(1, abs(generic.beta_hat_j))
                assert generic.theta_intercept == pytest.approx(
                    closed.theta_intercept, rel=1e-8, abs=1e-10
                )
                assert generic.lower == pytest.approx(
                    closed.lower, rel=1e-8, abs=1e-8
                )
                assert generic.upper == pytest.approx(
                    closed.upper, rel=1e-8, abs=1e-8
                )

    def test_isotropic_orthonormal_single_feature(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(12)
        x /= np.linalg.norm(x)
        X = x[:, None]
        y = 3.0 * x + 0.2 * rng.standard_normal(12)
        data = Dataset(y=y, X=X, sigma=1.0)
        tau2, eps = 0.8, 0.3
        w = np.array([0.25])
        out = solve_randomized_lasso(data, lam=0.5, epsilon=eps, w=w)
        rep = lasso_event_rep(data, out, lam=0.5, epsilon=eps)
        # carving covariance tau2 * x'x on a unit-norm x: the scalar tau2
        params = take(exact_targets(data, out, rep, tau2), 0)
        # hand algebra at p=1 with ||x|| = 1: Theta = tau2/(1+eps)^2,
        # r = -(1+eps)/tau2, so the weight variance is exactly 1/tau2
        assert params.vartheta2 == pytest.approx(1.0 / tau2, rel=1e-10)


class TestExactPivot:
    def test_full_line_reduces_to_gaussian_cdf(self):
        params = toy_params()
        forced = PivotParams(
            vartheta2=params.vartheta2,
            sigma_j2=params.sigma_j2,
            lambda_j=params.lambda_j,
            zeta_j=params.zeta_j,
            theta_intercept=params.theta_intercept,
            lower=-math.inf,
            upper=math.inf,
            beta_hat_j=params.beta_hat_j,
        )
        assert exact_pivot(forced, 2.0) == pytest.approx(0.5, abs=1e-9)
        assert exact_pivot(forced, 1.0) == pytest.approx(float(ndtr(1.0)), abs=1e-9)

    def test_toy_rejection_oracle(self):
        # at beta0 = 1 the ratio is P(X<=2, X-Z>=1)/P(X-Z>=1) for independent
        # X ~ N(1,1), Z ~ N(0,1), which collapses to Phi(1)^2
        params = toy_params()
        got = exact_pivot(params, 1.0)
        assert got == pytest.approx(float(ndtr(1.0)) ** 2, abs=1e-9)
        rng = np.random.default_rng(3)
        x = rng.normal(1.0, 1.0, size=1_000_000)
        z = rng.normal(0.0, 1.0, size=1_000_000)
        keep = x - z >= 1.0
        mc = np.mean((x <= 2.0) & keep) / np.mean(keep)
        se = math.sqrt(got * (1 - got) / keep.sum()) / np.mean(keep) ** 0
        assert abs(got - mc) < 4 * max(se, 1e-4)

    def test_strictly_decreasing_in_beta0(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            data, out, rep, _, tau2 = carving_fit(rng)
            j = int(rng.integers(out.selected.size))
            params = take(exact_targets(data, out, rep, tau2), j)
            sd = math.sqrt(params.sigma_j2)
            grid = params.beta_hat_j + sd * np.linspace(-8, 8, 161)
            vals = exact_pivot(params, grid)
            diffs = np.diff(vals)
            # nonincreasing everywhere; strictly decreasing away from the
            # diffs that saturate at 0/1 beyond double precision
            assert (diffs <= 0).all()
            interior = (vals[:-1] > 1e-9) & (vals[1:] < 1 - 1e-9)
            assert (diffs[interior] < -1e-12).all()

    def test_agrees_with_log_space_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            data, out, rep, _, tau2 = carving_fit(rng)
            params = take(exact_targets(data, out, rep, tau2), 0)
            sd = math.sqrt(params.sigma_j2)
            for shift in (-8.0, -2.0, -0.5, 0.0, 0.5, 2.0, 8.0):
                b0 = params.beta_hat_j + shift * sd
                assert abs(exact_pivot(params, b0) - oracle_pivot(params, b0)) < 1e-9

    def test_lower_endpoint_in_tilted_tail(self):
        # replicate 3 of SimConfig(seed=12345), coordinate 56: the lower
        # endpoint lies 8.6 sd below the estimate, where the truncation weight
        # has pushed the conditional law outside +-8.5 sd of the untilted one
        config = SimConfig(seed=12345)
        X = generate_design(config.n, config.p, config.corr, _seed_for(config.seed, 3, 0))
        y, _ = generate_response(
            X,
            support_indices(config.p, config.sparsity),
            config.signal_fraction,
            config.sigma2,
            _seed_for(config.seed, 3, 1),
        )
        data = Dataset(y=y, X=X)
        cal = calibrate(data, ("exact",), rho=config.rho, epsilon=0.0)
        fit = fit_method(
            data, cal, "exact", config.model, config.alpha, _seed_for(config.seed, 3, 2)
        )
        j = int(np.flatnonzero(fit.selected == 56)[0])
        constants, errors = fit._constants
        assert errors == [None] * fit.selected.size
        params = take(constants, j)
        est = fit.interval(j)
        assert oracle_pivot(params, est.lower) == pytest.approx(0.95, abs=1e-9)
        assert oracle_pivot(params, est.upper) == pytest.approx(0.05, abs=1e-9)
        assert est.lower == pytest.approx(-0.99109, abs=1e-5)


@st.composite
def model_pivot_params(draw):
    """PivotParams (the estimate and the conditioned combination are
    negatively correlated) with a two-sided, one-sided or full-line truncation
    interval."""
    sigma_j2 = 10.0 ** draw(st.floats(-4.0, 2.0))
    ts = 10.0 ** draw(st.floats(-1.3, 1.3))  # vartheta * sigma_j
    vartheta2 = ts * ts / sigma_j2
    lambda_j = draw(st.floats(0.3, 3.0))
    zeta_j = draw(st.floats(-3.0, 3.0))
    theta_intercept = draw(st.floats(-50.0, 50.0))
    beta_hat = draw(st.floats(-5.0, 5.0))
    sd_y = math.sqrt(vartheta2 * (1.0 + ts * ts))
    # place the interval relative to the combination's mean at beta0 = beta_hat
    center = theta_intercept - vartheta2 * (lambda_j * beta_hat + zeta_j)
    edge = center + sd_y * draw(st.floats(-10.0, 10.0))
    width = sd_y * 10.0 ** draw(st.floats(-6.0, 1.5))
    lower, upper = draw(
        st.sampled_from(
            [
                (edge, edge + width),
                (edge, math.inf),
                (-math.inf, edge),
                (-math.inf, math.inf),
            ]
        )
    )
    return PivotParams(
        vartheta2=vartheta2,
        sigma_j2=sigma_j2,
        lambda_j=lambda_j,
        zeta_j=zeta_j,
        theta_intercept=theta_intercept,
        lower=lower,
        upper=upper,
        beta_hat_j=beta_hat,
    )


def beta0_at(params, shift_sds):
    return params.beta_hat_j + shift_sds * math.sqrt(params.sigma_j2) / params.lambda_j


PROPERTY_SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)


class TestExactPivotProperties:
    @PROPERTY_SETTINGS
    @given(model_pivot_params(), st.floats(-1e6, 1e6))
    def test_in_unit_interval(self, params, shift):
        value = exact_pivot(params, beta0_at(params, shift))
        assert 0.0 <= value <= 1.0

    @PROPERTY_SETTINGS
    @given(model_pivot_params())
    def test_decreasing_in_beta0(self, params):
        grid = np.array([beta0_at(params, k) for k in np.linspace(-25, 25, 201)])
        vals = exact_pivot(params, grid)
        diffs = np.diff(vals)
        assert (diffs <= 0).all()
        interior = (vals[:-1] > 1e-9) & (vals[1:] < 1 - 1e-9)
        assert (diffs[interior] < 0).all()

    @PROPERTY_SETTINGS
    @given(model_pivot_params(), st.lists(st.floats(-25.0, 25.0), min_size=3, max_size=3))
    def test_agrees_with_oracle(self, params, shifts):
        for k in shifts:
            b0 = beta0_at(params, k)
            assert abs(exact_pivot(params, b0) - oracle_pivot(params, b0)) < 1e-9

    @PROPERTY_SETTINGS
    @given(model_pivot_params())
    def test_far_tail_limits(self, params):
        # the truncation slows the conditional law's drift in beta0 by up to
        # 1 + vartheta^2 sigma_j^2, so the shift is 1e3 sd of that drift
        shift = 1e3 * (1.0 + params.vartheta2 * params.sigma_j2)
        assert exact_pivot(params, beta0_at(params, shift)) == pytest.approx(0.0, abs=1e-12)
        assert exact_pivot(params, beta0_at(params, -shift)) == pytest.approx(1.0, abs=1e-12)


# Toy constants (sigma_j ~ 1) whose log-space rule overflows in its squares at
# beta0 = +-1e300 and in c = u / s at +-1.7e308: the 0/1 limit there.
FAR = PivotParams(0.8, 1.1, 0.9, 0.1, 0.2, -0.5, 3.0, 0.4)

# A truncation so extreme that the pivot is exactly 0 on both ends of the
# seed bracket beta_hat +- 5 sd (+-0.158), with its endpoints near -2.
SATURATED = PivotParams(
    vartheta2=1000.0,
    sigma_j2=0.001,
    lambda_j=1.0,
    zeta_j=1.0,
    theta_intercept=0.0,
    lower=-1000.0,
    upper=-955.2786404500042,
    beta_hat_j=0.0,
)


class TestSaturatedPivot:
    def test_inversion_expands_away_from_a_tie(self):
        assert exact_pivot(SATURATED, -0.158) == exact_pivot(SATURATED, 0.158) == 0.0
        (est,) = invert_pivot(SATURATED, alpha=0.1, target_labels=[0])
        assert isinstance(est, IntervalEstimate)
        assert -3.0 < est.lower < est.upper < -1.5
        assert oracle_pivot(SATURATED, est.lower) == pytest.approx(0.95, abs=1e-9)
        assert oracle_pivot(SATURATED, est.upper) == pytest.approx(0.05, abs=1e-9)

    def test_far_above_the_estimate_window_below_rounding(self):
        # the log-space window there is narrower than one ulp of its mode
        assert exact_pivot(SATURATED, 40308500.0) <= 1e-12
        grid = -3.0 + np.logspace(-6, 8, 2000)
        assert (np.diff(exact_pivot(SATURATED, grid)) <= 0).all()


@st.composite
def model_polyhedral_bounds(draw):
    """PolyhedralBounds with a two-sided, one-sided or full-line truncation
    interval around the estimate, each side 1e-4 to 30 sd away, so that an
    endpoint can lie ~1e4 sd beyond the estimate."""
    sd = 10.0 ** draw(st.floats(-3.0, 2.0))
    beta_hat = draw(st.floats(-5.0, 5.0))
    lower, upper = (
        beta_hat + side * sd * 10.0 ** draw(st.floats(-4.0, 1.5)) for side in (-1.0, 1.0)
    )
    lower, upper = draw(
        st.sampled_from([(lower, upper), (lower, math.inf), (-math.inf, upper),
                         (-math.inf, math.inf)])
    )
    return PolyhedralBounds(lower=lower, upper=upper, beta_hat=beta_hat, sd=sd)


def assert_probit_matches(probit, pivot, record, x, scale):
    """``probit``'s h and slope at the abscissae ``x`` against ``pivot``:
    Phi(h) is the pivot, to 1e-10 (far out, a ratio of two masses whose logs
    are ~1e5 carries that much rounding), log Phi(h) its log in the lower
    tail, and the slope a central difference of h over 1e-4 of the record's
    scale."""
    h, slope = probit(record, x)
    value = np.asarray(pivot(record, x))
    assert np.abs(ndtr(h) - value).max() <= 1e-10
    lower = np.isfinite(h) & (value <= 0.5) & (value >= np.finfo(float).smallest_normal)
    assert np.abs(log_ndtr(h[lower]) - np.log(value[lower])).max(initial=0.0) <= 1e-9
    step = 1e-4 * scale
    ahead, behind = probit(record, x + step)[0], probit(record, x - step)[0]
    central = (ahead - behind) / (2.0 * step)
    check = np.isfinite(ahead) & np.isfinite(behind) & np.isfinite(slope)
    tol = 1e-5 * np.abs(central) + 1e-10 * (1.0 + np.abs(h)) / step
    assert (np.abs(slope - central) <= tol)[check].all()


class TestProbitCompanions:
    """The private probit companions that the inversions solve on."""

    @PROPERTY_SETTINGS
    @given(model_pivot_params(), st.lists(st.floats(-60.0, 60.0), min_size=4, max_size=4))
    def test_exact_probit_matches_the_pivot(self, params, shifts):
        drift = 1e3 * (1.0 + params.vartheta2 * params.sigma_j2)
        x = np.array([beta0_at(params, k) for k in (*shifts, -drift, drift)])
        scale = math.sqrt(params.sigma_j2) / params.lambda_j
        assert_probit_matches(inference._exact_probit, exact_pivot, params, x, scale)

    @PROPERTY_SETTINGS
    @given(model_polyhedral_bounds(), st.lists(st.floats(-60.0, 60.0), min_size=4, max_size=4))
    def test_polyhedral_probit_matches_the_pivot(self, bounds, shifts):
        x = bounds.beta_hat + bounds.sd * np.array([*shifts, -1e4, -1e3, 1e3, 1e4])
        assert_probit_matches(
            inference._polyhedral_probit, polyhedral_pivot, bounds, x, bounds.sd
        )

    def test_exact_probit_slope_in_the_far_tail(self):
        """Without truncation the exact probit is the line ``(beta_hat -
        lambda_j beta0 - zeta_j) / sigma_j``, whose slope is ``-lambda_j /
        sigma_j = -0.9 / sqrt(1.1) = -0.858116330321``.  At 300, 1000 and
        3000 sd on either side of the estimate, where the log-space rule
        gives the pivot, h and its slope hold to 1e-10 relative: the slope
        takes the tail over ``phi(h)`` as the Mills ratio of h and the U
        partial over the tail as the rule's rate, so no difference of logs
        of size ``h^2 / 2`` enters it."""
        params = PivotParams(0.8, 1.1, 0.9, 0.1, 0.2, -math.inf, math.inf, 0.4)
        sd = math.sqrt(params.sigma_j2)
        k = np.array([300.0, 1000.0, 3000.0, -300.0, -1000.0, -3000.0])
        beta0 = (params.beta_hat_j - params.zeta_j - k * sd) / params.lambda_j
        h, slope = inference._exact_probit(params, beta0)
        line = (params.beta_hat_j - params.lambda_j * beta0 - params.zeta_j) / sd
        assert (np.abs(h - line) <= 1e-10 * np.abs(line)).all()
        assert -params.lambda_j / sd == pytest.approx(-0.858116330321, rel=1e-12)
        assert (np.abs(slope / (-params.lambda_j / sd) - 1.0) <= 1e-10).all()

    def test_polyhedral_probit_in_the_far_tail(self):
        """h and its slope where beta0 lies 40 to 3e4 sd beyond an estimate
        1e-4 or 1e-3 sd from its bound, against values frozen from 50-digit
        mpmath: h to 1e-12 and the slope to 1e-6, relative.  The first four
        are the estimate 1e-4 sd above its lower bound (two-sided) at 1e3,
        1e4, 2e4 and 3e4 sd below it; then one-sided bounds on either side,
        and a right-tail piece (upper bound 1e-3 sd above the estimate, beta0
        40 and 1000 sd below it).  The values were made by

            import mpmath as mp
            mp.mp.dps = 50

            def probit(lower, upper, beta_hat, sd, beta0):
                z = [(mp.mpf(x) - mp.mpf(beta0)) / mp.mpf(sd)
                     for x in (lower, beta_hat, upper)]
                q = lambda t: mp.erfc(t / mp.sqrt(2)) / 2  # upper tail Q(t)
                mass = lambda lo, hi: q(lo) - q(hi) if lo >= 0 else q(-hi) - q(-lo)
                below, above = mass(z[0], z[1]), mass(z[1], z[2])
                log_tail = mp.log(min(below, above) / (below + above))
                h = mp.findroot(lambda t: mp.log(q(-t)) - log_tail,
                                -mp.sqrt(-2 * log_tail))
                return h if below <= above else -h

            for (lower, upper, beta_hat, sd), beta0 in CASES:  # mp.inf for inf
                h = probit(lower, upper, beta_hat, sd, beta0)
                slope = mp.diff(lambda b: probit(lower, upper, beta_hat, sd, b), beta0)
                print(mp.nstr(h, 17), mp.nstr(slope, 17))
        """
        found = (-4.067374450998126, -3.603169151748512, -4.06732803510979, 0.4641588833612779)
        cases = [(found, found[2] - k * found[3]) for k in (1e3, 1e4, 2e4, 3e4)] + [
            ((0.0, math.inf, 1e-4, 1.0), -1e4),
            ((-math.inf, 0.0, -1e-4, 1.0), 3e4),
            ((-math.inf, 1e-3, 0.0, 1.0), -40.0),
            ((-math.inf, 1e-3, 0.0, 1.0), -1e3),
        ]
        want = [
            (-1.3096172915155362, -0.0011519192158350177),
            (0.3374749686513386, -0.00021030981346807566),
            (1.1015196285067537, -0.00013406299843030989),
            (1.6469217197297601, -0.00010435647261408479),
            (0.33747497840677761, -9.7617167524465859e-5),
            (-1.6469217245642135, -4.8437983701980128e-5),
            (40.08082257843632, -0.99737582372952026),
            (1000.0004586737086, -0.99999895935352418),
        ]
        record = stack([PolyhedralBounds(lo, up, bh, sd) for (lo, up, bh, sd), _ in cases])
        h, slope = inference._polyhedral_probit(record, np.array([x for _, x in cases]))
        want_h, want_slope = np.array(want).T
        assert (np.abs(h - want_h) <= 1e-12 * np.abs(want_h)).all()
        assert (np.abs(slope - want_slope) <= 1e-6 * np.abs(want_slope)).all()
        assert polyhedral_pivot(record, np.array([x for _, x in cases])) == pytest.approx(
            ndtr(want_h), rel=1e-12
        )

    @pytest.mark.parametrize("regime", ["owen", "log_space", "limit"])
    def test_exact_probit_in_each_regime(self, monkeypatch, regime):
        toy = toy_params()
        record, x = {
            "owen": (toy, np.array([1.0, 2.0, 3.0])),
            "log_space": (stack([toy, toy, SATURATED]), np.array([9.0, 20.0, -2.0])),
            # the 0/1 limit where u overflows (toy), or c = u / s or its
            # square does (FAR)
            "limit": (
                stack([replace(toy, sigma_j2=1e-4)] * 2 + [FAR] * 4),
                np.array([-1e307, 1e307, -1.7e308, -1e300, 1e300, 1.7e308]),
            ),
        }[regime]
        real = inference._log_cdf_weighted_integral
        sizes = []

        def spy(c, d, a, b):
            sizes.append(c.size // 2)
            return real(c, d, a, b)

        monkeypatch.setattr(inference, "_log_cdf_weighted_integral", spy)
        h, slope = inference._exact_probit(record, x)
        assert sum(sizes) == (x.size if regime == "log_space" else 0)
        if regime == "limit":
            below = x < record.beta_hat_j
            assert h.tolist() == np.where(below, math.inf, -math.inf).tolist()
            assert np.isnan(slope).all()
            assert exact_pivot(record, x).tolist() == below.astype(float).tolist()
        else:
            assert np.isfinite(h).all() and (slope < 0).all()
            assert_probit_matches(inference._exact_probit, exact_pivot, record, x, 1e-3)

    def test_no_far_point_reads_the_wrong_limit(self):
        # far out the log-space rule's window can be narrower than rounding,
        # with a slope of 0 at its mode; the one-term value of that integral
        # must stay finite there, or the pivot reads 0 below the estimate and
        # 1 above it
        center = (FAR.beta_hat_j - FAR.zeta_j) / FAR.lambda_j
        shift = np.logspace(2, 307, 1500) * math.sqrt(FAR.sigma_j2) / FAR.lambda_j
        x = np.concatenate([center - shift, [-2.6982925160651452e19], center + shift])
        below = x < center
        h, _ = inference._exact_probit(FAR, x)
        assert exact_pivot(FAR, x).tolist() == below.astype(float).tolist()
        assert (np.sign(h) == np.where(below, 1.0, -1.0)).all()


class TestInvertPivot:
    def test_full_line_gives_classical_z_interval(self):
        params = toy_params()
        forced = PivotParams(
            vartheta2=params.vartheta2,
            sigma_j2=1.0,
            lambda_j=1.0,
            zeta_j=0.0,
            theta_intercept=params.theta_intercept,
            lower=-math.inf,
            upper=math.inf,
            beta_hat_j=2.0,
        )
        (est,) = invert_pivot(forced, alpha=0.1)
        z = float(ndtri(0.95))
        assert est.lower == pytest.approx(2.0 - z, abs=1e-6)
        assert est.upper == pytest.approx(2.0 + z, abs=1e-6)

    def test_untruncated_targets_are_solved_at_their_seeds(self, monkeypatch):
        # without truncation the probit is linear and the seeds are its
        # roots, so one probit call solves every endpoint; the polyhedral
        # call also evaluates the clip window's two ends
        calls = []
        for name in ("_exact_probit", "_polyhedral_probit"):
            real = getattr(inference, name)
            monkeypatch.setattr(
                inference, name,
                lambda record, x, real=real: calls.append(np.size(x)) or real(record, x),
            )
        z = float(ndtri(0.95))
        full = PivotParams(
            vartheta2=1.0, sigma_j2=4.0, lambda_j=0.5, zeta_j=0.3,
            theta_intercept=0.0, lower=-math.inf, upper=math.inf, beta_hat_j=2.0,
        )
        (est,) = invert_pivot(full, alpha=0.1)
        assert est.lower == pytest.approx((2.0 - 0.3 - 2.0 * z) / 0.5, rel=1e-12)
        assert est.upper == pytest.approx((2.0 - 0.3 + 2.0 * z) / 0.5, rel=1e-12)
        (est,) = polyhedral_interval(
            PolyhedralBounds(lower=-math.inf, upper=math.inf, beta_hat=0.3, sd=2.0), alpha=0.1
        )
        assert est.lower == pytest.approx(0.3 - 2.0 * z, rel=1e-12)
        assert calls == [2, 4]

    def test_endpoints_reproduce_tail_targets(self):
        params = toy_params()
        (est,) = invert_pivot(params, alpha=0.1)
        assert exact_pivot(params, est.lower) == pytest.approx(0.95, abs=1e-6)
        assert exact_pivot(params, est.upper) == pytest.approx(0.05, abs=1e-6)
        assert est.covers(params.beta_hat_j)

    def test_nesting(self):
        params = toy_params()
        (wide,) = invert_pivot(params, alpha=0.05)
        (narrow,) = invert_pivot(params, alpha=0.10)
        assert wide.lower < narrow.lower < narrow.upper < wide.upper


def standard_lasso_fit(rng, n=60, p=10, lam=None, signal=2.5):
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:2] = signal
    y = X @ beta + rng.standard_normal(n)
    data = Dataset(y=y, X=X, sigma=1.0)
    lam = lam if lam is not None else math.sqrt(2 * math.log(p) * n)
    out = solve_randomized_lasso(data, lam=lam, epsilon=0.0, w=np.zeros(p))
    return data, out, lam


class TestPolyhedral:
    def test_single_feature_bound(self):
        # one positive active feature: the event is beta_hat > lam/||x||^2
        rng = np.random.default_rng(6)
        x = rng.standard_normal(30)
        y = 2.0 * x + 0.3 * rng.standard_normal(30)
        data = Dataset(y=y, X=x[:, None], sigma=1.0)
        lam = 3.0
        out = solve_randomized_lasso(data, lam=lam, epsilon=0.0, w=np.zeros(1))
        assert out.selected.size == 1
        target = build_target(data, out.selected, "selected")
        beta_hat = float(target.estimate[0])
        assert beta_hat == pytest.approx(float(x @ y) / float(x @ x))
        h_minus = lam / float(x @ x)
        sd = math.sqrt(target.norm2[0])
        bounds = take(polyhedral_targets(data, out, lam), 0)
        for beta0 in (0.0, 1.0, 2.5):
            want_num = ndtr((beta_hat - beta0) / sd) - ndtr((h_minus - beta0) / sd)
            want_den = 1.0 - ndtr((h_minus - beta0) / sd)
            got = polyhedral_pivot(bounds, beta0)
            assert got == pytest.approx(want_num / want_den, abs=1e-10)

    def test_interval_self_consistency(self):
        rng = np.random.default_rng(7)
        data, out, lam = standard_lasso_fit(rng)
        bounds = take(polyhedral_targets(data, out, lam), 0)
        (est,) = polyhedral_interval(bounds, alpha=0.1, target_labels=[0])
        if not est.clipped:
            lo_p = polyhedral_pivot(bounds, est.lower)
            hi_p = polyhedral_pivot(bounds, est.upper)
            assert lo_p == pytest.approx(0.95, abs=1e-6)
            assert hi_p == pytest.approx(0.05, abs=1e-6)

    def test_tampered_signs_detected(self):
        rng = np.random.default_rng(8)
        data, out, lam = standard_lasso_fit(rng)
        target = build_target(data, out.selected, "selected")
        _, errors = polyhedral_bounds(data, out.selected, -out.signs, lam, target, 1.0)
        assert isinstance(errors[0], GeometryInconsistencyError)

    def test_event_equivalence_brute_force(self):
        # target j's bounds: the plain lasso at y(t) = gamma_j + c_j t / ||c_j||^2
        # selects the same set with the same signs exactly when lower_j < t < upper_j
        rng = np.random.default_rng(36)
        fits = targets = 0
        while fits < 6:
            data, out, lam = standard_lasso_fit(rng, n=40, p=8, signal=1.0)
            if not out.selected.size:
                continue
            fits += 1
            contrasts = explicit_contrasts(data, out.selected, "selected")
            bounds = polyhedral_targets(data, out, lam)
            for j in range(out.selected.size):
                targets += 1
                c = contrasts[:, j]
                norm2 = c @ c
                beta_hat = float(c @ data.y)
                gamma = data.y - c * (beta_hat / norm2)
                lower, upper = float(bounds.lower[j]), float(bounds.upper[j])
                span = 4.0 * (abs(beta_hat) + 1.0)
                for t in rng.uniform(beta_hat - span, beta_hat + span, size=150):
                    refit = solve_randomized_lasso(
                        Dataset(y=gamma + c * (t / norm2), X=data.X),
                        lam=lam, epsilon=0.0, w=np.zeros(data.p),
                    )
                    same = np.array_equal(refit.selected, out.selected) and np.array_equal(
                        refit.signs, out.signs
                    )
                    if same != (lower < t < upper):
                        assert min(abs(t - lower), abs(t - upper)) <= 1e-8 * max(1.0, abs(t))
        assert targets >= 12

    def test_bounds_match_the_explicit_polyhedron(self):
        """``polyhedral_bounds``, which works on X'X and X'y, against the
        n-column ``G y < h`` built from X (``explicit_polyhedral_bounds``),
        for both models: each bound within 1e-9 max(1, |x|) of the oracle's,
        where it lies within 1e6 sd of the estimate, and beyond 1e6 sd (or
        infinite) on both sides otherwise.  Cases: generic designs; an
        inactive column in the span of two active ones (its rows are zero up
        to rounding, which bounds nothing near the estimate); an estimate
        moved to 1e-4 sd above its lower bound; and p > n."""
        rng = np.random.default_rng(41)
        fits = [standard_lasso_fit(rng) for _ in range(3)]
        data, out, lam = standard_lasso_fit(rng, n=40, p=8)
        X = data.X.copy()
        X[:, 7] = 0.6 * X[:, 0] - 0.3 * X[:, 1]
        spanned = Dataset(y=X[:, :2] @ [2.5, 2.5] + rng.standard_normal(40), X=X)
        fits.append((spanned, solve_randomized_lasso(spanned, lam, 0.0, np.zeros(8)), lam))
        assert {0, 1} <= set(fits[-1][1].selected) and 7 not in fits[-1][1].selected
        # the first fit's first target, its estimate moved 1e-4 sd above its lower bound
        data, out, lam = fits[0]
        c = explicit_contrasts(data, out.selected, "selected")[:, 0]
        norm2 = c @ c
        lower = explicit_polyhedral_bounds(data, out, lam, "selected")[0][0]
        t = lower + 1e-4 * math.sqrt(norm2)
        near = Dataset(y=data.y - c * (c @ data.y - t) / norm2, X=data.X)
        moved = solve_randomized_lasso(near, lam, 0.0, np.zeros(data.p))
        assert np.array_equal(moved.selected, out.selected)
        assert np.array_equal(moved.signs, out.signs)
        bounds, _ = polyhedral_bounds(
            near, moved.selected, moved.signs, lam, build_target(near, moved.selected, "selected"), 1.0
        )
        assert (bounds.beta_hat[0] - bounds.lower[0]) / bounds.sd[0] == pytest.approx(1e-4)
        fits.append((near, moved, lam))
        wide = standard_lasso_fit(rng, n=25, p=50)
        assert wide[1].selected.size >= 2
        fits.append(wide)
        checked = 0
        for data, out, lam in fits:
            for model in ("selected", "full"):
                if model == "full" and data.independent_columns.size < data.p:
                    continue
                target = build_target(data, out.selected, model)
                bounds, errors = polyhedral_bounds(
                    data, out.selected, out.signs, lam, target, 1.0
                )
                assert errors == [None] * out.selected.size
                want = explicit_polyhedral_bounds(data, out, lam, model)
                beta_hat, sd = target.estimate, np.sqrt(target.norm2)
                for got, oracle in zip((bounds.lower, bounds.upper), want):
                    close = np.abs(oracle - beta_hat) <= 1e6 * sd
                    assert (np.abs(got - oracle) <= 1e-9 * np.maximum(1.0, np.abs(oracle)))[
                        close
                    ].all()
                    assert (np.abs(got - beta_hat) > 1e6 * sd)[~close].all()
                checked += out.selected.size
        assert checked >= 25

    def test_estimate_on_a_bound_gives_ordered_unclipped_interval(self):
        # beta_hat 1e-3 sd above its lower bound: both endpoints lie more than
        # 50 sd below beta_hat, so clipping the lower one would put it above
        # the upper one
        bounds = PolyhedralBounds(lower=0.0, upper=math.inf, beta_hat=1e-3, sd=1.0)
        (est,) = polyhedral_interval(bounds, alpha=0.1)
        assert est.lower < est.upper < bounds.beta_hat - 50.0
        assert not est.clipped
        assert polyhedral_pivot(bounds, est.lower) == pytest.approx(0.95, abs=1e-6)
        assert polyhedral_pivot(bounds, est.upper) == pytest.approx(0.05, abs=1e-6)
        mirror = PolyhedralBounds(lower=-math.inf, upper=0.0, beta_hat=-1e-3, sd=1.0)
        (est,) = polyhedral_interval(mirror, alpha=0.1)
        assert mirror.beta_hat + 50.0 < est.lower < est.upper
        assert not est.clipped

    @pytest.mark.parametrize(
        "bounds, want, most_calls",
        [
            (
                PolyhedralBounds(lower=0.0, upper=math.inf, beta_hat=1e-8, sd=1.0),
                (-299573227.35539895, -5129329.438754921),
                40,
            ),
            (
                PolyhedralBounds(lower=-2.0, upper=3.0, beta_hat=-2.0 + 0.5e-8, sd=0.5),
                (-149786616.5880233, -2564666.734964136),
                40,
            ),
            (
                PolyhedralBounds(lower=-10.0, upper=math.inf, beta_hat=0.0, sd=1.0),
                (-1.6448536269514722, 1.6448536269514722),
                1,
            ),
        ],
        ids=["near", "near_two_sided", "far"],
    )
    def test_estimate_near_its_bound_is_seeded_from_the_tail(
        self, monkeypatch, bounds, want, most_calls
    ):
        """An estimate 1e-8 sd above its lower bound: each endpoint starts at
        the root of the one-sided exponential tail law there, not at its
        full-line value.  10 sd above it, that root would lie 0.3 sd beyond
        the bound, where the law does not hold, so the full-line seeds stay.
        The endpoints are those the full-line seeds gave (frozen) to 1e-9
        relative, with at most ``most_calls`` evaluations of the pivot or its
        probit, the clip window's included, where the full-line seeds took
        86, 86 and 2 (the window in a call of its own)."""
        calls = []
        for name in ("_polyhedral_probit", "polyhedral_pivot"):
            real = getattr(inference, name)

            def counted(constants, x, real=real):
                calls.append(x)
                return real(constants, x)

            monkeypatch.setattr(inference, name, counted)
        (est,) = polyhedral_interval(bounds, alpha=0.1)
        assert not est.clipped
        assert est.lower == pytest.approx(want[0], rel=1e-9)
        assert est.upper == pytest.approx(want[1], rel=1e-9)
        assert len(calls) <= most_calls


def polyhedral_targets(data, out, lam):
    """Every target's polyhedral bounds, built together as a fit builds them."""
    target = build_target(data, out.selected, "selected")
    bounds, errors = polyhedral_bounds(data, out.selected, out.signs, lam, target, 1.0)
    assert errors == [None] * out.selected.size
    return bounds


def outcome(result):
    """An interval's endpoints and flag, or a failure's class and message."""
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    return result.lower, result.upper, result.clipped


def assert_agrees(got, reference, constants):
    """The batched-inversion tolerance: each endpoint within 1e-9 max(1, |x|)
    of the scalar reference's, the same clipping, or the same failure."""
    try:
        want = outcome(reference(constants, 0.1))
    except ExactSIError as exc:
        want = outcome(exc)
    got = outcome(got)
    if isinstance(want[0], str) or isinstance(got[0], str):
        assert got == want
        return
    for x, y in zip(got[:2], want[:2]):
        assert abs(x - y) <= 1e-9 * max(1.0, abs(y))
    assert got[2] == want[2]


class TestBatchedInversion:
    """One vectorized root-find per fit agrees with the scalar reference
    (bracket doubling plus Brent's method) target by target."""

    def test_exact_matches_scalar_reference(self):
        rng = np.random.default_rng(31)
        count = 0
        for _ in range(6):
            data, out, rep, _, tau2 = carving_fit(rng, min_selected=2)
            params = exact_targets(data, out, rep, tau2)
            got = invert_pivot(params, 0.1, [int(e) for e in out.selected])
            for k, (est, label) in enumerate(zip(got, out.selected)):
                assert_agrees(est, reference_invert_pivot, take(params, k))
                assert est.target_label == label
                count += 1
        assert count >= 12

    def test_polyhedral_matches_scalar_reference(self):
        rng = np.random.default_rng(32)
        count = 0
        for _ in range(6):
            data, out, lam = standard_lasso_fit(rng, n=60, p=10, signal=1.0)
            bounds = polyhedral_targets(data, out, lam)
            for k, est in enumerate(polyhedral_interval(bounds, 0.1)):
                assert_agrees(est, reference_polyhedral_interval, take(bounds, k))
                count += 1
        assert count >= 6

    def test_full_line_exact_interval_in_a_batch(self):
        rng = np.random.default_rng(33)
        data, out, rep, _, tau2 = carving_fit(rng)
        real = exact_targets(data, out, rep, tau2)
        forced = PivotParams(
            vartheta2=1.0, sigma_j2=1.0, lambda_j=1.0, zeta_j=0.0,
            theta_intercept=0.0, lower=-math.inf, upper=math.inf, beta_hat_j=2.0,
        )
        each = [take(real, k) for k in range(out.selected.size)] + [forced]
        got = invert_pivot(stack(each), alpha=0.1)
        z = float(ndtri(0.95))
        assert got[-1].lower == pytest.approx(2.0 - z, abs=1e-9)
        assert got[-1].upper == pytest.approx(2.0 + z, abs=1e-9)
        for est, p in zip(got, each):
            assert_agrees(est, reference_invert_pivot, p)

    def test_polyhedral_clip_window_cases_in_one_batch(self):
        bounds = [
            # both endpoints more than 50 sd below the estimate: unclipped
            PolyhedralBounds(lower=0.0, upper=math.inf, beta_hat=1e-3, sd=1.0),
            # and its mirror image above
            PolyhedralBounds(lower=-math.inf, upper=0.0, beta_hat=-1e-3, sd=1.0),
            # the lower endpoint alone beyond the window: clipped there
            PolyhedralBounds(lower=0.0, upper=math.inf, beta_hat=0.05, sd=1.0),
            # an untruncated estimate: the z-interval
            PolyhedralBounds(lower=-math.inf, upper=math.inf, beta_hat=0.3, sd=2.0),
            # a two-sided truncation
            PolyhedralBounds(lower=-1.0, upper=2.0, beta_hat=0.4, sd=0.7),
        ]
        got = polyhedral_interval(stack(bounds), alpha=0.1)
        assert [est.clipped for est in got] == [False, False, True, False, False]
        assert got[2].lower == 0.05 - 50.0
        z = float(ndtri(0.95))
        assert got[3].lower == pytest.approx(0.3 - 2.0 * z, abs=1e-9)
        for est, b in zip(got, bounds):
            assert_agrees(est, reference_polyhedral_interval, b)

    @PROPERTY_SETTINGS
    @given(model_pivot_params())
    def test_array_pivot_equals_scalar_pivot_into_its_limits(self, params):
        # shifts out to the far tails, where the pivot takes its 0/1 limits
        drift = 1.0 + params.vartheta2 * params.sigma_j2
        shifts = np.concatenate([np.linspace(-25, 25, 51), [-1e3 * drift, 1e3 * drift]])
        grid = np.array([beta0_at(params, k) for k in shifts])
        vals = exact_pivot(params, grid)
        assert vals.shape == grid.shape
        assert vals.tolist() == [exact_pivot(params, float(b0)) for b0 in grid]
        assert vals[-2] == pytest.approx(1.0, abs=1e-12)
        assert vals[-1] == pytest.approx(0.0, abs=1e-12)
        batch = stack([params, params])
        twice = exact_pivot(batch, np.column_stack([grid, grid[::-1]]))
        assert twice[:, 0].tolist() == vals.tolist()
        assert twice[:, 1].tolist() == vals[::-1].tolist()

    def test_unstraddled_exact_target_fails_alone(self, monkeypatch):
        rng = np.random.default_rng(34)
        data, out, rep, _, tau2 = carving_fit(rng, min_selected=3)
        params = exact_targets(data, out, rep, tau2)
        clean = invert_pivot(params, alpha=0.1)
        flat = params.beta_hat_j[1]
        real = inference._exact_probit

        def stuck(batch, beta0):
            # target 1's pivot never leaves 0.5 (probit 0, slope 0), so no
            # bracket straddles 0.95
            h, slope = real(batch, beta0)
            mask = batch.beta_hat_j == flat
            return np.where(mask, 0.0, h), np.where(mask, 0.0, slope)

        monkeypatch.setattr(inference, "_exact_probit", stuck)
        got = invert_pivot(params, alpha=0.1)
        assert isinstance(got[1], NoRootError)
        assert str(got[1]) == "target 0.95 not straddled after 60 bracket expansions"
        assert [outcome(e) for k, e in enumerate(got) if k != 1] == [
            outcome(e) for k, e in enumerate(clean) if k != 1
        ]

    def test_unstraddled_polyhedral_target_fails_alone(self):
        # an estimate below its truncation interval has pivot 0 everywhere
        bounds = [
            PolyhedralBounds(lower=-1.0, upper=2.0, beta_hat=0.4, sd=0.7),
            PolyhedralBounds(lower=1.0, upper=math.inf, beta_hat=0.5, sd=1.0),
            PolyhedralBounds(lower=0.0, upper=math.inf, beta_hat=1e-3, sd=1.0),
        ]
        got = polyhedral_interval(stack(bounds), alpha=0.1)
        assert isinstance(got[1], NoRootError)
        assert_agrees(got[1], reference_polyhedral_interval, bounds[1])
        alone = polyhedral_interval(stack([bounds[0], bounds[2]]), alpha=0.1)
        assert [outcome(got[0]), outcome(got[2])] == [outcome(e) for e in alone]

    @pytest.mark.parametrize("field", ["lower", "upper", "beta_hat", "sd"])
    def test_nan_polyhedral_constant_fails_its_target_alone(self, field):
        """A NaN constant makes a target's pivot NaN: that target alone fails,
        with the NaN-value error of its endpoint, and the endpoints of the
        others are bit for bit those they have solved alone."""
        bounds = [
            PolyhedralBounds(lower=-1.0, upper=2.0, beta_hat=0.4, sd=0.7),
            PolyhedralBounds(lower=0.0, upper=3.0, beta_hat=0.5, sd=1.0),
            PolyhedralBounds(lower=0.0, upper=math.inf, beta_hat=1e-3, sd=1.0),
            PolyhedralBounds(lower=-math.inf, upper=math.inf, beta_hat=0.3, sd=2.0),
        ]
        broken = list(bounds)
        broken[1] = replace(bounds[1], **{field: math.nan})
        got = polyhedral_interval(stack(broken), alpha=0.1, target_labels=[3, 5, 7, 9])
        assert isinstance(got[1], NumericalDegeneracyError)
        assert str(got[1]) == "root finding met a NaN value of g"
        alone = polyhedral_interval(stack([bounds[0], *bounds[2:]]), alpha=0.1)
        assert [outcome(got[k]) for k in (0, 2, 3)] == [outcome(e) for e in alone]
        assert [got[k].target_label for k in (0, 2, 3)] == [3, 7, 9]
        assert math.isnan(polyhedral_pivot(broken[1], 0.2))

    def test_default_cell_evaluations_are_bounded(self, monkeypatch):
        """20 default-cell polyhedral fits (seed 78) evaluate the pivot or its
        probit at most 100 times in all, 5 per fit with the clip window's
        evaluation: the window shares the seeds' call, and a quadratically
        contracting Newton step is taken without a confirming call.  With
        the window in a call of its own and every step confirmed they took
        126."""
        calls = []
        for name in ("_polyhedral_probit", "polyhedral_pivot"):
            real = getattr(inference, name)

            def counted(constants, x, real=real):
                calls.append(np.size(x))
                return real(constants, x)

            monkeypatch.setattr(inference, name, counted)
        fits = []
        real_interval = study.polyhedral_interval

        def interval(*args, **kwargs):
            fits.append(args[0])
            return real_interval(*args, **kwargs)

        monkeypatch.setattr(study, "polyhedral_interval", interval)
        summary = study.run_study(SimConfig(seed=78, n_reps=20, methods=("polyhedral",)))
        assert summary.methods["polyhedral"].n_failed == 0
        assert len(fits) == 20
        assert len(calls) <= 100

    def test_empty_batch(self):
        none = np.zeros(0)
        assert invert_pivot(PivotParams(*[none] * 8), alpha=0.1) == []
        assert polyhedral_interval(PolyhedralBounds(*[none] * 4), alpha=0.1) == []

    @PROPERTY_SETTINGS
    @given(model_pivot_params())
    def test_scalar_record_matches_scalar_reference(self, params):
        (got,) = invert_pivot(params, 0.1)
        assert_agrees(got, reference_invert_pivot, params)

    @PROPERTY_SETTINGS
    @given(st.lists(model_pivot_params(), min_size=1, max_size=4))
    def test_stacked_record_matches_scalar_reference(self, each):
        got = invert_pivot(stack(each), alpha=0.1)
        assert len(got) == len(each)
        for est, params in zip(got, each):
            assert_agrees(est, reference_invert_pivot, params)


    @PROPERTY_SETTINGS
    @given(model_polyhedral_bounds())
    def test_polyhedral_record_matches_scalar_reference(self, bounds):
        (got,) = polyhedral_interval(bounds, 0.1)
        assert_agrees(got, reference_polyhedral_interval, bounds)

    def test_no_abscissa_is_evaluated_twice(self, monkeypatch):
        # every (target constants, beta0) pair that reaches a pivot or its
        # probit, over a batch with saturated, full-line, clipped and
        # unclipped far endpoints, is evaluated once
        seen = []

        def record(name):
            real = getattr(inference, name)

            def spy(constants, beta0):
                columns = np.broadcast_arrays(
                    *(np.asarray(getattr(constants, f.name), dtype=float) for f in fields(constants)),
                    np.asarray(beta0, dtype=float),
                )
                seen.extend(zip(*(c.ravel().tolist() for c in columns)))
                return real(constants, beta0)

            monkeypatch.setattr(inference, name, spy)

        for name in ("_exact_probit", "_polyhedral_probit", "polyhedral_pivot"):
            record(name)
        rng = np.random.default_rng(35)
        data, out, rep, _, tau2 = carving_fit(rng, min_selected=2)
        real = exact_targets(data, out, rep, tau2)
        forced = PivotParams(
            vartheta2=1.0, sigma_j2=1.0, lambda_j=1.0, zeta_j=0.0,
            theta_intercept=0.0, lower=-math.inf, upper=math.inf, beta_hat_j=2.0,
        )
        each = [take(real, k) for k in range(out.selected.size)] + [SATURATED, forced]
        assert all(isinstance(e, IntervalEstimate) for e in invert_pivot(stack(each), 0.1))
        exact_calls = len(seen)
        bounds = stack([
            PolyhedralBounds(lower=0.0, upper=math.inf, beta_hat=1e-3, sd=1.0),
            PolyhedralBounds(lower=-math.inf, upper=0.0, beta_hat=-1e-3, sd=1.0),
            PolyhedralBounds(lower=0.0, upper=math.inf, beta_hat=0.05, sd=1.0),
            PolyhedralBounds(lower=-math.inf, upper=math.inf, beta_hat=0.3, sd=2.0),
            PolyhedralBounds(lower=-1.0, upper=2.0, beta_hat=0.4, sd=0.7),
        ])
        assert all(isinstance(e, IntervalEstimate) for e in polyhedral_interval(bounds, 0.1))
        assert exact_calls > 0 and len(seen) > exact_calls
        assert len(seen) == len(set(seen))


class TestSplitInference:
    def test_deterministic_and_labeled(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((80, 10))
        beta = np.zeros(10)
        beta[:3] = 3.0
        y = X @ beta + rng.standard_normal(80)
        data = Dataset(y=y, X=X, sigma=1.0)
        lam = 0.8 * math.sqrt(2 * math.log(10) * 64)
        a = split_inference(data, rho=0.8, lam=lam, alpha=0.1, seed=3)
        b = split_inference(data, rho=0.8, lam=lam, alpha=0.1, seed=3)
        assert [e.target_label for e in a] == [e.target_label for e in b]
        assert all(ea.lower == eb.lower and ea.upper == eb.upper for ea, eb in zip(a, b))
        assert all(0 <= e.target_label < 10 for e in a)

    def test_bad_rho(self):
        rng = np.random.default_rng(10)
        data = Dataset(y=rng.standard_normal(10), X=rng.standard_normal((10, 2)))
        with pytest.raises(InvalidArgumentError):
            split_inference(data, rho=1.5, lam=1.0, alpha=0.1, seed=0)


class TestUVInference:
    def test_synthetic_noise_independence(self):
        rng = np.random.default_rng(11)
        f = 0.25
        y = rng.standard_normal(100_000)
        w = rng.standard_normal(100_000) * math.sqrt(f)
        u, v = y + w, y - w / f
        corr = np.corrcoef(u, v)[0, 1]
        assert abs(corr) < 5 / math.sqrt(100_000)

    def test_deterministic_intervals(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((90, 8))
        beta = np.zeros(8)
        beta[:2] = 4.0
        y = X @ beta + rng.standard_normal(90)
        data = Dataset(y=y, X=X, sigma=1.0)
        lam = math.sqrt(2 * math.log(8) * 90)
        a = uv_inference(data, f=0.25, lam=lam, alpha=0.1, sigma2=1.0, seed=7)
        b = uv_inference(data, f=0.25, lam=lam, alpha=0.1, sigma2=1.0, seed=7)
        assert [e.target_label for e in a] == [e.target_label for e in b]
        assert all(ea.lower == eb.lower and ea.upper == eb.upper for ea, eb in zip(a, b))


class TestEqualColumns:
    """Two equal columns make the Gram singular, although its Cholesky
    factorization passes by rounding on this design; every least-squares
    fit on them raises ``SingularDesignError``."""

    @staticmethod
    def data():
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 2))
        X[:, 1] = X[:, 0]
        cho_factor(X.T @ X)  # passes: no rank information
        return Dataset(y=rng.standard_normal(30), X=X)

    def test_polyhedral_bounds(self):
        data = self.data()
        # contrasts the columns of X: their statistics X'X, diag(X'X) and X'y
        target = TargetSpec(data.X.T @ data.X, (data.X**2).sum(axis=0), data.y @ data.X)
        with pytest.raises(SingularDesignError, match="selected design is singular"):
            polyhedral_bounds(data, np.array([0, 1]), np.array([1.0, 1.0]), 1.0, target, 1.0)

    def test_selected_plug_in(self):
        with pytest.raises(SingularDesignError, match="plug-in design is singular"):
            plug_in_sigma2(self.data(), np.array([0, 1]), "selected")

    def test_held_out_least_squares(self):
        """Split selects both columns on its training rows, where they
        differ; on the held-out rows they are equal."""
        rng = np.random.default_rng(2)
        X = rng.standard_normal((40, 2))
        test = np.random.default_rng(0).permutation(40)[20:]  # split's rows at seed 0
        X[test, 1] = X[test, 0]
        data = Dataset(y=X @ np.array([3.0, 3.0]) + rng.standard_normal(40), X=X)
        with pytest.raises(SingularDesignError, match="is singular"):
            split_inference(data, rho=0.5, lam=1.0, alpha=0.1, seed=0)


class TestPlugInSigma:
    def test_known_variance_recovered(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((4000, 5))
        y = X @ np.array([1.0, -1.0, 0.0, 0.0, 2.0]) + 1.7 * rng.standard_normal(4000)
        data = Dataset(y=y, X=X)
        full = plug_in_sigma2(data, np.arange(5), "full")
        sel = plug_in_sigma2(data, np.array([0, 1, 4]), "selected")
        assert full == pytest.approx(1.7**2, rel=0.1)
        assert sel == pytest.approx(1.7**2, rel=0.1)

    def test_full_model_fits_the_independent_columns(self):
        """A duplicated column leaves the full-model plug-in as the fit on
        the other columns, with n - rank degrees of freedom."""
        rng = np.random.default_rng(14)
        X = rng.standard_normal((60, 4))
        y = X @ np.array([1.0, 0.5, 0.0, -1.0]) + rng.standard_normal(60)
        dup = Dataset(y=y, X=np.column_stack([X, X[:, 0]]))
        want = plug_in_sigma2(Dataset(y=y, X=X), np.arange(4), "full")
        assert plug_in_sigma2(dup, np.arange(5), "full") == pytest.approx(want, rel=1e-12)

    def test_interval_estimate_validation(self):
        with pytest.raises(InvalidArgumentError):
            IntervalEstimate(lower=1.0, upper=0.0, target_label=0)
