import math
from dataclasses import fields, replace

import numpy as np
import pytest
from conftest import (
    carving_fit,
    carving_pivot_params,
    duplicated_column_frame,
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
from scipy.special import ndtr, ndtri

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
    z_interval,
)
from exactsi.numerics import independent_columns
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

    def test_bad_sigma_fails_its_target_alone(self):
        """In a batch, a target whose sigma_j2 is 0 and one whose sigma_j2 is
        NaN fail alone, each with its own error and a NaN pivot; the others
        keep the endpoints they get when solved alone, bit for bit."""
        rng = np.random.default_rng(34)
        data, out, rep, _, tau2 = carving_fit(rng, min_selected=3)
        params = exact_targets(data, out, rep, tau2)
        each = [take(params, k) for k in range(out.selected.size)]
        broken = [each[0], replace(each[1], sigma_j2=0.0), *each[2:],
                  replace(each[0], sigma_j2=math.nan)]
        bad = [1, len(broken) - 1]
        got = invert_pivot(stack(broken), alpha=0.1)
        for k in bad:
            assert isinstance(got[k], NumericalDegeneracyError)
            assert str(got[k]) == "sigma_j2 must be positive"
        good = [k for k in range(len(broken)) if k not in bad]
        assert [outcome(got[k]) for k in good] == [
            outcome(invert_pivot(broken[k], alpha=0.1)[0]) for k in good
        ]
        # entry k is target k: one entry per target, each good one the
        # interval of its own target alone (above)
        assert len(got) == len(broken)
        beta0 = np.array([b.beta_hat_j for b in broken])
        assert np.isnan(exact_pivot(stack(broken), beta0)).tolist() == [
            k in bad for k in range(len(broken))
        ]
        assert math.isnan(exact_pivot(replace(each[0], sigma_j2=-1.0), 0.0))

    @pytest.mark.parametrize("name", [
        "beta_hat_j", "lambda_j", "zeta_j", "lower", "upper", "vartheta2", "theta_intercept",
    ])
    def test_nan_constant_fails_its_target_alone(self, name):
        """A target with a NaN exact constant has a NaN pivot and fails alone
        with a ``NumericalDegeneracyError``; the other target of its batch
        keeps the endpoints it gets when solved alone, bit for bit."""
        params = toy_params()
        both = stack([params, replace(params, **{name: math.nan})])
        got = invert_pivot(both, alpha=0.1)
        assert isinstance(got[1], NumericalDegeneracyError)
        assert outcome(got[0]) == outcome(invert_pivot(params, alpha=0.1)[0])
        assert len(got) == 2  # entry 0 is target 0
        assert np.isnan(exact_pivot(both, 1.0)).tolist() == [False, True]

    def test_overflowing_seed_fails_its_target_alone(self):
        """A ``lambda_j`` so small that the seeds ``(beta_hat - zeta -+ z sd)
        / lambda_j`` and the scale ``sd / lambda_j`` overflow fails its own
        target, with no warning and an error that says so; the other target
        keeps its lone endpoints."""
        params = toy_params()
        both = stack([params, replace(params, lambda_j=1e-320)])
        got = invert_pivot(both, alpha=0.1)
        assert isinstance(got[1], NumericalDegeneracyError)
        assert str(got[1]) == "root finding cannot start: the seed or the scale is not finite"
        assert outcome(got[0]) == outcome(invert_pivot(params, alpha=0.1)[0])
        assert len(got) == 2  # entry 0 is target 0

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
        data = Dataset(y=y, X=X)
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
        fit = fit_method(data, cal, "exact", config.model, _seed_for(config.seed, 3, 2))
        j = int(np.flatnonzero(fit.selected == 56)[0])
        assert fit.errors == [None] * fit.selected.size
        params = take(fit.constants, j)
        est = study.infer([fit], config.alpha)[0][j]
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
        (est,) = invert_pivot(SATURATED, alpha=0.1)
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


def exact_probit(record, x):
    """``_exact_probit`` on a record broadcast against ``x``."""
    _, flat, x = inference._broadcast(record, x)
    return inference._exact_probit(flat, x)


def polyhedral_probit(record, x):
    """``_polyhedral_probit`` on a record broadcast against ``x``."""
    _, flat, x = inference._broadcast(record, x)
    return inference._polyhedral_probit(flat, x)


def exact_oracle(params, x):
    """``oracle_pivot`` at each abscissa of ``x``, with its own constants."""
    columns = np.broadcast_arrays(x, *(getattr(params, f.name) for f in fields(params)))
    rows = zip(*(np.ravel(column).tolist() for column in columns))
    return np.array([oracle_pivot(PivotParams(*row[1:]), row[0]) for row in rows])


def polyhedral_oracle(bounds, x):
    """The polyhedral pivot as the direct ratio ``(Phi(m) - Phi(a)) / (Phi(b)
    - Phi(a))`` of the standardized bounds and estimate, within ~1e-13 where
    the truncation mass is at least 1e-3 (its bulk), and NaN elsewhere."""
    ends = (bounds.lower, bounds.beta_hat, bounds.upper)
    a, m, b = ((np.asarray(end) - x) / bounds.sd for end in ends)
    mass = ndtr(b) - ndtr(a)
    with np.errstate(divide="ignore", invalid="ignore"):  # outside the bulk
        return np.where(mass >= 1e-3, (ndtr(m) - ndtr(a)) / mass, math.nan)


def assert_probit_matches(probit, oracle, record, x, scale):
    """``probit``'s h and slope at the abscissae ``x``: Phi(h), which is the
    pivot, against the independent ``oracle``'s pivot to 1e-9 where the
    oracle gives one (not NaN), and the slope against a central difference
    of h over 1e-4 of the record's scale."""
    h, slope = probit(record, x)
    want = oracle(record, x)
    assert np.abs(ndtr(h) - want)[~np.isnan(want)].max(initial=0.0) <= 1e-9
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
        assert_probit_matches(exact_probit, exact_oracle, params, x, scale)

    @PROPERTY_SETTINGS
    @given(model_polyhedral_bounds(), st.lists(st.floats(-60.0, 60.0), min_size=4, max_size=4))
    def test_polyhedral_probit_matches_the_pivot(self, bounds, shifts):
        x = bounds.beta_hat + bounds.sd * np.array([*shifts, -1e4, -1e3, 1e3, 1e4])
        assert_probit_matches(polyhedral_probit, polyhedral_oracle, bounds, x, bounds.sd)

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
        h, slope = exact_probit(params, beta0)
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
        h, slope = polyhedral_probit(record, np.array([x for _, x in cases]))
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
        h, slope = exact_probit(record, x)
        assert sum(sizes) == (x.size if regime == "log_space" else 0)
        if regime == "limit":
            below = x < record.beta_hat_j
            assert h.tolist() == np.where(below, math.inf, -math.inf).tolist()
            assert np.isnan(slope).all()
            assert exact_pivot(record, x).tolist() == below.astype(float).tolist()
        else:
            assert np.isfinite(h).all() and (slope < 0).all()
            assert_probit_matches(exact_probit, exact_oracle, record, x, 1e-3)

    def test_no_far_point_reads_the_wrong_limit(self):
        # far out the log-space rule's window can be narrower than rounding,
        # with a slope of 0 at its mode; the one-term value of that integral
        # must stay finite there, or the pivot reads 0 below the estimate and
        # 1 above it
        center = (FAR.beta_hat_j - FAR.zeta_j) / FAR.lambda_j
        shift = np.logspace(2, 307, 1500) * math.sqrt(FAR.sigma_j2) / FAR.lambda_j
        x = np.concatenate([center - shift, [-2.6982925160651452e19], center + shift])
        below = x < center
        h, _ = exact_probit(FAR, x)
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
        # roots, so one probit call solves every endpoint
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
        assert calls == [2, 2]

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
    data = Dataset(y=y, X=X)
    lam = lam if lam is not None else math.sqrt(2 * math.log(p) * n)
    out = solve_randomized_lasso(data, lam=lam, epsilon=0.0, w=np.zeros(p))
    return data, out, lam


class TestPolyhedral:
    def test_single_feature_bound(self):
        # one positive active feature: the event is beta_hat > lam/||x||^2
        rng = np.random.default_rng(6)
        x = rng.standard_normal(30)
        y = 2.0 * x + 0.3 * rng.standard_normal(30)
        data = Dataset(y=y, X=x[:, None])
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
        (est,) = polyhedral_interval(bounds, alpha=0.1)
        assert polyhedral_pivot(bounds, est.lower) == pytest.approx(0.95, abs=1e-6)
        assert polyhedral_pivot(bounds, est.upper) == pytest.approx(0.05, abs=1e-6)

    def test_tampered_signs_detected(self):
        rng = np.random.default_rng(8)
        data, out, lam = standard_lasso_fit(rng)
        target = build_target(data, out.selected, "selected")
        bounds, errors = polyhedral_bounds(data, out.selected, -out.signs, lam, target, 1.0)
        assert isinstance(errors[0], GeometryInconsistencyError)
        # every target keeps its row, and a failed one has a NaN pivot
        assert {np.shape(getattr(bounds, f.name)) for f in fields(bounds)} == {
            (out.selected.size,)
        }
        assert np.isnan(polyhedral_pivot(bounds, target.estimate)).tolist() == [
            e is not None for e in errors
        ]

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
                if model == "full" and independent_columns(data.gram).size < data.p:
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
        # 50 sd below beta_hat
        bounds = PolyhedralBounds(lower=0.0, upper=math.inf, beta_hat=1e-3, sd=1.0)
        (est,) = polyhedral_interval(bounds, alpha=0.1)
        assert est.lower < est.upper < bounds.beta_hat - 50.0
        assert polyhedral_pivot(bounds, est.lower) == pytest.approx(0.95, abs=1e-6)
        assert polyhedral_pivot(bounds, est.upper) == pytest.approx(0.05, abs=1e-6)
        mirror = PolyhedralBounds(lower=-math.inf, upper=0.0, beta_hat=-1e-3, sd=1.0)
        (est,) = polyhedral_interval(mirror, alpha=0.1)
        assert mirror.beta_hat + 50.0 < est.lower < est.upper

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
        probit, where the full-line seeds took 86, 86 and 2 (with the clip
        window that the inversion once evaluated in a call of its own)."""
        calls = []
        for name in ("_polyhedral_probit", "polyhedral_pivot"):
            real = getattr(inference, name)

            def counted(constants, x, real=real):
                calls.append(x)
                return real(constants, x)

            monkeypatch.setattr(inference, name, counted)
        (est,) = polyhedral_interval(bounds, alpha=0.1)
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
    """An interval's endpoints, or a failure's class and message."""
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    return result.lower, result.upper


def assert_agrees(got, reference, constants):
    """The batched-inversion tolerance: each endpoint within 1e-9 max(1, |x|)
    of the scalar reference's, or the same failure."""
    try:
        want = outcome(reference(constants, 0.1))
    except ExactSIError as exc:
        want = outcome(exc)
    got = outcome(got)
    if isinstance(want[0], str) or isinstance(got[0], str):
        assert got == want
        return
    for x, y in zip(got, want):
        assert abs(x - y) <= 1e-9 * max(1.0, abs(y))


class TestBatchedInversion:
    """One vectorized root-find per fit agrees with the scalar reference
    (bracket doubling plus Brent's method) target by target."""

    def test_exact_matches_scalar_reference(self):
        rng = np.random.default_rng(31)
        count = 0
        for _ in range(6):
            data, out, rep, _, tau2 = carving_fit(rng, min_selected=2)
            params = exact_targets(data, out, rep, tau2)
            got = invert_pivot(params, 0.1)
            # entry k is target k: one entry per selected feature, each
            # agreeing with the reference on its own target's constants
            assert len(got) == out.selected.size
            for k, est in enumerate(got):
                assert_agrees(est, reference_invert_pivot, take(params, k))
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

    @PROPERTY_SETTINGS
    @given(st.lists(model_polyhedral_bounds(), min_size=1, max_size=4),
           st.sampled_from([0.01, 0.1, 0.5]))
    def test_polyhedral_endpoints_solve_the_pivot_however_far_out(self, each, alpha):
        """Every endpoint of a batch is solved where it lies, out to ~1e4 sd
        beyond the estimate: the pivot there is ``1 - alpha / 2`` (lower)
        and ``alpha / 2`` (upper) to 1e-9.  The inversion once cut an
        endpoint at 50 sd and flagged it, unsolved."""
        got = polyhedral_interval(stack(each), alpha)
        assert len(got) == len(each)
        for est, bounds in zip(got, each):
            assert polyhedral_pivot(bounds, est.lower) == pytest.approx(1.0 - alpha / 2.0, abs=1e-9)
            assert polyhedral_pivot(bounds, est.upper) == pytest.approx(alpha / 2.0, abs=1e-9)

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
        got = polyhedral_interval(stack(broken), alpha=0.1)
        assert isinstance(got[1], NumericalDegeneracyError)
        assert str(got[1]) == "root finding met a NaN value of g"
        alone = polyhedral_interval(stack([bounds[0], *bounds[2:]]), alpha=0.1)
        assert [outcome(got[k]) for k in (0, 2, 3)] == [outcome(e) for e in alone]
        assert len(got) == 4  # entry k is target k
        assert math.isnan(polyhedral_pivot(broken[1], 0.2))

    def test_default_cell_evaluations_are_bounded(self, monkeypatch):
        """20 default-cell polyhedral fits (seed 78) are inverted in one
        ``polyhedral_interval`` call, which evaluates the pivot or its probit
        at most 100 times, the bound of 5 per fit when each fit was inverted
        alone: a quadratically contracting Newton step is taken without a
        confirming call.  With every step confirmed, and the clip window
        that the inversion once had in a call of its own, the lone
        inversions took 126."""
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
        assert len(fits) == 1 and fits[0].sd.size == len(summary.rows)
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
        # probit, over a batch with saturated, full-line and far endpoints,
        # is evaluated once
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
        data = Dataset(y=y, X=X)
        # split's penalty is rho times the calibrated one: 0.8 sqrt(2 log(10) 64)
        cal = calibrate(data, ("split",), lam=math.sqrt(2 * math.log(10) * 64), rho=0.8)
        (E, a), (F, b) = (
            (fit.selected, fit.constants)
            for fit in (fit_method(data, cal, "split", "selected", 3) for _ in range(2))
        )
        assert E.tolist() == F.tolist() and repr(a) == repr(b)
        assert a.beta_hat.shape == a.sd.shape == E.shape
        assert all(0 <= j < 10 for j in E.tolist())
        assert np.isneginf(a.lower).all() and np.isposinf(a.upper).all()

    def test_bad_rho(self):
        rng = np.random.default_rng(10)
        data = Dataset(y=rng.standard_normal(10), X=rng.standard_normal((10, 2)))
        with pytest.raises(InvalidArgumentError):
            split_inference(data, rho=1.5, lam=1.0, seed=0)


def exact_over_uv_lengths(n, p, corr, rho, model, draws, sigma=1.0, alpha=0.1):
    """Each target's exact interval length over uv's, and the naive ratio
    ``sqrt(tau2 / (tau2 + s2))`` below it, on ``draws`` AR(corr) n x p
    designs with three signals and noise sd 1, known if ``sigma`` is 1.0 and
    unknown if it is None.  Both methods take the pipeline's noise variance
    s2 (``_post_sigma2``), so the naive ratio is ``sqrt(1 - rho)`` at known
    noise and per fit at unknown noise.  uv selects on its own draw w at the
    penalty and tau2 that ``calibrate`` gives both methods; the exact chain
    then randomizes by that draw, ``omega = X'w``, with uv's lasso (no
    ridge), and must select the same set and give every target its
    constants."""
    ratios, naive = [], []
    for draw in range(draws):
        X = generate_design(n, p, corr, draw)
        y, _ = generate_response(X, support_indices(p, 3), 0.75, 1.0, 1000 + draw)
        data = Dataset(y=y, X=X)
        cal = calibrate(data, ("exact", "uv"), rho=rho, sigma=sigma)
        uv = fit_method(data, cal, "uv", model, draw)
        E, bounds = uv.selected, uv.constants
        # uv's own draw of w, so that carving randomizes by the same X'w
        w = np.random.default_rng(draw).standard_normal(data.n) * math.sqrt(cal.tau2)
        out = solve_randomized_lasso(data, lam=cal.lam, epsilon=0.0, w=data.X.T @ w)
        assert out.selected.tolist() == E.tolist()
        if not E.size:
            continue
        rep = lasso_event_rep(data, out, lam=cal.lam, epsilon=0.0)
        target = build_target(data, E, model)
        geom = build_geometry(data, rep, cal.tau2, target)
        s2 = study._post_sigma2(data, cal, model, E)
        params, errors = pivot_params(geom, target, sigma=math.sqrt(s2))
        assert errors == [None] * E.size
        for exact, uv in zip(invert_pivot(params, alpha), z_interval(bounds, alpha)):
            ratios.append((exact.upper - exact.lower) / (uv.upper - uv.lower))
            naive.append(math.sqrt(cal.tau2 / (cal.tau2 + s2)))
    return np.array(ratios), np.array(naive)


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
        data = Dataset(y=y, X=X)
        cal = calibrate(data, ("uv",), lam=math.sqrt(2 * math.log(8) * 90), tau2=0.25, sigma=1.0)
        (E, a), (F, b) = (
            (fit.selected, fit.constants)
            for fit in (fit_method(data, cal, "uv", "selected", 7) for _ in range(2))
        )
        assert E.size and E.tolist() == F.tolist() and repr(a) == repr(b)
        assert np.isneginf(a.lower).all() and np.isposinf(a.upper).all()

    def test_selection_returns_its_draw(self):
        """uv's selection is the lasso on ``y + w``, w its own draw, and it
        returns X'w, from which ``fit_method`` builds the targets."""
        rng = np.random.default_rng(12)
        data = Dataset(y=rng.standard_normal(90), X=rng.standard_normal((90, 8)))
        lam = math.sqrt(2 * math.log(8) * 90)
        outcome, xtw = uv_inference(data, var_w=0.25, lam=lam, seed=7)
        w = np.random.default_rng(7).standard_normal(90) * 0.5
        assert np.array_equal(xtw, data.X.T @ w)
        want = solve_randomized_lasso(data, lam=lam, epsilon=0.0, w=data.X.T @ w)
        assert np.array_equal(outcome.active_solution, want.active_solution)
        assert outcome.selected.tolist() == want.selected.tolist()

    def test_the_exact_pivot_is_narrower_for_every_target(self):
        """The abstract's claim, target by target (``exact_over_uv_lengths``):
        every exact interval is shorter than uv's and no shorter than the
        naive one, ``sqrt(1 - rho)`` of uv's at known noise.  100 AR(0.5)
        100 x 10 designs, rho 0.5, alpha 0.1, with sigma 1 known and unknown.
        At unknown noise uv used to read another noise variance than exact,
        and 3 of its intervals were shorter."""
        rho = 0.5
        for sigma in (1.0, None):
            ratios, naive = exact_over_uv_lengths(100, 10, 0.5, rho, "selected", 100, sigma)
            assert ratios.size > 300
            assert (naive * (1.0 - 2e-14) <= ratios).all() and (ratios < 1.0).all()
            # sqrt(1 - rho) at known noise, and per fit at unknown noise
            assert (naive == math.sqrt(1.0 - rho)).all() == (sigma is not None)

    @pytest.mark.slow
    @pytest.mark.parametrize("n, p, corr, rho, model, sigma", [
        (300, 100, 0.9, 0.8, "selected", 1.0),
        (300, 100, 0.9, 0.95, "selected", 1.0),
        (300, 100, 0.5, 0.5, "selected", 1.0),
        (100, 10, 0.5, 0.5, "selected", 1.0),
        (100, 10, 0.5, 0.8, "selected", 1.0),
        (100, 10, 0.0, 0.95, "selected", 1.0),
        # n <= p: the exact method's base is X'X jittered, so the shared draw
        # X'w has its law only up to that jitter
        (60, 60, 0.5, 0.8, "selected", 1.0),
        (50, 80, 0.5, 0.8, "selected", 1.0),
        (100, 10, 0.5, 0.8, "full", 1.0),
        # unknown noise: the naive ratio is per fit
        (300, 100, 0.9, 0.8, "selected", None),
    ])
    def test_the_exact_pivot_is_narrower_on_every_cell(self, n, p, corr, rho, model, sigma):
        """The per-target bounds of the tier-1 test on 200 draws of each
        cell, taller and wider than square, for full-model targets, and at
        unknown noise."""
        ratios, naive = exact_over_uv_lengths(n, p, corr, rho, model, 200, sigma)
        assert ratios.size >= 500
        bound = naive if sigma is None else math.sqrt(1.0 - rho)
        assert (bound * (1.0 - 2e-14) <= ratios).all() and (ratios < 1.0).all()


class TestEqualColumns:
    """Two equal columns make the Gram singular, although its Cholesky
    factorization passes by rounding on this design; every least-squares
    fit on them raises ``SingularDesignError``.  How rounding factors the
    singular Gram depends on the BLAS kernel, so the tests that read that
    verdict run on the frozen outputs' platform (``pinned``)."""

    @staticmethod
    def data():
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 2))
        X[:, 1] = X[:, 0]
        cho_factor(X.T @ X)  # passes: no rank information
        return Dataset(y=rng.standard_normal(30), X=X)

    @pytest.mark.pinned
    def test_polyhedral_bounds(self):
        data = self.data()
        # contrasts the columns of X: their statistics X'X, diag(X'X) and X'y
        target = TargetSpec(data.X.T @ data.X, (data.X**2).sum(axis=0), data.y @ data.X)
        with pytest.raises(SingularDesignError, match="selected design is singular"):
            polyhedral_bounds(data, np.array([0, 1]), np.array([1.0, 1.0]), 1.0, target, 1.0)

    def test_inactive_copy_of_a_selected_column(self):
        """``duplicated_column_frame``, x29 a copy of x0, at the ``infer
        --rho 0.8`` calibration: the lasso selects one of the two, and the
        other's two subgradient rows are identically zero, one with zero
        slack, in exact arithmetic.  Every polyhedral target fails as the
        event's violated constraint, whatever the BLAS kernel leaves in the
        last bits of that row's coefficient (0 or 3e-16 at x0's target) and
        slack (-2e-16 or 2e-15), where x0's target alone once failed and
        only under some kernels."""
        y, X = duplicated_column_frame()
        data = Dataset(y=y, X=X)
        fit = fit_method(data, calibrate(data, ("polyhedral",), rho=0.8), "polyhedral",
                         "selected", 3)
        assert len({0, 29} & set(fit.selected.tolist())) == 1 and fit.selected.size == 5
        assert [str(e) for e in fit.errors] == [
            "a constraint orthogonal to the target direction is violated"
        ] * 5

    @pytest.mark.pinned
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
        cal = calibrate(data, ("split",), lam=2.0, rho=0.5)  # split's penalty is rho lam = 1
        fit = fit_method(data, cal, "split", "selected", 0)
        assert fit.selected.tolist() == [0, 1] and len(fit.errors) == 2
        assert all(
            isinstance(e, SingularDesignError) and "is singular" in str(e) for e in fit.errors
        )


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
            IntervalEstimate(lower=1.0, upper=0.0)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, math.nan])
@pytest.mark.parametrize("invert", [z_interval, polyhedral_interval, invert_pivot])
def test_every_inversion_checks_its_level(invert, alpha):
    """Each inversion rejects a level outside (0, 1) with the one message of
    ``check_level``; unchecked, ``z_interval`` gave (-inf, inf) at 0 and an
    endpoint-order error for every target at 1.5 or NaN."""
    record = toy_params() if invert is invert_pivot else PolyhedralBounds(
        lower=-math.inf, upper=math.inf, beta_hat=0.3, sd=2.0
    )
    with pytest.raises(InvalidArgumentError, match=r"^alpha must lie in \(0, 1\)$"):
        invert(record, alpha)


@pytest.mark.parametrize("alpha", [1e-300, 1e-16, 2.0**-53])
@pytest.mark.parametrize("invert", [z_interval, polyhedral_interval, invert_pivot])
def test_every_inversion_rejects_a_level_with_an_infinite_quantile(invert, alpha):
    """At or below 2**-53, ``1 - alpha / 2`` rounds to 1 and its normal
    quantile is infinite.  Unchecked, split and uv intervals were (-inf,
    inf), which the CLI's strict JSON writer then refused with a traceback;
    exact endpoints could not start and polyhedral ones were clipped."""
    record = toy_params() if invert is invert_pivot else PolyhedralBounds(
        lower=-math.inf, upper=math.inf, beta_hat=0.3, sd=2.0
    )
    with pytest.raises(InvalidArgumentError, match=r"^alpha must exceed 2\*\*-53, or 1 - alpha / 2 rounds to 1$"):
        invert(record, alpha)


def test_smallest_level_gives_finite_intervals():
    """Just above 2**-53 the quantile is finite, and so is every endpoint."""
    alpha = 1.2e-16
    assert 1.0 - alpha / 2.0 < 1.0
    (est,) = z_interval(PolyhedralBounds(-math.inf, math.inf, 0.3, 2.0), alpha)
    assert math.isfinite(est.lower) and math.isfinite(est.upper)
    assert est.upper - 0.3 == pytest.approx(2.0 * float(ndtri(1.0 - alpha / 2.0)))
