import math

import numpy as np
import pytest
from conftest import (
    carving_fit,
    carving_pivot_params,
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

from exactsi.conditioning import (
    TargetSpec,
    build_geometry,
    build_target,
    factor_randomization,
    target_basis,
)
from exactsi import inference
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
    lasso_polyhedron,
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
    RandomizationScheme,
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


def exact_targets(data, out, rep, omega, sigma=1.0):
    """Every target's exact-pivot constants, built together as a fit builds them."""
    cond = factor_randomization(rep, omega)
    target = build_target(target_basis(data, out, "selected"))
    params, errors = pivot_params(data, cond, build_geometry(cond, target), target, sigma=sigma)
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
            data, out, rep, omega, lam, tau2 = carving_fit(rng)
            every = exact_targets(data, out, rep, omega)
            targets = build_target(target_basis(data, out, "selected"))
            for j in range(out.selected.size):
                generic = take(every, j)
                target = TargetSpec(targets.contrast[:, j], float(targets.norm2[j]))
                closed = carving_pivot_params(data, out, target, j, 1.0, tau2, lam)
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
        omega = RandomizationScheme(tau2=tau2).covariance(X)
        params = take(exact_targets(data, out, rep, omega), 0)
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
            data, out, rep, omega, _, _ = carving_fit(rng)
            j = int(rng.integers(out.selected.size))
            params = take(exact_targets(data, out, rep, omega), j)
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
            data, out, rep, omega, _, _ = carving_fit(rng)
            params = take(exact_targets(data, out, rep, omega), 0)
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
        target = build_target(target_basis(data, out, "selected"))
        beta_hat = float(target.contrast[:, 0] @ y)
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
        target = build_target(target_basis(data, out, "selected"))
        poly = lasso_polyhedron(data, out.selected, -out.signs, lam)
        _, errors = polyhedral_bounds(data, poly, target, 1.0)
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
            target = build_target(target_basis(data, out, "selected"))
            bounds = polyhedral_targets(data, out, lam)
            for j in range(out.selected.size):
                targets += 1
                c, norm2 = target.contrast[:, j], target.norm2[j]
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


def polyhedral_targets(data, out, lam):
    """Every target's polyhedral bounds, built together as a fit builds them."""
    target = build_target(target_basis(data, out, "selected"))
    poly = lasso_polyhedron(data, out.selected, out.signs, lam)
    bounds, errors = polyhedral_bounds(data, poly, target, 1.0)
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
            data, out, rep, omega, _, _ = carving_fit(rng, min_selected=2)
            params = exact_targets(data, out, rep, omega)
            got = invert_pivot(params, 0.1, [int(e) for e in out.selected])
            for k, (est, label) in enumerate(zip(got, out.selected)):
                assert_agrees(est, reference_invert_pivot, take(params, k))
                assert est.target_label == label and est.method == "exact"
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
        data, out, rep, omega, _, _ = carving_fit(rng)
        real = exact_targets(data, out, rep, omega)
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
        data, out, rep, omega, _, _ = carving_fit(rng, min_selected=3)
        params = exact_targets(data, out, rep, omega)
        clean = invert_pivot(params, alpha=0.1)
        flat = params.beta_hat_j[1]
        real = inference.exact_pivot

        def stuck(batch, beta0):
            # target 1's pivot never leaves 0.5, so no bracket straddles 0.95
            return np.where(batch.beta_hat_j == flat, 0.5, real(batch, beta0))

        monkeypatch.setattr(inference, "exact_pivot", stuck)
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

    def test_empty_batch(self):
        none = np.zeros(0)
        assert invert_pivot(PivotParams(*[none] * 8), alpha=0.1) == []
        assert polyhedral_interval(PolyhedralBounds(*[none] * 4), alpha=0.1) == []

    @PROPERTY_SETTINGS
    @given(st.lists(model_pivot_params(), min_size=1, max_size=4))
    def test_stacked_record_matches_scalar_reference(self, each):
        got = invert_pivot(stack(each), alpha=0.1)
        assert len(got) == len(each)
        for est, params in zip(got, each):
            assert_agrees(est, reference_invert_pivot, params)


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
        assert all(e.method == "split" for e in a)

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
        assert all(e.method == "uv" for e in a)


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

    def test_lasso_polyhedron(self):
        with pytest.raises(SingularDesignError, match="selected design is rank deficient"):
            lasso_polyhedron(self.data(), np.array([0, 1]), np.array([1.0, 1.0]), 1.0)

    def test_selected_plug_in(self):
        with pytest.raises(SingularDesignError, match="plug-in design is rank deficient"):
            plug_in_sigma2(self.data(), np.array([0, 1]), "selected")

    def test_held_out_least_squares(self):
        data = self.data()
        with pytest.raises(SingularDesignError, match="held-out design is rank deficient"):
            inference._ls_z_intervals(data.y, data.X, np.array([0, 1]), 1.0, 0.1, "split")


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
            IntervalEstimate(lower=1.0, upper=0.0, target_label=0, method="exact")
