import math

import numpy as np
import pytest
from conftest import carving_fit, carving_pivot_params, oracle_pivot, toy_fit
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from exactsi.conditioning import (
    build_geometry,
    build_target,
    factor_randomization,
    target_basis,
)
from exactsi.errors import GeometryInconsistencyError, InvalidArgumentError
from exactsi.inference import (
    IntervalEstimate,
    PivotParams,
    PolyhedralBounds,
    exact_pivot,
    invert_pivot,
    lambda_delta,
    lasso_polyhedron,
    pivot_params,
    plug_in_sigma2,
    polyhedral_bounds,
    polyhedral_interval,
    polyhedral_pivot,
    split_inference,
    uv_inference,
)
from exactsi.numerics import FULL_LINE, Interval
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


def toy_pivot_setup():
    data, out, rep, omega = toy_fit()
    cond = factor_randomization(rep, omega)
    target = build_target(target_basis(data, out, "selected"), 0)
    geom = build_geometry(cond, target)
    params = pivot_params(data, cond, geom, target, sigma=1.0)
    return data, out, rep, cond, target, geom, params


class TestLambdaDelta:
    def test_toy_theta_intercept(self):
        data, out, rep, cond, target, geom, params = toy_pivot_setup()
        gamma = np.zeros(2)
        lam_val, delta = lambda_delta(gamma, rep.sub, cond, geom)
        assert float(geom.rj @ delta) == pytest.approx(1.0, abs=1e-10)
        assert lam_val == pytest.approx(1.0, abs=1e-10)

    def test_zero_inputs_zero_output(self):
        data, out, rep, cond, target, geom, _ = toy_pivot_setup()
        rep.T = np.zeros_like(rep.T)
        lam_val, delta = lambda_delta(np.zeros(2), rep.sub, cond, geom)
        assert lam_val == 0.0
        assert np.allclose(delta, 0.0)

    def test_affine_in_response(self):
        rng = np.random.default_rng(0)
        data, out, rep, omega, _, _ = carving_fit(rng)
        cond = factor_randomization(rep, omega)
        target = build_target(target_basis(data, out, "selected"), 0)
        geom = build_geometry(cond, target)
        v1 = rng.standard_normal(data.n)
        v2 = rng.standard_normal(data.n)
        l0, d0 = lambda_delta(np.zeros(data.n), rep.sub, cond, geom)
        l1, d1 = lambda_delta(v1, rep.sub, cond, geom)
        l2, d2 = lambda_delta(v2, rep.sub, cond, geom)
        l12, d12 = lambda_delta(v1 + v2, rep.sub, cond, geom)
        assert l12 + l0 == pytest.approx(l1 + l2, rel=1e-10, abs=1e-12)
        assert np.allclose(d12 + d0, d1 + d2, atol=1e-10)


class TestPivotParams:
    def test_toy_constants(self):
        _, _, _, _, _, _, params = toy_pivot_setup()
        assert params.vartheta2 == pytest.approx(1.0, abs=1e-10)
        assert params.sigma_j2 == pytest.approx(1.0, abs=1e-10)
        assert params.lambda_j == pytest.approx(1.0, abs=1e-10)
        assert params.zeta_j == pytest.approx(0.0, abs=1e-10)
        assert params.theta_intercept == pytest.approx(1.0, abs=1e-10)
        assert params.beta_hat_j == pytest.approx(2.0)

    def test_generic_matches_carving_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            data, out, rep, omega, lam, tau2 = carving_fit(rng)
            cond = factor_randomization(rep, omega)
            basis = target_basis(data, out, "selected")
            for j in range(out.selected.size):
                target = build_target(basis, j)
                geom = build_geometry(cond, target)
                generic = pivot_params(data, cond, geom, target, sigma=1.0)
                closed = carving_pivot_params(data, out, target, j, 1.0, tau2, lam)
                assert generic.vartheta2 == pytest.approx(closed.vartheta2, rel=1e-8)
                assert generic.sigma_j2 == pytest.approx(closed.sigma_j2, rel=1e-8)
                assert generic.lambda_j == pytest.approx(1.0, rel=1e-8)
                assert abs(generic.zeta_j) < 1e-8 * max(1, abs(generic.beta_hat_j))
                assert generic.theta_intercept == pytest.approx(
                    closed.theta_intercept, rel=1e-8, abs=1e-10
                )
                assert generic.interval.lower == pytest.approx(
                    closed.interval.lower, rel=1e-8, abs=1e-8
                )
                assert generic.interval.upper == pytest.approx(
                    closed.interval.upper, rel=1e-8, abs=1e-8
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
        cond = factor_randomization(rep, omega)
        target = build_target(target_basis(data, out, "selected"), 0)
        geom = build_geometry(cond, target)
        params = pivot_params(data, cond, geom, target, sigma=1.0)
        # hand algebra at p=1 with ||x|| = 1: Theta = tau2/(1+eps)^2,
        # r = -(1+eps)/tau2, so the weight variance is exactly 1/tau2
        assert params.vartheta2 == pytest.approx(1.0 / tau2, rel=1e-10)


class TestExactPivot:
    def test_full_line_reduces_to_gaussian_cdf(self):
        _, _, _, _, _, _, params = toy_pivot_setup()
        forced = PivotParams(
            vartheta2=params.vartheta2,
            sigma_j2=params.sigma_j2,
            lambda_j=params.lambda_j,
            zeta_j=params.zeta_j,
            theta_intercept=params.theta_intercept,
            interval=FULL_LINE,
            beta_hat_j=params.beta_hat_j,
        )
        assert exact_pivot(forced, 2.0) == pytest.approx(0.5, abs=1e-9)
        assert exact_pivot(forced, 1.0) == pytest.approx(float(ndtr(1.0)), abs=1e-9)

    def test_toy_rejection_oracle(self):
        # at beta0 = 1 the ratio is P(X<=2, X-Z>=1)/P(X-Z>=1) for independent
        # X ~ N(1,1), Z ~ N(0,1), which collapses to Phi(1)^2
        _, _, _, _, _, _, params = toy_pivot_setup()
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
            cond = factor_randomization(rep, omega)
            target = build_target(target_basis(data, out, "selected"), j)
            geom = build_geometry(cond, target)
            params = pivot_params(data, cond, geom, target, sigma=1.0)
            sd = math.sqrt(params.sigma_j2)
            grid = params.beta_hat_j + sd * np.linspace(-8, 8, 161)
            vals = np.array([exact_pivot(params, float(b)) for b in grid])
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
            cond = factor_randomization(rep, omega)
            target = build_target(target_basis(data, out, "selected"), 0)
            geom = build_geometry(cond, target)
            params = pivot_params(data, cond, geom, target, sigma=1.0)
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
        params = fit.constants(j)
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
    interval = draw(
        st.sampled_from(
            [
                Interval(edge, edge + width),
                Interval(edge, math.inf),
                Interval(-math.inf, edge),
                FULL_LINE,
            ]
        )
    )
    return PivotParams(
        vartheta2=vartheta2,
        sigma_j2=sigma_j2,
        lambda_j=lambda_j,
        zeta_j=zeta_j,
        theta_intercept=theta_intercept,
        interval=interval,
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
        grid = [beta0_at(params, k) for k in np.linspace(-25, 25, 201)]
        vals = np.array([exact_pivot(params, b0) for b0 in grid])
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


class TestInvertPivot:
    def test_full_line_gives_classical_z_interval(self):
        _, _, _, _, _, _, params = toy_pivot_setup()
        forced = PivotParams(
            vartheta2=params.vartheta2,
            sigma_j2=1.0,
            lambda_j=1.0,
            zeta_j=0.0,
            theta_intercept=params.theta_intercept,
            interval=FULL_LINE,
            beta_hat_j=2.0,
        )
        est = invert_pivot(forced, alpha=0.1)
        z = float(ndtri(0.95))
        assert est.lower == pytest.approx(2.0 - z, abs=1e-6)
        assert est.upper == pytest.approx(2.0 + z, abs=1e-6)

    def test_endpoints_reproduce_tail_targets(self):
        _, _, _, _, _, _, params = toy_pivot_setup()
        est = invert_pivot(params, alpha=0.1)
        assert exact_pivot(params, est.lower) == pytest.approx(0.95, abs=1e-6)
        assert exact_pivot(params, est.upper) == pytest.approx(0.05, abs=1e-6)
        assert est.covers(params.beta_hat_j)

    def test_nesting(self):
        _, _, _, _, _, _, params = toy_pivot_setup()
        wide = invert_pivot(params, alpha=0.05)
        narrow = invert_pivot(params, alpha=0.10)
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
        target = build_target(target_basis(data, out, "selected"), 0)
        beta_hat = float(target.contrast @ y)
        h_minus = lam / float(x @ x)
        sd = math.sqrt(target.norm2)
        poly = lasso_polyhedron(data, out.selected, out.signs, lam)
        for beta0 in (0.0, 1.0, 2.5):
            want_num = ndtr((beta_hat - beta0) / sd) - ndtr((h_minus - beta0) / sd)
            want_den = 1.0 - ndtr((h_minus - beta0) / sd)
            bounds = polyhedral_bounds(data, poly, target, 1.0)
            got = polyhedral_pivot(bounds, beta0)
            assert got == pytest.approx(want_num / want_den, abs=1e-10)

    def test_interval_self_consistency(self):
        rng = np.random.default_rng(7)
        data, out, lam = standard_lasso_fit(rng)
        target = build_target(target_basis(data, out, "selected"), 0)
        poly = lasso_polyhedron(data, out.selected, out.signs, lam)
        bounds = polyhedral_bounds(data, poly, target, 1.0)
        est = polyhedral_interval(bounds, alpha=0.1, target_label=0)
        if not est.clipped:
            lo_p = polyhedral_pivot(bounds, est.lower)
            hi_p = polyhedral_pivot(bounds, est.upper)
            assert lo_p == pytest.approx(0.95, abs=1e-6)
            assert hi_p == pytest.approx(0.05, abs=1e-6)

    def test_tampered_signs_detected(self):
        rng = np.random.default_rng(8)
        data, out, lam = standard_lasso_fit(rng)
        target = build_target(target_basis(data, out, "selected"), 0)
        poly = lasso_polyhedron(data, out.selected, -out.signs, lam)
        with pytest.raises(GeometryInconsistencyError):
            polyhedral_bounds(data, poly, target, 1.0)

    def test_estimate_on_a_bound_gives_ordered_unclipped_interval(self):
        # beta_hat 1e-3 sd above its lower bound: both endpoints lie more than
        # 50 sd below beta_hat, so clipping the lower one would put it above
        # the upper one
        bounds = PolyhedralBounds(lower=0.0, upper=math.inf, beta_hat=1e-3, sd=1.0)
        est = polyhedral_interval(bounds, alpha=0.1)
        assert est.lower < est.upper < bounds.beta_hat - 50.0
        assert not est.clipped
        assert polyhedral_pivot(bounds, est.lower) == pytest.approx(0.95, abs=1e-6)
        assert polyhedral_pivot(bounds, est.upper) == pytest.approx(0.05, abs=1e-6)
        mirror = PolyhedralBounds(lower=-math.inf, upper=0.0, beta_hat=-1e-3, sd=1.0)
        est = polyhedral_interval(mirror, alpha=0.1)
        assert mirror.beta_hat + 50.0 < est.lower < est.upper
        assert not est.clipped


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

    def test_interval_estimate_validation(self):
        with pytest.raises(InvalidArgumentError):
            IntervalEstimate(lower=1.0, upper=0.0, target_label=0, method="exact")
