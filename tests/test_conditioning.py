import math

import numpy as np
import pytest
from conftest import carving_fit, toy_fit

from exactsi.conditioning import (
    build_geometry,
    build_target,
    factor_randomization,
    target_basis,
)
from exactsi.errors import GeometryInconsistencyError, InvalidArgumentError
from exactsi.selection import Dataset, solve_randomized_lasso


class TestBuildTarget:
    def test_toy_contrast(self):
        data, out, _, _ = toy_fit()
        t = build_target(target_basis(data, out, "selected"), 0)
        assert np.allclose(t.contrast, [1.0, 0.0])
        assert t.norm2 == pytest.approx(1.0)

    def test_orthonormal_selected_columns(self):
        rng = np.random.default_rng(0)
        X, _ = np.linalg.qr(rng.standard_normal((15, 4)))
        y = X @ np.array([3.0, -2.5, 0.0, 0.0]) + 0.1 * rng.standard_normal(15)
        data = Dataset(y=y, X=X)
        out = solve_randomized_lasso(data, lam=0.5, epsilon=0.0, w=np.zeros(4))
        for j in range(out.selected.size):
            t = build_target(target_basis(data, out, "selected"), j)
            assert np.allclose(t.contrast, X[:, out.selected[j]], atol=1e-10)

    def test_full_and_selected_agree_when_everything_selected(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 3))
        y = X @ np.array([4.0, -5.0, 3.5]) + 0.1 * rng.standard_normal(30)
        data = Dataset(y=y, X=X)
        out = solve_randomized_lasso(data, lam=0.4, epsilon=0.0, w=np.zeros(3))
        assert out.selected.size == 3
        for j in range(3):
            a = build_target(target_basis(data, out, "selected"), j)
            b = build_target(target_basis(data, out, "full"), j)
            assert np.allclose(a.contrast, b.contrast, atol=1e-10)

    def test_bad_index(self):
        data, out, _, _ = toy_fit()
        with pytest.raises(InvalidArgumentError):
            build_target(target_basis(data, out, "selected"), 5)


class TestBuildGeometry:
    def test_toy_hand_values(self):
        data, out, rep, omega = toy_fit()
        t = build_target(target_basis(data, out, "selected"), 0)
        g = build_geometry(factor_randomization(rep, omega), t)
        assert g.Theta[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert g.rj[0] == pytest.approx(-1.0, abs=1e-10)
        assert g.Qj[0] == pytest.approx(-1.0, abs=1e-10)
        assert g.A_obs[0] == pytest.approx(0.0, abs=1e-12)
        assert g.interval.lower == -math.inf
        assert g.interval.upper == pytest.approx(0.0, abs=1e-12)
        assert g.interval.contains(float(g.rj @ rep.opt))

    def test_single_feature_positive_sign_cone(self):
        data, out, rep, omega = toy_fit()
        t = build_target(target_basis(data, out, "selected"), 0)
        g = build_geometry(factor_randomization(rep, omega), t)
        # translate the interval on rj'O back to the O1 axis: strictly positive
        assert g.rj[0] < 0
        lo = g.interval.upper / g.rj[0]
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert g.interval.lower == -math.inf  # O1 unbounded above

    def test_basic_identities(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            data, out, rep, omega, _, _ = carving_fit(rng)
            t = build_target(target_basis(data, out, "selected"), 0)
            g = build_geometry(factor_randomization(rep, omega), t)
            assert abs(g.rj @ g.Qj - 1.0) < 1e-10
            assert abs(g.rj @ g.A_obs) < 1e-8 * max(np.linalg.norm(rep.opt), 1.0)
            observed = float(g.rj @ rep.opt)
            assert g.interval.lower < observed < g.interval.upper

    def test_carving_closed_forms(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            data, out, rep, omega, lam, tau2 = carving_fit(rng)
            XE = data.X[:, out.selected]
            theta_cf = tau2 * np.linalg.inv(XE.T @ XE)
            cond = factor_randomization(rep, omega)
            basis = target_basis(data, out, "selected")
            for j in range(out.selected.size):
                t = build_target(basis, j)
                theta, rj = cond.Theta, build_geometry(cond, t).rj
                assert np.allclose(theta, theta_cf, rtol=1e-8, atol=1e-10)
                rj_cf = np.zeros(out.selected.size)
                rj_cf[j] = -1.0 / (tau2 * t.norm2)
                assert np.allclose(rj, rj_cf, rtol=1e-8, atol=1e-8 * abs(rj_cf[j]))

    def test_event_equivalence_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            data, out, rep, omega, _, _ = carving_fit(rng)
            j = int(rng.integers(out.selected.size))
            t = build_target(target_basis(data, out, "selected"), j)
            g = build_geometry(factor_randomization(rep, omega), t)
            observed = float(g.rj @ rep.opt)
            span = 4.0 * (abs(observed) + 1.0)
            zs = rng.uniform(observed - span, observed + span, size=1000)
            for z in zs:
                o_prime = g.A_obs + g.Qj * z
                member = bool((rep.L @ o_prime < rep.M).all())
                inside = g.interval.lower < z < g.interval.upper
                if member != inside:
                    dist = min(abs(z - g.interval.lower), abs(z - g.interval.upper))
                    assert dist <= 1e-10 * max(1.0, abs(z))

    def test_tampered_solution_detected(self):
        data, out, rep, omega = toy_fit()
        t = build_target(target_basis(data, out, "selected"), 0)
        rep.opt = np.array([-0.5])  # violates its own sign constraint
        with pytest.raises(GeometryInconsistencyError):
            build_geometry(factor_randomization(rep, omega), t)


class TestAEta:
    def test_matches_geometry_complement(self):
        # A_eta = O - Theta eta (eta'O) / (eta'Theta eta) at eta = rj
        rng = np.random.default_rng(6)
        data, out, rep, omega, _, _ = carving_fit(rng, min_selected=2)
        t = build_target(target_basis(data, out, "selected"), 1)
        g = build_geometry(factor_randomization(rep, omega), t)
        eta = g.rj
        comp = rep.opt - (g.Theta @ eta) * (eta @ rep.opt) / float(eta @ g.Theta @ eta)
        assert np.allclose(comp, g.A_obs, atol=1e-10)
