import math
from dataclasses import fields

import numpy as np
import pytest
from conftest import carving_fit, carving_line, carving_pivot_params, explicit_contrasts, toy_fit

from exactsi import numerics
from exactsi.conditioning import ConditioningGeometry, build_geometry, build_target
from exactsi.errors import (
    GeometryInconsistencyError,
    NumericalDegeneracyError,
    SingularDesignError,
)
from exactsi.selection import Dataset, solve_randomized_lasso
from exactsi.study import calibrate, randomized_selection

# the geometry's per-target vectors: every field but ``errors``
FIELDS = [f.name for f in fields(ConditioningGeometry) if f.name != "errors"]


def fit_geometry(data, out, rep, tau2):
    """The geometry of every target of a fit, as the fit builds it."""
    return build_geometry(data, rep, tau2, build_target(data, out.selected, "selected"))


def assert_statistics(data, t, contrast):
    """``t`` carries X'c, ||c||^2 and c'y of each column c of ``contrast``."""
    assert np.allclose(t.xtc, data.X.T @ contrast, rtol=1e-8, atol=1e-10)
    assert np.allclose(t.norm2, (contrast**2).sum(axis=0), rtol=1e-8, atol=1e-10)
    assert np.allclose(t.estimate, data.y @ contrast, rtol=1e-8, atol=1e-10)


def take_column(t, j):
    """Target j of ``t`` alone, as a one-target ``TargetSpec``."""
    return type(t)(t.xtc[:, j : j + 1], t.norm2[j : j + 1], t.estimate[j : j + 1])


class TestBuildTarget:
    def test_toy_contrast(self):
        data, out, _, _ = toy_fit()
        t = build_target(data, out.selected, "selected")
        assert_statistics(data, t, np.array([[1.0], [0.0]]))
        assert t.xtc == pytest.approx(np.array([[1.0]]))
        assert t.norm2 == pytest.approx([1.0])
        assert t.estimate == pytest.approx([2.0])

    def test_orthonormal_selected_columns(self):
        rng = np.random.default_rng(0)
        X, _ = np.linalg.qr(rng.standard_normal((15, 4)))
        y = X @ np.array([3.0, -2.5, 0.0, 0.0]) + 0.1 * rng.standard_normal(15)
        data = Dataset(y=y, X=X)
        out = solve_randomized_lasso(data, lam=0.5, epsilon=0.0, w=np.zeros(4))
        t = build_target(data, out.selected, "selected")
        assert_statistics(data, t, X[:, out.selected])
        assert np.allclose(t.norm2, 1.0, atol=1e-10)

    def test_full_and_selected_agree_when_everything_selected(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 3))
        y = X @ np.array([4.0, -5.0, 3.5]) + 0.1 * rng.standard_normal(30)
        data = Dataset(y=y, X=X)
        out = solve_randomized_lasso(data, lam=0.4, epsilon=0.0, w=np.zeros(3))
        assert out.selected.size == 3
        a = build_target(data, out.selected, "selected")
        b = build_target(data, out.selected, "full")
        for field in ("xtc", "norm2", "estimate"):
            assert np.allclose(getattr(a, field), getattr(b, field), atol=1e-10)
        assert_statistics(data, a, explicit_contrasts(data, out.selected, "full"))

    def test_one_column_per_selected_coordinate(self):
        rng = np.random.default_rng(5)
        data, out, _, _, _ = carving_fit(rng, min_selected=2)
        E = out.selected
        for model, design, columns in (
            ("selected", data.X[:, E], np.arange(E.size)), ("full", data.X, E)
        ):
            t = build_target(data, out.selected, model)
            assert t.xtc.shape == (data.p, E.size)
            assert t.norm2.shape == t.estimate.shape == (E.size,)
            # column j carries the contrast of selected coordinate j alone
            for j, col in enumerate(columns):
                unit = np.zeros(design.shape[1])
                unit[col] = 1.0
                alone = design @ np.linalg.solve(design.T @ design, unit)
                assert_statistics(data, take_column(t, j), alone[:, None])

    @pytest.mark.parametrize("model", ["selected", "full"])
    def test_reads_neither_X_nor_y_on_a_warm_dataset(self, model):
        """Once the Gram, X'y and the factor are cached, the statistics come
        from them alone, and match the explicit n-row contrasts."""
        rng = np.random.default_rng(7)
        data, out, _, _, _ = carving_fit(rng, n=60, p=12, min_selected=2)
        contrast = explicit_contrasts(data, out.selected, model)
        want = (data.X.T @ contrast, (contrast**2).sum(axis=0), data.y @ contrast)
        build_target(data, out.selected, model)  # warms the dataset's caches
        object.__setattr__(data, "X", None)
        object.__setattr__(data, "y", None)
        t = build_target(data, out.selected, model)
        for got, expected in zip((t.xtc, t.norm2, t.estimate), want):
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


class TestBuildGeometry:
    def test_toy_hand_values(self):
        """Toy: Pj = rj = Qj = -1, Theta = vartheta2 = 1, O = 1.5 and core =
        1, so the mean shift, ``rj' delta`` and ``Pj' Omega^{-1} Pj`` are 1
        and the sign cone O > 0 is ``rj'O < 0``; the closed form agrees."""
        data, out, rep, tau2 = toy_fit()
        g = fit_geometry(data, out, rep, tau2)
        assert g.vartheta2[0] == pytest.approx(1.0, abs=1e-10)
        assert g.theta_intercept[0] == pytest.approx(1.0, abs=1e-10)
        assert g.mean_shift[0] == pytest.approx(1.0, abs=1e-10)
        assert g.pj_quad[0] == pytest.approx(1.0, abs=1e-10)
        assert g.lower[0] == -math.inf
        assert g.upper[0] == pytest.approx(0.0, abs=1e-12)
        _, r_obs, _ = carving_line(data, out, 0, tau2)
        assert g.lower[0] < r_obs < g.upper[0]
        assert g.errors == [None]
        closed = carving_pivot_params(data, out, 0, 1.0, tau2, 1.0)
        assert g.vartheta2[0] == pytest.approx(closed.vartheta2, abs=1e-10)
        assert g.theta_intercept[0] == pytest.approx(closed.theta_intercept, abs=1e-10)
        assert (g.lower[0], g.upper[0]) == pytest.approx((closed.lower, closed.upper), abs=1e-12)

    def test_single_feature_positive_sign_cone(self):
        data, out, rep, tau2 = toy_fit()
        g = fit_geometry(data, out, rep, tau2)
        qj, _, A = carving_line(data, out, 0, tau2)
        # translate the interval on rj'O back to the O1 axis, O1 = A + qj t:
        # strictly positive
        assert qj[0] < 0
        lo = A[0] + qj[0] * g.upper[0]
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert g.lower[0] == -math.inf  # O1 unbounded above

    def test_basic_identities(self):
        """With no ridge, the estimate's law is the noise's: ``pj_quad`` is
        ``vartheta2`` and the mean shift is the intercept (``lambda_j = 1``,
        ``zeta_j = 0``), and the observed combination lies inside its
        interval."""
        rng = np.random.default_rng(2)
        for _ in range(20):
            data, out, rep, _, tau2 = carving_fit(rng)
            g = fit_geometry(data, out, rep, tau2)
            assert g.errors == [None] * out.selected.size
            assert np.allclose(g.pj_quad, g.vartheta2, rtol=1e-10, atol=0)
            scale = np.maximum(np.abs(g.theta_intercept), 1.0)
            assert np.all(np.abs(g.mean_shift - g.theta_intercept) < 1e-10 * scale)
            observed = [carving_line(data, out, j, tau2)[1] for j in range(out.selected.size)]
            assert np.all((g.lower < observed) & (observed < g.upper))

    def test_carving_closed_forms(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            data, out, rep, lam, tau2 = carving_fit(rng)
            g = fit_geometry(data, out, rep, tau2)
            for j in range(out.selected.size):
                closed = carving_pivot_params(data, out, j, 1.0, tau2, lam)
                for name in ("vartheta2", "theta_intercept", "lower", "upper"):
                    got, want = getattr(g, name)[j], getattr(closed, name)
                    assert np.allclose(got, want, rtol=1e-8, atol=1e-10), (name, got, want)

    def test_event_equivalence_brute_force(self):
        """Along the closed form's line ``A + qj z``, the sign pattern holds
        exactly on the geometry's interval of target j."""
        rng = np.random.default_rng(4)
        for _ in range(10):
            data, out, rep, _, tau2 = carving_fit(rng)
            j = int(rng.integers(out.selected.size))
            g = fit_geometry(data, out, rep, tau2)
            lower, upper = g.lower[j], g.upper[j]
            Qj, observed, A_obs = carving_line(data, out, j, tau2)
            span = 4.0 * (abs(observed) + 1.0)
            zs = rng.uniform(observed - span, observed + span, size=1000)
            for z in zs:
                o_prime = A_obs + Qj * z
                member = bool((np.sign(o_prime) == out.signs).all())
                inside = lower < z < upper
                if member != inside:
                    dist = min(abs(z - lower), abs(z - upper))
                    assert dist <= 1e-10 * max(1.0, abs(z))

    def test_tampered_solution_detected(self):
        data, out, rep, tau2 = toy_fit()
        t = build_target(data, out.selected, "selected")
        rep.opt = np.array([-0.5])  # violates its own sign constraint
        (error,) = build_geometry(data, rep, tau2, t).errors
        assert isinstance(error, GeometryInconsistencyError)


class TestAEta:
    def test_matches_geometry_complement(self):
        # A_eta = O - Theta eta (eta'O) / (eta'Theta eta) at eta = rj, from the
        # closed forms Theta = tau2 G_EE^{-1} and rj = -e_j / (tau2 ||c||^2)
        rng = np.random.default_rng(6)
        data, out, rep, _, tau2 = carving_fit(rng, min_selected=2)
        g = fit_geometry(data, out, rep, tau2)
        XE = data.X[:, out.selected]
        theta = tau2 * np.linalg.inv(XE.T @ XE)
        eta = -np.eye(out.selected.size)[:, 1] / theta[1, 1]
        comp = rep.opt - (theta @ eta) * (eta @ rep.opt) / float(eta @ theta @ eta)
        assert np.allclose(comp, carving_line(data, out, 1, tau2)[2], atol=1e-10)
        assert g.vartheta2[1] == pytest.approx(float(eta @ theta @ eta), rel=1e-12)


@pytest.mark.parametrize("n, p", [(60, 20), (30, 60)])
def test_one_entry_per_target(n, p):
    """Every field but ``errors`` has one entry per target, at n > p and at
    p > n, where the lasso's ridge and the jittered randomization base apply."""
    rng = np.random.default_rng(9)
    X = rng.standard_normal((n, p))
    y = X[:, :4] @ np.array([3.0, -3.0, 2.5, 2.5]) + rng.standard_normal(n)
    data = Dataset(y=y, X=X)
    cal = calibrate(data, ("exact",), rho=0.8)
    assert (cal.epsilon > 0, data.factor() is data.factor(np.arange(p))) == (p > n, p < n)
    out, rep = randomized_selection(data, cal, 3)
    k = out.selected.size
    assert k >= 2
    g = fit_geometry(data, out, rep, cal.tau2)
    assert {name: np.shape(getattr(g, name)) for name in FIELDS} == dict.fromkeys(FIELDS, (k,))
    assert g.errors == [None] * k


class TestFactorSpd:
    @staticmethod
    def pair(r, size, units):
        """``[[1, -r], [-r, 1]]`` in the first and last rows and columns of an
        identity of ``size``, rows and columns multiplied by ``units``: its
        1-norm condition scaled to unit diagonal is ``(1 + r) / (1 - r)``.
        ``dpocon``'s estimate is a lower bound, which the negative coupling
        makes exact: the inverse times its first probe, the ones vector, is
        largest on the pair, so it next takes the pair's column of the
        inverse, whose 1-norm is the largest."""
        mat = np.eye(size)
        mat[0, -1] = mat[-1, 0] = -r
        return mat * units * units[:, None]

    @pytest.mark.parametrize("size", [2, 3, 40])
    def test_condition_check_boundary(self, size):
        """Raises exactly where the scaled 1-norm condition exceeds the limit,
        in units from 1e-8 to 1e8; a singular matrix and the zero matrix fail."""
        limit = numerics._MAX_SCALED_COND
        units = np.geomspace(1e-8, 1e8, size)
        # the pair's condition straddles the limit by 1%
        ratios = [(k - 1.0) / (k + 1.0) for k in (0.99 * limit, 1.01 * limit)]
        conds = [(1.0 + r) / (1.0 - r) for r in ratios]
        assert conds[0] < limit < conds[1]
        mats = [self.pair(r, size, units) for r in (*ratios, 1.0)] + [np.zeros((size, size))]
        verdicts = []
        for mat in mats:
            try:
                numerics.factor_spd(mat, "matrix", NumericalDegeneracyError)
                verdicts.append(False)
            except NumericalDegeneracyError as exc:
                assert str(exc) == "matrix is singular or ill-conditioned (scaled cond > 1e+12)"
                verdicts.append(True)
        assert verdicts == [False, True, True, True]

    def test_units_do_not_change_the_verdict(self):
        """Rows and columns rescaled by 1e-8 or 1e8 keep each verdict: a
        well-conditioned Gram passes and one of two nearly equal columns
        (scaled condition 5.5e14) fails, in any units."""
        rng = np.random.default_rng(8)
        X = rng.standard_normal((50, 6))
        near = X.copy()
        near[:, 5] = near[:, 0] + 1e-7 * rng.standard_normal(50)
        units = 10.0 ** rng.choice([-8.0, 8.0], size=6)
        for design, fails in ((X, False), (near, True)):
            for scale in (np.ones(6), units):
                mat = design.T @ design * scale * scale[:, None]
                if fails:
                    with pytest.raises(SingularDesignError, match="ill-conditioned"):
                        numerics.factor_spd(mat, "Gram", SingularDesignError)
                else:
                    numerics.factor_spd(mat, "Gram", SingularDesignError)
