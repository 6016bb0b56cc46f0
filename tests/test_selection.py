import time

import numpy as np
import pytest

from exactsi import selection
from exactsi.errors import InconsistentOutcomeError, InvalidArgumentError
from exactsi.selection import (
    Dataset,
    RandomizationScheme,
    _active_set_lasso,
    _cd_lasso,
    _kkt_residual,
    default_epsilon,
    lasso_event_rep,
    sample_randomization,
    solve_randomized_lasso,
    solve_randomized_screening,
    tau2_from_split,
)
from exactsi.study import (
    generate_design,
    generate_response,
    support_indices,
    theory_lambda,
)


def toy_dataset():
    # single effective feature: X = [[1],[0]], y = (2, 0)
    return Dataset(y=np.array([2.0, 0.0]), X=np.array([[1.0], [0.0]]), sigma=1.0)


def random_dataset(rng, n=40, p=8, sigma=1.0):
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[: p // 3] = rng.uniform(1, 3, size=p // 3) * rng.choice([-1, 1], size=p // 3)
    y = X @ beta + sigma * rng.standard_normal(n)
    return Dataset(y=y, X=X, sigma=sigma)


class TestDataset:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(y=np.array([1.0]), X=np.array([[1.0]]))  # n < 2
        with pytest.raises(InvalidArgumentError):
            Dataset(y=np.array([1.0, np.nan]), X=np.ones((2, 1)))
        with pytest.raises(InvalidArgumentError):
            Dataset(y=np.zeros(3), X=np.ones((2, 1)))


class TestRandomization:
    def test_carving_identity_gram(self):
        X = np.eye(2)
        scheme = RandomizationScheme(tau2=1.0)
        assert np.allclose(scheme.covariance(X), np.eye(2), atol=1e-7)

    def test_carving_tau2_arithmetic(self):
        assert tau2_from_split(3.0, 500, 400) == pytest.approx(0.75)
        assert tau2_from_split(1.0, 2, 1) == pytest.approx(1.0)
        with pytest.raises(InvalidArgumentError):
            tau2_from_split(2.0, 100, 100)

    def test_empirical_covariance_matches(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 3))
        scheme = RandomizationScheme(tau2=0.5)
        omega = scheme.covariance(X)
        draws = np.stack(
            [sample_randomization(omega, seed=s) for s in range(10_000)]
        )
        emp = draws.T @ draws / draws.shape[0]
        # entrywise 5 standard errors; Cov of a product of Gaussians
        for i in range(3):
            for j in range(3):
                se = np.sqrt((omega[i, i] * omega[j, j] + omega[i, j] ** 2) / 1e4)
                assert abs(emp[i, j] - omega[i, j]) < 5 * se

    def test_deterministic_in_seed(self):
        X = np.random.default_rng(1).standard_normal((20, 4))
        scheme = RandomizationScheme(tau2=2.0)
        omega = scheme.covariance(X)
        a = sample_randomization(omega, seed=42)
        b = sample_randomization(omega, seed=42)
        assert np.array_equal(a, b)

    def test_rank_deficient_gram_gets_jitter(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
        scheme = RandomizationScheme(tau2=1.0)
        omega = scheme.covariance(X)
        assert np.linalg.eigvalsh(omega).min() > 0


class TestRandomizedLasso:
    def test_single_feature_soft_threshold(self):
        out = solve_randomized_lasso(toy_dataset(), lam=1.0, epsilon=0.0, w=np.array([0.5]))
        assert out.selected.tolist() == [0]
        assert out.signs.tolist() == [1.0]
        assert out.active_solution[0] == pytest.approx(1.5, abs=1e-12)

    def test_subthreshold_gives_empty_selection(self):
        data = Dataset(y=np.array([0.5, 0.0]), X=np.array([[1.0], [0.0]]))
        out = solve_randomized_lasso(data, lam=1.0, epsilon=0.0, w=np.zeros(1))
        assert out.selected.size == 0
        assert out.inactive_subgradient[0] == pytest.approx(0.5)

    def test_orthonormal_closed_form(self):
        rng = np.random.default_rng(3)
        X, _ = np.linalg.qr(rng.standard_normal((12, 5)))
        y = rng.standard_normal(12)
        lam = 0.3
        out = solve_randomized_lasso(Dataset(y=y, X=X), lam=lam, epsilon=0.0, w=np.zeros(5))
        z = X.T @ y
        want = np.sign(z) * np.maximum(np.abs(z) - lam, 0.0)
        full = np.zeros(5)
        full[out.selected] = out.active_solution
        assert np.allclose(full, want, atol=1e-10)

    def test_objective_local_minimality(self):
        rng = np.random.default_rng(4)
        data = random_dataset(rng)
        lam, eps = 2.5, 0.1
        w = rng.standard_normal(data.p)
        out = solve_randomized_lasso(data, lam=lam, epsilon=eps, w=w)
        b = np.zeros(data.p)
        b[out.selected] = out.active_solution

        def objective(vec):
            return (
                0.5 * np.sum((data.y - data.X @ vec) ** 2)
                + 0.5 * eps * np.sum(vec**2)
                + lam * np.sum(np.abs(vec))
                - w @ vec
            )

        base = objective(b)
        for _ in range(1000):
            delta = rng.standard_normal(data.p)
            delta *= rng.uniform(0, 1e-2) / np.linalg.norm(delta)
            assert objective(b + delta) >= base - 1e-12

    def test_bit_identical_determinism(self):
        rng = np.random.default_rng(5)
        data = random_dataset(rng)
        w = rng.standard_normal(data.p)
        a = solve_randomized_lasso(data, lam=2.0, epsilon=0.05, w=w)
        b = solve_randomized_lasso(data, lam=2.0, epsilon=0.05, w=w)
        assert np.array_equal(a.active_solution, b.active_solution)
        assert np.array_equal(a.selected, b.selected)
        assert np.array_equal(a.inactive_subgradient, b.inactive_subgradient)

    def test_kkt_residual_at_solution(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            data = random_dataset(rng)
            lam = rng.uniform(1.0, 5.0)
            w = rng.standard_normal(data.p) * 0.5
            out = solve_randomized_lasso(data, lam=lam, epsilon=0.0, w=w)
            b = np.zeros(data.p)
            b[out.selected] = out.active_solution
            grad = data.X.T @ (data.X @ b - data.y) - w
            for j in range(data.p):
                if b[j] != 0:
                    assert abs(grad[j] + lam * np.sign(b[j])) < 1e-8
                else:
                    assert abs(grad[j]) <= lam + 1e-8
            assert np.max(np.abs(out.inactive_subgradient), initial=0.0) < 1.0

    @pytest.mark.parametrize(
        "n, p, eps_scale, lam_scale, seed",
        [
            (300, 100, 0.0, 1.0, 21),
            (300, 100, 0.0, 1.0, 22),
            (300, 100, 0.0, 0.25, 25),  # two line searches over sign changes
            (300, 100, 0.01, 1.0, 23),
            (60, 150, 1e-4, 1.0, 24),  # p > n, one line search
        ],
    )
    def test_active_set_matches_coordinate_descent(self, n, p, eps_scale, lam_scale, seed):
        """AR(0.9) designs with w != 0: both solvers find the same lasso solution,
        and the active-set one meets the stationarity conditions to rounding."""
        X = generate_design(n, p, 0.9, seed)
        y, _ = generate_response(X, support_indices(p, 5), 0.75, 3.0, seed + 100)
        gram = X.T @ X
        eps = eps_scale * float(np.mean(np.diag(gram)))
        w = np.random.default_rng(seed).standard_normal(p) * np.sqrt(0.75 * np.diag(gram))
        c = X.T @ y + w
        lam = lam_scale * theory_lambda(X, np.sqrt(3.0))
        fast = _active_set_lasso(gram, c, lam, eps)
        slow = _cd_lasso(gram, c, lam, eps)
        assert fast is not None
        assert np.flatnonzero(fast).size >= 2
        assert np.array_equal(np.flatnonzero(fast), np.flatnonzero(slow))
        assert np.array_equal(np.sign(fast), np.sign(slow))
        assert np.max(np.abs(fast - slow)) < 1e-8
        assert _kkt_residual(gram @ fast, c, fast, lam, eps) <= 1e-10
        out = solve_randomized_lasso(Dataset(y=y, X=X), lam=lam, epsilon=eps, w=w)
        assert np.array_equal(out.active_solution, fast[out.selected])

    def test_singular_restricted_gram_steps_along_its_null_space(self):
        """p > n with no ridge: the search adds a 21st active column of a rank-20
        design, whose restricted Gram is singular; it steps along the null
        space until a coordinate leaves, and finds coordinate descent's answer."""
        rng = np.random.default_rng(98)
        X = rng.standard_normal((20, 60))
        y = rng.standard_normal(20)
        lam = rng.uniform(0.05, 2.0)
        gram, c = X.T @ X, X.T @ y
        fast = _active_set_lasso(gram, c, lam, 0.0)
        slow = _cd_lasso(gram, c, lam, 0.0)
        assert fast is not None
        assert np.flatnonzero(fast).size >= 2
        assert np.array_equal(np.flatnonzero(fast), np.flatnonzero(slow))
        assert np.max(np.abs(fast - slow)) < 1e-8
        assert _kkt_residual(gram @ fast, c, fast, lam, 0.0) <= 1e-9

    def test_p_greater_than_n_without_ridge_solves_fast(self):
        """An instance on which the search used to give up at a singular
        restricted Gram, after which coordinate descent ran out of sweeps."""
        rng = np.random.default_rng(117)
        X = rng.standard_normal((20, 60))
        y = rng.standard_normal(20)
        lam = 0.2322
        start = time.perf_counter()
        out = solve_randomized_lasso(Dataset(y=y, X=X), lam=lam, epsilon=0.0, w=np.zeros(60))
        assert time.perf_counter() - start < 1.0
        b = np.zeros(60)
        b[out.selected] = out.active_solution
        assert _kkt_residual(X.T @ X @ b, X.T @ y, b, lam, 0.0) <= 1e-9

    def test_uncertified_search_falls_back_to_coordinate_descent(self, monkeypatch):
        """When the search runs out of restricted solves, coordinate descent
        solves the problem instead."""
        rng = np.random.default_rng(98)
        X = rng.standard_normal((20, 60))
        y = rng.standard_normal(20)
        lam = rng.uniform(0.05, 2.0)
        monkeypatch.setattr(selection, "_AS_MAX_STEPS", 1)
        assert _active_set_lasso(X.T @ X, X.T @ y, lam, 0.0) is None
        calls = []

        def counted(*args):
            calls.append(args)
            return _cd_lasso(*args)

        monkeypatch.setattr(selection, "_cd_lasso", counted)
        out = solve_randomized_lasso(Dataset(y=y, X=X), lam=lam, epsilon=0.0, w=np.zeros(60))
        assert len(calls) == 1
        b = np.zeros(60)
        b[out.selected] = out.active_solution
        grad = X.T @ (y - X @ b)
        assert out.selected.size >= 2
        assert np.max(np.abs(grad[out.selected] - lam * out.signs)) <= 1e-9
        assert np.max(np.abs(out.inactive_subgradient), initial=0.0) <= 1.0 + 1e-9


class TestLassoEventRep:
    def test_toy_reconstruction_arithmetic(self):
        data = toy_dataset()
        out = solve_randomized_lasso(data, lam=1.0, epsilon=0.0, w=np.array([0.5]))
        rep = lasso_event_rep(data, out, lam=1.0, epsilon=0.0)
        assert rep.P @ rep.stat == pytest.approx(-2.0)
        assert rep.Q @ rep.opt == pytest.approx(1.5)
        assert rep.T[0] == pytest.approx(1.0)
        assert rep.reconstruction_residual() < 1e-12

    def test_empty_selection_rep(self):
        data = Dataset(y=np.array([0.5, 0.0]), X=np.array([[1.0], [0.0]]))
        out = solve_randomized_lasso(data, lam=1.0, epsilon=0.0, w=np.zeros(1))
        rep = lasso_event_rep(data, out, lam=1.0, epsilon=0.0)
        assert rep.Q.shape == (1, 0)
        assert np.allclose(
            rep.randomization, rep.P @ rep.stat + rep.R @ rep.sub + rep.T, atol=1e-12
        )

    def test_random_instances_reconstruct(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            data = random_dataset(rng)
            lam = rng.uniform(1.5, 4.0)
            w = rng.standard_normal(data.p)
            out = solve_randomized_lasso(data, lam=lam, epsilon=0.1, w=w)
            rep = lasso_event_rep(data, out, lam=lam, epsilon=0.1)
            assert rep.reconstruction_residual() <= 1e-6
            if rep.L.size:
                assert (rep.constraint_slack() > 0).all()

    def test_inconsistent_outcome_detected(self):
        data = toy_dataset()
        out = solve_randomized_lasso(data, lam=1.0, epsilon=0.0, w=np.array([0.5]))
        out.active_solution = out.active_solution + 0.2
        with pytest.raises(InconsistentOutcomeError):
            lasso_event_rep(data, out, lam=1.0, epsilon=0.0)


class TestScreening:
    def test_direct_comparison(self):
        data = Dataset(y=np.array([2.0, 0.1]), X=np.eye(2))
        out, rep = solve_randomized_screening(data, threshold=1.0, w=np.zeros(2))
        assert out.selected.tolist() == [0]
        assert out.signs.tolist() == [1.0]
        assert out.active_solution[0] == pytest.approx(1.0)
        assert rep.reconstruction_residual() < 1e-12

    def test_all_below_threshold(self):
        data = Dataset(y=np.array([0.2, -0.1]), X=np.eye(2))
        out, rep = solve_randomized_screening(data, threshold=1.0, w=np.zeros(2))
        assert out.selected.size == 0
        assert rep.reconstruction_residual() < 1e-12

    def test_random_reconstruction(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            data = random_dataset(rng, n=25, p=6)
            w = rng.standard_normal(6) * 2
            out, rep = solve_randomized_screening(data, threshold=rng.uniform(0.5, 6), w=w)
            assert rep.reconstruction_residual() <= 1e-6
            if rep.L.size:
                assert (rep.constraint_slack() > 0).all()


def test_default_epsilon():
    rng = np.random.default_rng(15)
    tall = random_dataset(rng, n=30, p=5)
    assert default_epsilon(tall) == 0.0
    wide = Dataset(y=rng.standard_normal(4), X=rng.standard_normal((4, 6)))
    eps = default_epsilon(wide)
    assert eps == pytest.approx(1e-4 * np.mean(np.sum(wide.X**2, axis=0)))
