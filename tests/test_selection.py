import numpy as np
import pytest

from exactsi.errors import InconsistentOutcomeError, InvalidArgumentError
from exactsi.selection import (
    Dataset,
    RandomizationScheme,
    default_epsilon,
    lasso_event_rep,
    sample_randomization,
    solve_randomized_lasso,
    solve_randomized_screening,
    tau2_from_split,
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
