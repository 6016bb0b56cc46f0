import math
import time

import conftest
import numpy as np
import pytest
from conftest import (
    _cd_lasso,
    random_dataset,
    reference_active_set_lasso,
    reference_kkt_residual,
    toy_dataset,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exactsi import selection
from exactsi.errors import (
    ConvergenceError,
    ExactSIError,
    InconsistentOutcomeError,
    InvalidArgumentError,
    InvalidSchemeError,
    NumericalDegeneracyError,
    SingularDesignError,
)
from exactsi import numerics
from exactsi.numerics import factor_spd
from exactsi.selection import (
    Dataset,
    RandomizationScheme,
    _active_set_lasso,
    _kkt_residual,
    default_epsilon,
    lasso_event_rep,
    sample_randomization,
    solve_randomized_lasso,
    tau2_from_split,
)
from exactsi.study import (
    calibrate,
    fit_method,
    generate_design,
    generate_response,
    randomized_selection,
    support_indices,
    theory_lambda,
)


def design_only(X):
    """A dataset around ``X`` for what reads only the design."""
    return Dataset(y=np.zeros(X.shape[0]), X=X)


class TestDataset:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(y=np.array([1.0]), X=np.array([[1.0]]))  # n < 2
        with pytest.raises(InvalidArgumentError):
            Dataset(y=np.array([1.0, np.nan]), X=np.ones((2, 1)))
        with pytest.raises(InvalidArgumentError):
            Dataset(y=np.zeros(3), X=np.ones((2, 1)))

    def test_subset_is_the_dataset_of_its_cells(self):
        """``subset`` gives the dataset the constructor gives on the same
        cells, layout and statistics bit for bit, and factors the Gram of
        all its columns as the Gram of those columns."""
        X = generate_design(80, 12, 0.5, 3)
        y, _ = generate_response(X, support_indices(12, 3), 0.75, 3.0, 4)
        data = Dataset(y=y, X=X)
        rows = np.random.default_rng(5).permutation(80)[:30]
        cols = np.array([1, 4, 7])
        pairs = [
            (data.subset(rows), Dataset(y=y[rows], X=X[rows])),
            (data.subset(rows, cols), Dataset(y=y[rows], X=X[np.ix_(rows, cols)])),
        ]
        for sub, ref in pairs:
            assert sub.X.flags.f_contiguous == ref.X.flags.f_contiguous
            for name in ("y", "X", "gram", "xty"):
                assert getattr(sub, name).tobytes() == getattr(ref, name).tobytes()
            every = np.arange(sub.p)
            want = factor_spd(ref.gram[np.ix_(every, every)], "x", SingularDesignError)
            got = sub.checked_factor(every, "x", SingularDesignError)
            assert got[0].tobytes() == want[0].tobytes()


    @pytest.mark.parametrize("n, p", [(60, 20), (30, 60)])
    def test_the_store_keeps_only_p_by_p_matrices(self, n, p):
        """After ``calibrate`` and a fit of every method under both models,
        the store that every dataset on X shares holds only square arrays
        (the Gram, its blocks, the base and their factors), so no n-row copy
        of X lives as long as the dataset, keyed by "gram", None (the base)
        or the bytes of column indices.  At p > n split's and uv's full
        model cannot be fitted, and each of their selected targets fails."""
        X = generate_design(n, p, 0.5, 3)
        y, _ = generate_response(X, support_indices(p, 3), 0.75, 1.0, 4)
        data = Dataset(y=y, X=X)
        cal = calibrate(data, ("exact", "polyhedral", "split", "uv"), rho=0.5)
        for method in ("exact", "polyhedral", "split", "uv"):
            for model in ("selected", "full"):
                fit = fit_method(data, cal, method, model, seed=5)
                unfit = p > n and model == "full" and method in ("split", "uv")
                assert fit.selected.size and len(fit.errors) == fit.selected.size
                assert all(type(e) is SingularDesignError for e in fit.errors) or not unfit
        arrays, todo = [], list(data._design.values())
        while todo:
            item = todo.pop()
            if isinstance(item, np.ndarray):
                arrays.append(item)
            elif isinstance(item, (list, tuple)):
                todo.extend(item)
        assert arrays and all(a.ndim == 2 and a.shape[0] == a.shape[1] <= p for a in arrays)
        for key in data._design:
            if isinstance(key, bytes):
                cols = np.frombuffer(key, dtype=int)
                assert cols.size and ((0 <= cols) & (cols < p)).all()
            else:
                assert key in ("gram", None)

    def test_the_base_is_the_gram_where_every_column_is_kept(self):
        """Where the Gram passes its own check, the randomization base is the
        Gram of all columns: one factor and one verdict serve both, and a
        dataset of another response on the same X."""
        X = generate_design(80, 12, 0.5, 3)
        data = design_only(X)
        every = np.arange(12)
        assert data.checked_factor(every, "x", SingularDesignError) is data.factor(every)
        assert data.factor() is data.factor(every)
        assert data._entry(None) is data._entry(every)
        assert data.randomization_base() is data.gram
        assert data.with_response(np.ones(80)).factor(every) is data.factor()

    def test_the_jittered_base_has_its_own_entry(self, monkeypatch):
        """A duplicated column fails the Gram's check: the base is then the
        jittered Gram, formed and factored once, apart from the Gram of all
        columns, which fails its check while the base passes."""
        X = generate_design(80, 12, 0.5, 3)
        X[:, 5] = X[:, 2]
        data = design_only(X)
        every = np.arange(12)
        factored = []
        real_factor = selection.try_cho_factor

        def counted(mat):
            factored.append(mat)
            return real_factor(mat)

        monkeypatch.setattr(selection, "try_cho_factor", counted)
        base = data.factor()
        assert base is not None and base is not data.factor(every)
        assert data.checked_factor(None, "randomization covariance", InvalidSchemeError) is base
        assert data.randomization_base() is data.randomization_base() is factored[1]
        assert len(factored) == 2 and factored[0] is data.gram
        assert base[0].tobytes() == real_factor(data.randomization_base())[0].tobytes()
        assert not data.randomization_base().flags.writeable
        with pytest.raises(SingularDesignError, match="^full-design Gram is singular"):
            data.checked_factor(every, "full-design Gram", SingularDesignError)

    @pytest.mark.parametrize("noise, conditions", [(1e-7, 1), (3.9e-9, 0)])
    def test_a_failed_verdict_raises_each_callers_error(self, monkeypatch, noise, conditions):
        """Column 2 is column 0 plus ``noise`` N(0, 1): at 1e-7 the Gram
        factors but its scaled condition fails, at 3.9e-9 Cholesky fails and
        no condition is formed.  The Gram is factored, and its condition
        formed, at most once; every caller then raises its own message and
        class from that one verdict.  The base is the jittered Gram, which
        is factored and checked once and passes for every caller."""
        rng = np.random.default_rng(65)
        X = rng.standard_normal((40, 3))
        X[:, 2] = X[:, 0] + noise * rng.standard_normal(40)
        data = design_only(X)
        calls = []
        for name in ("try_cho_factor", "scaled_rcond"):

            def counted(mat, *args, _real=getattr(selection, name), _name=name):
                calls.append(_name)
                return _real(mat, *args)

            monkeypatch.setattr(selection, name, counted)
        callers = (
            ("randomization covariance", NumericalDegeneracyError),
            ("full-design Gram", SingularDesignError),
            ("plug-in design", InvalidSchemeError),
        )
        for what, error in callers:
            with pytest.raises(ExactSIError) as caught:
                data.checked_factor(np.arange(3), what, error)
            assert type(caught.value) is error
            assert str(caught.value) == (
                f"{what} is singular or ill-conditioned (scaled cond > 1e+12)"
            )
        assert calls == ["try_cho_factor"] + ["scaled_rcond"] * conditions
        for what, error in callers:
            assert data.checked_factor(None, what, error) is data.factor()
        assert calls[1 + conditions:] == ["try_cho_factor", "scaled_rcond"]
        assert (data.factor(np.arange(3)) is None) == (conditions == 0)

    @pytest.mark.parametrize(
        "n, p, change",
        [
            (80, 12, "zero column"),
            (80, 12, "duplicated column"),
            (80, 12, "rescaled duplicate"),
            (60, 100, None),
            (30, 1000, None),
        ],
    )
    def test_a_failed_gram_gets_a_well_conditioned_base(self, n, p, change):
        """Where the Gram fails its check (a zero or duplicated column, p > n),
        the jittered base passes, at a scaled condition below 1e9 that a
        column's units do not move: column 5, a copy of column 2 rescaled by
        1e6, gives the plain copy's condition."""
        X = generate_design(n, p, 0.5, 3)
        if change == "zero column":
            X[:, 5] = 0.0
        elif change is not None:
            X[:, 5] = X[:, 2] * (1e6 if change == "rescaled duplicate" else 1.0)
        data = design_only(X)
        with pytest.raises(SingularDesignError):
            data.checked_factor(np.arange(p), "x", SingularDesignError)
        factor = data.checked_factor(None, "randomization covariance", InvalidSchemeError)
        condition = 1 / numerics.scaled_rcond(data.randomization_base(), factor)
        assert condition < 1e9
        if change == "rescaled duplicate":
            X[:, 5] = X[:, 2]
            plain = design_only(X)
            factor = plain.checked_factor(None, "x", SingularDesignError)
            want = 1 / numerics.scaled_rcond(plain.randomization_base(), factor)
            assert condition == pytest.approx(want, rel=1e-6)

    def test_a_replicate_forms_each_scaled_condition_once(self, monkeypatch):
        """In a default-cell replicate, polyhedral, split and uv form the
        scaled condition of each matrix they check at most once, and never
        of the p x p Gram, which only the unchecked full-model plug-in
        factors.  The exact method then checks the p x p base once."""
        checked = []
        for module in (selection, numerics):

            def counted(mat, factor, _real=module.scaled_rcond):
                checked.append((mat.shape, mat.tobytes()))
                return _real(mat, factor)

            monkeypatch.setattr(module, "scaled_rcond", counted)
        p = 100
        X = generate_design(300, p, 0.9, 5)
        y, _ = generate_response(X, support_indices(p, 5), 0.75, 3.0, 6)
        data = Dataset(y=y, X=X)
        cal = calibrate(data, ("exact", "polyhedral", "split", "uv"), rho=0.8, epsilon=0.0)
        for method in ("polyhedral", "split", "uv"):
            assert fit_method(data, cal, method, "selected", 7).selected.size
        assert checked and len(set(checked)) == len(checked)
        assert all(shape != (p, p) for shape, _ in checked)
        checked.clear()
        assert fit_method(data, cal, "exact", "selected", 7).selected.size
        assert len(set(checked)) == len(checked)
        assert [shape for shape, _ in checked].count((p, p)) == 1


class TestRandomization:
    def test_carving_identity_gram(self):
        X = np.eye(2)
        scheme = RandomizationScheme(tau2=1.0)
        assert np.allclose(scheme.covariance(design_only(X)), np.eye(2), atol=1e-7)

    def test_carving_tau2_arithmetic(self):
        assert tau2_from_split(3.0, 500, 400) == pytest.approx(0.75)
        assert tau2_from_split(1.0, 2, 1) == pytest.approx(1.0)
        with pytest.raises(InvalidArgumentError):
            tau2_from_split(2.0, 100, 100)

    def test_empirical_covariance_matches(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 3))
        scheme = RandomizationScheme(tau2=0.5)
        omega = scheme.covariance(design_only(X))
        draws = np.stack(
            [sample_randomization(design_only(X), 0.5, seed=s) for s in range(10_000)]
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
        a = sample_randomization(design_only(X), scheme.tau2, seed=42)
        b = sample_randomization(design_only(X), scheme.tau2, seed=42)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("tau2", [-1.0, 0.0, math.nan])
    def test_variance_must_be_positive(self, tau2):
        X = np.random.default_rng(1).standard_normal((20, 4))
        with pytest.raises(InvalidSchemeError, match="tau2 must be positive"):
            sample_randomization(design_only(X), tau2, seed=0)

    def test_rank_deficient_gram_gets_jitter(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
        scheme = RandomizationScheme(tau2=1.0)
        omega = scheme.covariance(design_only(X))
        assert np.linalg.eigvalsh(omega).min() > 0

    @pytest.mark.parametrize("seed", [22, 100004])
    def test_jitter_is_decided_on_the_gram_and_the_returned_matrix(self, seed):
        """A duplicated column makes X'X singular, yet either X'X (seed 22) or
        0.75 X'X (seed 100004) can pass its Cholesky factorization by
        rounding.  Both get the jitter, and the returned matrix factors."""
        X = generate_design(100, 30, 0.5, seed)
        X[:, 29] = X[:, 0]
        omega = RandomizationScheme(tau2=0.75).covariance(design_only(X))
        np.linalg.cholesky(omega)
        assert not np.array_equal(omega, 0.75 * (X.T @ X))
        assert sample_randomization(design_only(X), 0.75, seed=seed).shape == (30,)


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

    @pytest.mark.parametrize("n, p, eps_scale, tau2", [
        (300, 100, 0.0, 0.0), (300, 100, 0.0, 0.25), (60, 150, 1e-4, 0.25), (40, 8, 0.0, 1.0),
    ])
    def test_inactive_subgradient_is_the_residual_correlation(self, n, p, eps_scale, tau2):
        """The subgradient the search reads off its last residual, c - X'X b
        on the inactive coordinates over lam, is ``(w_I + X_I'(y - X_E b_E)) /
        lam`` to 1e-12: with and without randomization, and with p > n and a
        ridge."""
        X = generate_design(n, p, 0.9, 31)
        y, _ = generate_response(X, support_indices(p, 5), 0.75, 3.0, 32)
        data = Dataset(y=y, X=X)
        w = np.zeros(p)
        if tau2:
            w = sample_randomization(data, tau2, seed=33)
        eps = eps_scale * float(np.mean(np.diag(data.gram)))
        lam = theory_lambda(data, np.sqrt(3.0))
        out = solve_randomized_lasso(data, lam, eps, w)
        E, I = out.selected, np.setdiff1d(np.arange(p), out.selected)
        assert E.size >= 2
        want = (w[I] + X[:, I].T @ (y - X[:, E] @ out.active_solution)) / lam
        assert np.max(np.abs(out.inactive_subgradient - want)) <= 1e-12

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
        data = Dataset(y=y, X=X)
        gram = data.gram
        eps = eps_scale * float(np.mean(np.diag(gram)))
        w = np.random.default_rng(seed).standard_normal(p) * np.sqrt(0.75 * np.diag(gram))
        c = data.xty + w
        lam = lam_scale * theory_lambda(data, np.sqrt(3.0))
        fast, resid, kkt = _active_set_lasso(gram, c, lam, eps)
        slow = _cd_lasso(gram, c, lam, eps)
        assert np.flatnonzero(fast).size >= 2
        assert np.max(np.abs(resid - (c - gram @ fast))) <= 1e-12 * np.max(np.abs(c))
        assert np.array_equal(np.flatnonzero(fast), np.flatnonzero(slow))
        assert np.array_equal(np.sign(fast), np.sign(slow))
        assert np.max(np.abs(fast - slow)) < 1e-8
        assert kkt == _kkt_residual(gram @ fast, c, fast, lam, eps) <= 1e-10
        out = solve_randomized_lasso(data, lam=lam, epsilon=eps, w=w)
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
        fast, _, _ = _active_set_lasso(gram, c, lam, 0.0)
        slow = _cd_lasso(gram, c, lam, 0.0)
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

    def test_uncertified_search_raises(self, monkeypatch):
        """When the search runs out of restricted solves it raises at once,
        with the KKT residual of its last iterate."""
        rng = np.random.default_rng(98)
        X = rng.standard_normal((20, 60))
        y = rng.standard_normal(20)
        lam = rng.uniform(0.05, 2.0)
        monkeypatch.setattr(selection, "_AS_MAX_STEPS", 1)
        start = time.perf_counter()
        with pytest.raises(ConvergenceError) as err:
            solve_randomized_lasso(Dataset(y=y, X=X), lam=lam, epsilon=0.0, w=np.zeros(60))
        assert time.perf_counter() - start < 0.1
        assert err.value.residual > 0

    def test_unbounded_objective_raises(self):
        """p > n, no ridge, and w tilted along a null vector z of X with
        w'z = 3 lam ||z||_1: the objective falls without bound along z, which
        the search proves from a null-space step that shrinks no coordinate."""
        rng = np.random.default_rng(5)
        X = rng.standard_normal((20, 60))
        y = rng.standard_normal(20)
        z = np.linalg.svd(X)[2][-1]
        lam = 1.0
        w = 3.0 * lam * np.sign(z)
        start = time.perf_counter()
        with pytest.raises(InvalidArgumentError, match="unbounded"):
            solve_randomized_lasso(Dataset(y=y, X=X), lam=lam, epsilon=0.0, w=w)
        assert time.perf_counter() - start < 0.1

    def test_every_zero_norm_column_is_checked(self):
        """Columns 1 and 4 are zero, so |c_j| = |w_j| there.  Column 1 is
        bounded (0.1 <= lam) and column 4 is not: the error names column 4,
        not the first zero-norm column alone."""
        X = np.random.default_rng(6).standard_normal((30, 6))
        X[:, [1, 4]] = 0.0
        w = np.zeros(6)
        w[1], w[4] = 0.1, 5.0
        data = Dataset(y=np.zeros(30), X=X)
        with pytest.raises(InvalidArgumentError, match="^column 4 has zero norm and epsilon=0"):
            solve_randomized_lasso(data, 1.0, 0.0, w)
        w[4] = 0.5  # every zero-norm column bounded: the search solves it
        assert solve_randomized_lasso(data, 1.0, 0.0, w).selected.size == 0

    def test_duplicated_column_is_certified(self):
        """Two equal columns and w = 0: after one of them enters, the other's
        bound is met only up to rounding.  The search used to let it enter and
        cycle between the pair; the entering margin stops that.  The solution
        is not unique, so only the objective is compared."""
        X = generate_design(60, 20, 0.5, 17)
        X[:, 19] = X[:, 0]
        y, _ = generate_response(X, support_indices(20, 5), 0.75, 3.0, 117)
        lam = theory_lambda(Dataset(y=y, X=X), np.sqrt(3.0))
        gram, c = X.T @ X, X.T @ y
        fast, _, _ = _active_set_lasso(gram, c, lam, 0.0)
        slow = _cd_lasso(gram, c, lam, 0.0)

        def objective(b):
            return 0.5 * b @ gram @ b - c @ b + lam * np.abs(b).sum()

        assert fast[0] != 0
        assert objective(fast) == pytest.approx(objective(slow), rel=1e-12)
        tol = 1e-11 * max(np.max(np.abs(c)), lam)
        assert _kkt_residual(gram @ fast, c, fast, lam, 0.0) <= tol

    @pytest.mark.parametrize("k", [-6, 3, 6, 9])
    def test_change_of_units_keeps_the_selection(self, k):
        """The default cell's carving-randomized lasso with y in other units:
        lam, tau2 and w scale with y, so support and signs must not move."""
        X = generate_design(300, 100, 0.9, 11)
        y, _ = generate_response(X, support_indices(100, 5), 0.75, 3.0, 12)
        outcomes = []
        for scale in (1.0, 10.0**k):
            data = Dataset(y=y * scale, X=X)
            cal = calibrate(data, ("exact",), rho=0.8, epsilon=0.0)
            outcome, _ = randomized_selection(data, cal, 13)
            outcomes.append(outcome)
        base, scaled = outcomes
        assert base.selected.size >= 5
        assert np.array_equal(scaled.selected, base.selected)
        assert np.array_equal(scaled.signs, base.signs)


GRID = [
    (n, p, corr, dup, s)
    for n, p in ((20, 60), (60, 150), (100, 30), (300, 100), (600, 300))
    for corr in (0.5, 0.9)
    for dup in (False, True)
    for s in range(4)
]


def probe(n, p, corr, dup, s):
    """One solve of the probe grid: an AR(corr) design, column p - 1 equal to
    column 0 if ``dup``, w_j ~ N(0, 0.5 (X'X)_jj) outside X's row space, no
    ridge, and a tenth of the theory penalty, where many objectives are
    unbounded below."""
    X = generate_design(n, p, corr, s)
    if dup:
        X[:, p - 1] = X[:, 0]
    y, _ = generate_response(X, support_indices(p, 5), 0.75, 3.0, s + 1)
    w = np.random.default_rng(s + 100).standard_normal(p) * np.sqrt(0.5 * np.diag(X.T @ X))
    data = Dataset(y=y, X=X)
    return data, w, 0.1 * theory_lambda(data, np.sqrt(3.0))


class TestUnboundedVerdict:
    """Every exit of the search that cannot certify its answer first asks
    the LP of ``_unbounded`` whether the objective is unbounded below."""

    @pytest.mark.parametrize("case, exit", [
        ((60, 150, 0.9, False, 0), "repeated active set and signs"),
        ((100, 30, 0.5, True, 2), "KKT certificate failed"),
    ], ids=["repeat", "certificate"])
    def test_uncertified_exit_of_an_unbounded_objective(self, monkeypatch, case, exit):
        """A cycle through p > n (a cycle used to run all 1000 restricted solves)
        and a failed certificate after LAPACK factors the singular Gram of two
        equal columns by rounding: both objectives are unbounded below.
        Which exit an unbounded search takes depends on the last bits of X'y,
        and so on the BLAS kernel: both cases exit as named under OpenBLAS's
        SkylakeX and Haswell kernels, with numpy's x86-64-v4 loops on or off.
        The grid's first cycle, (20, 60, 0.5, False, 1), does so only under
        SkylakeX, and under Prescott neither case does."""
        data, w, lam = probe(*case)
        with pytest.raises(InvalidArgumentError, match="unbounded below"):
            solve_randomized_lasso(data, lam=lam, epsilon=0.0, w=w)
        # with the LP's verdict withheld, the exit is the one named
        monkeypatch.setattr(selection, "_unbounded", lambda *args: False)
        with pytest.raises(ConvergenceError, match=exit):
            solve_randomized_lasso(data, lam=lam, epsilon=0.0, w=w)

    def test_lp_verdict_is_the_duality_bound(self):
        """Bounded exactly when some v has ||c - Hv||_inf <= lam: c = X'y lies
        in the range of H = X'X, so t* = 0; tilting c by 2 lam along a null
        vector's signs makes t* = 2 lam."""
        rng = np.random.default_rng(5)
        X = rng.standard_normal((20, 60))
        gram, c = X.T @ X, X.T @ rng.standard_normal(20)
        assert not selection._unbounded(gram, c, 1e-6)
        z = np.linalg.svd(X)[2][-1]
        assert selection._unbounded(gram, c + 2.0 * np.sign(z), 1.0)
        assert not selection._unbounded(gram, c + 2.0 * np.sign(z), 3.0)

    @pytest.mark.slow
    def test_probe_grid(self):
        """80 solves: every one is certified or raises InvalidArgumentError,
        and the LP agrees with each verdict."""
        verdicts = []
        for case in GRID:
            data, w, lam = probe(*case)
            gram, c = data.X.T @ data.X, data.X.T @ data.y + w
            try:
                solve_randomized_lasso(data, lam=lam, epsilon=0.0, w=w)
                verdicts.append("certified")
                assert not selection._unbounded(gram, c, lam), case
            except InvalidArgumentError:
                verdicts.append("unbounded")
                assert selection._unbounded(gram, c, lam), case
        assert verdicts.count("certified") == 38 and verdicts.count("unbounded") == 42


def oracle_problem(kind, seed):
    """``(gram, c, lam, epsilon)`` of one search of ``kind``:

    - ``default``: the default cell's exact solve (AR(0.9), 300 x 100, the
      carving draw) for an even seed, its polyhedral solve (w = 0) for an
      odd one;
    - ``line_search``: that design at a quarter of the theory penalty, with
      w_j ~ N(0, 0.75 (X'X)_jj), where restricted solves flip signs;
    - ``null_space``: 20 x 60 Gaussian, no ridge, where restricted Grams go
      singular;
    - ``ridge``: AR(0.9) 60 x 150 with ``1e-4 mean(diag X'X)`` for an even
      seed, 300 x 100 with a hundred times that for an odd one;
    - ``grid``: a solve of the probe grid (duplicated columns, p > n, a
      tenth of the theory penalty, many unbounded).
    """
    if kind == "grid":
        data, w, lam = probe(*GRID[seed % len(GRID)])
        return data.gram, data.xty + w, lam, 0.0
    if kind == "null_space":
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((20, 60))
        y = rng.standard_normal(20)
        return X.T @ X, X.T @ y, rng.uniform(0.05, 2.0), 0.0
    n, p = (60, 150) if kind == "ridge" and seed % 2 == 0 else (300, 100)
    X = generate_design(n, p, 0.9, seed)
    y, _ = generate_response(X, support_indices(p, 5), 0.75, 3.0, seed + 100)
    data = Dataset(y=y, X=X)
    if kind == "default":
        cal = calibrate(data, ("exact", "polyhedral"), rho=0.8, epsilon=0.0)
        w = np.zeros(p)
        if seed % 2 == 0:
            w = sample_randomization(data, tau2_from_split(cal.sigma2, n, 240), seed)
        return data.gram, data.xty + w, cal.lam, 0.0
    w = np.random.default_rng(seed).standard_normal(p) * np.sqrt(0.75 * np.diag(data.gram))
    lam = theory_lambda(data, np.sqrt(3.0))
    if kind == "line_search":
        return data.gram, data.xty + w, 0.25 * lam, 0.0
    eps = (1e-4 if p > n else 1e-2) * float(np.mean(np.diag(data.gram)))
    return data.gram, data.xty + w, lam, eps


def counted_search(search, owner, problem):
    """``search``'s answer, or the class, message and residual of
    its error, with the number of restricted solves it made through
    ``owner.dposv``."""
    calls = 0
    real = owner.dposv

    def dposv(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(owner, "dposv", dposv)
        try:
            out = search(*problem)
        except ExactSIError as exc:
            out = (type(exc), str(exc), getattr(exc, "residual", None))
    return out, calls


class TestSearchOracle:
    """The search against ``conftest.reference_active_set_lasso``, the same
    search on Python lists, gathering gram's active block at every
    restricted solve."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        st.sampled_from(["default", "line_search", "null_space", "ridge", "grid"]),
        st.integers(0, 10_000),
    )
    @example("line_search", 25)  # two line searches over sign changes
    @example("null_space", 98)  # a singular restricted Gram, then a null-space step
    @example("ridge", 24)  # p > n with a ridge and a line search
    @example("ridge", 23)  # a tall design with a ridge
    @example("grid", GRID.index((20, 60, 0.5, False, 1)))  # unbounded, at a repeated pair
    @example("grid", GRID.index((100, 30, 0.5, True, 2)))  # unbounded, at the certificate
    @example("grid", GRID.index((300, 100, 0.9, True, 0)))  # a duplicated column, certified
    def test_same_bits_errors_and_solves(self, kind, seed):
        """``(b, g)`` bit for bit, with the search's KKT residual the oracle's
        at b, or the same error class, message and residual, after the same
        number of restricted solves."""
        problem = oracle_problem(kind, seed)
        new, new_solves = counted_search(_active_set_lasso, selection, problem)
        old, old_solves = counted_search(reference_active_set_lasso, conftest, problem)
        assert new_solves == old_solves
        if isinstance(old[0], type):
            assert new == old
        else:
            assert not isinstance(new[0], type), new
            *answer, resid = new
            assert [x.tobytes() for x in answer] == [x.tobytes() for x in old]
            gram, c, lam, epsilon = problem
            assert resid == reference_kkt_residual(gram @ old[0], c, old[0], lam, epsilon)

    @pytest.mark.parametrize("support", ["none", "some", "all"])
    def test_kkt_residual_on_index_arrays(self, support):
        """The residual's value on index arrays is the one on boolean masks."""
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 12))
        gram, c = X.T @ X, X.T @ rng.standard_normal(30)
        for _ in range(20):
            b = rng.standard_normal(12)
            if support != "all":
                b[rng.random(12) < (1.0 if support == "none" else 0.5)] = 0.0
            for eps in (0.0, 0.3):
                args = (gram @ b, c, b, 1.7, eps)
                assert _kkt_residual(*args) == reference_kkt_residual(*args)


class TestLassoEventRep:
    def test_toy_reconstruction_arithmetic(self):
        data = toy_dataset()
        out = solve_randomized_lasso(data, lam=1.0, epsilon=0.0, w=np.array([0.5]))
        rep = lasso_event_rep(data, out, lam=1.0, epsilon=0.0)
        # stat = X'y enters with sign -1
        assert np.array_equal(rep.stat, data.xty)
        assert -rep.stat == pytest.approx(-2.0)
        assert rep.Q @ rep.opt == pytest.approx(1.5)
        assert rep.offset[0] == pytest.approx(1.0)
        assert rep.reconstruction_residual() < 1e-12

    def test_empty_selection_rep(self):
        data = Dataset(y=np.array([0.5, 0.0]), X=np.array([[1.0], [0.0]]))
        out = solve_randomized_lasso(data, lam=1.0, epsilon=0.0, w=np.zeros(1))
        rep = lasso_event_rep(data, out, lam=1.0, epsilon=0.0)
        assert rep.Q.shape == (1, 0)
        assert rep.offset == pytest.approx(out.inactive_subgradient)
        assert np.allclose(rep.randomization, -rep.stat + rep.offset, atol=1e-12)

    def test_random_instances_reconstruct(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            data = random_dataset(rng)
            lam = rng.uniform(1.5, 4.0)
            w = rng.standard_normal(data.p)
            out = solve_randomized_lasso(data, lam=lam, epsilon=0.1, w=w)
            rep = lasso_event_rep(data, out, lam=lam, epsilon=0.1)
            assert rep.reconstruction_residual() <= 1e-6
            assert (rep.signs * rep.opt > 0).all()
            # feature order: the offset is lam times the full subgradient
            z = np.zeros(data.p)
            z[out.selected] = out.signs
            z[np.setdiff1d(np.arange(data.p), out.selected)] = out.inactive_subgradient
            assert np.array_equal(rep.offset, lam * z)
            assert np.array_equal(rep.randomization, w)

    def test_inconsistent_outcome_detected(self):
        data = toy_dataset()
        out = solve_randomized_lasso(data, lam=1.0, epsilon=0.0, w=np.array([0.5]))
        out.active_solution = out.active_solution + 0.2
        with pytest.raises(InconsistentOutcomeError):
            lasso_event_rep(data, out, lam=1.0, epsilon=0.0)


def test_default_epsilon():
    rng = np.random.default_rng(15)
    tall = random_dataset(rng, n=30, p=5)
    assert default_epsilon(tall) == 0.0
    wide = Dataset(y=rng.standard_normal(4), X=rng.standard_normal((4, 6)))
    eps = default_epsilon(wide)
    assert eps == pytest.approx(1e-4 * np.mean(np.sum(wide.X**2, axis=0)))
