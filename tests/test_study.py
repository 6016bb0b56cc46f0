import math

import numpy as np
import pytest
from conftest import take

from exactsi import conditioning, inference, numerics, study
from exactsi.cli import _summary_json
from exactsi.errors import (
    InsufficientSampleError,
    InvalidArgumentError,
    NumericalDegeneracyError,
)
from exactsi.selection import Dataset
from exactsi.study import (
    SimConfig,
    _run_replicate,
    _seed_for,
    calibrate,
    f1_score,
    fit_method,
    generate_design,
    generate_response,
    run_study,
    support_indices,
    theory_lambda,
    true_projected_target,
    validate_pivot_uniformity,
)


class TestGenerateDesign:
    def test_independent_columns_when_corr_zero(self):
        X = generate_design(20_000, 4, 0.0, seed=0)
        emp = X.T @ X / X.shape[0]
        assert np.allclose(emp, np.eye(4), atol=5 / math.sqrt(20_000))

    def test_lag_one_correlation(self):
        X = generate_design(100_000, 6, 0.9, seed=1)
        emp = X.T @ X / X.shape[0]
        lag1 = np.diag(emp, k=1)
        assert np.allclose(lag1, 0.9, atol=5 * 2 / math.sqrt(100_000))

    def test_factor_reconstructs_covariance(self):
        # the generating recursion is an exact factor of the AR(1) covariance
        p, corr = 12, 0.7
        B = np.zeros((p, p))
        B[0, 0] = 1.0
        s = math.sqrt(1 - corr**2)
        for j in range(1, p):
            B[j] = corr * B[j - 1]
            B[j, j] = s
        sigma = corr ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        assert np.allclose(B @ B.T, sigma, atol=1e-12)
        # and its inverse is bidiagonal
        Binv = np.linalg.inv(B)
        assert np.allclose(np.tril(Binv, k=-2), 0.0, atol=1e-10)

    def test_deterministic(self):
        a = generate_design(50, 5, 0.5, seed=9)
        b = generate_design(50, 5, 0.5, seed=9)
        assert np.array_equal(a, b)


class TestGenerateResponse:
    def test_signal_magnitude(self):
        X = generate_design(30, 200, 0.0, seed=2)
        support = support_indices(200, 5)
        _, beta = generate_response(X, support, f=0.5, sigma2=1.0, seed=3)
        assert np.allclose(beta[support], math.sqrt(math.log(200)))
        assert np.count_nonzero(beta) == 5

    def test_noiseless_response_in_span(self):
        X = generate_design(25, 10, 0.3, seed=4)
        support = support_indices(10, 3)
        y, beta = generate_response(X, support, f=1.0, sigma2=0.0, seed=5)
        assert np.allclose(y, X @ beta)

    def test_global_null(self):
        X = generate_design(25, 10, 0.0, seed=6)
        y, beta = generate_response(X, np.zeros(0, dtype=int), 1.0, 2.0, seed=7)
        assert not beta.any()
        assert np.std(y) == pytest.approx(math.sqrt(2.0), rel=0.5)


class TestF1:
    def test_perfect(self):
        assert f1_score([1, 2, 3], [1, 2, 3]) == 1.0

    def test_disjoint(self):
        assert f1_score([1, 2], [3, 4]) == 0.0

    def test_counts(self):
        # TP=3, FP=2, FN=2 -> 3/5
        assert f1_score([1, 2, 3, 4, 5], [1, 2, 3, 6, 7]) == pytest.approx(0.6)

    def test_both_empty(self):
        assert f1_score([], []) == 1.0


class TestTrueProjectedTarget:
    def test_projection_of_own_span(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 8))
        support = np.array([1, 4, 6])
        beta = np.zeros(8)
        beta[support] = [2.0, -1.0, 3.0]
        got = true_projected_target(X, support, support, beta, "selected")
        assert np.allclose(got, beta[support], atol=1e-10)

    def test_full_model_reads_entries(self):
        beta = np.array([0.0, 2.0, 0.0, -1.0])
        got = true_projected_target(np.eye(4), [0, 2], [1, 3], beta, "full")
        assert np.allclose(got, [0.0, 0.0])

    def test_overlap_oracle_by_lstsq(self):
        rng = np.random.default_rng(1)
        X = generate_design(50, 10, 0.8, seed=11)
        support = np.array([0, 5])
        beta = np.zeros(10)
        beta[support] = 2.5
        E = np.array([0, 4, 5, 7])
        got = true_projected_target(X, E, support, beta, "selected")
        want, *_ = np.linalg.lstsq(X[:, E], X @ beta, rcond=None)
        assert np.allclose(got, want, atol=1e-8)


def quick_config(**overrides):
    base = dict(
        n=60,
        p=12,
        sparsity=2,
        signal_fraction=2.0,
        rho=0.8,
        corr=0.5,
        sigma2=1.0,
        n_reps=4,
        methods=("exact", "polyhedral", "split", "uv"),
        model="selected",
        seed=7,
        alpha=0.1,
    )
    base.update(overrides)
    return SimConfig(**base)


# a penalty so large that no method ever selects anything
ALL_EMPTY = SimConfig(
    n=60, p=12, sparsity=3, n_reps=3, methods=("exact", "polyhedral"), lambda_rule=1e6, seed=3
)


class TestRunStudy:
    def test_single_replicate_matches_its_rows(self):
        cfg = quick_config(n_reps=1, methods=("exact",))
        summary = run_study(cfg)
        rows = summary.rows
        ms = summary.methods["exact"]
        if rows:
            assert ms.n_used == 1
            assert ms.coverage == pytest.approx(np.mean([r["covered"] for r in rows]))
            assert ms.length == pytest.approx(np.mean([r["length"] for r in rows]))
        else:
            assert ms.n_empty == 1

    @pytest.mark.parametrize(
        "cfg",
        [
            quick_config(),
            ALL_EMPTY,
            # round(0.99 * 20) = n: the exact method fails in every replicate
            quick_config(n=20, p=5, rho=0.99, methods=("exact", "polyhedral")),
        ],
        ids=["default", "all_empty", "exact_fails"],
    )
    def test_reproducible_and_parallel_identical(self, cfg):
        a = run_study(cfg, workers=1)
        b = run_study(cfg, workers=2)
        assert a.rows == b.rows
        for m in cfg.methods:
            assert a.methods[m] == b.methods[m]

    def test_all_empty_replicates_are_only_counted(self):
        cfg = ALL_EMPTY
        summary = run_study(cfg)
        assert summary.rows == []
        for m in cfg.methods:
            ms = summary.methods[m]
            assert (ms.n_used, ms.n_empty, ms.n_failed) == (0, cfg.n_reps, 0)
            assert ms.f1 == 0.0 and math.isnan(ms.coverage)
            assert _summary_json(summary)["methods"][m]["coverage"] is None

    def test_summary_counts_add_up(self):
        cfg = quick_config()
        summary = run_study(cfg)
        for m in cfg.methods:
            ms = summary.methods[m]
            assert ms.n_used + ms.n_empty + ms.n_failed == cfg.n_reps
            if ms.n_used:
                assert 0.0 <= ms.coverage <= 1.0
                assert ms.length > 0

    def test_polyhedral_estimate_on_a_bound_keeps_its_replicate(self):
        # replicate 42 of this cell has polyhedral targets whose estimate sits
        # within ~1e-3 sd of a truncation bound, so that both interval
        # endpoints lie more than 50 sd beyond the estimate on one side
        rows, outcomes = _run_replicate(SimConfig(seed=12345, methods=("polyhedral",)), 42)
        assert outcomes == {"polyhedral": rows[0]["f1"]}
        assert all(r["lower"] < r["upper"] for r in rows)
        assert any(r["length"] > 100.0 and not r["clipped"] for r in rows)

    def test_unmatchable_split_fails_only_the_exact_method(self):
        # round(0.99 * 20) = n leaves no held-out rows to match tau2 to
        cfg = quick_config(n=20, p=5, rho=0.99, n_reps=2, methods=("exact", "polyhedral"))
        summary = run_study(cfg)
        assert summary.methods["exact"].n_failed == 2
        assert summary.methods["polyhedral"].n_failed == 0

    def test_config_validation(self):
        with pytest.raises(InvalidArgumentError):
            quick_config(rho=1.2)
        with pytest.raises(InvalidArgumentError):
            quick_config(methods=("nope",))
        with pytest.raises(InvalidArgumentError):
            quick_config(n_reps=0)


class TestValidateUniformity:
    def test_structure_and_determinism(self):
        cfg = quick_config(
            n=80, p=10, sparsity=2, n_reps=90, methods=("exact",), signal_fraction=1.5
        )
        a = validate_pivot_uniformity(cfg)
        b = validate_pivot_uniformity(cfg)
        assert a["exact"].n_pooled == b["exact"].n_pooled >= 200
        assert a["exact"].statistic == b["exact"].statistic
        assert 0.0 <= a["exact"].p_value <= 1.0

    def test_failed_target_is_counted_and_the_rest_pooled(self, monkeypatch):
        cfg = quick_config(
            n=80, p=10, sparsity=2, n_reps=90, methods=("exact",), signal_fraction=1.5
        )
        clean = validate_pivot_uniformity(cfg)["exact"]
        real_params = study.pivot_params
        fits = []

        def flaky(*args, **kwargs):
            # the first target of the third fit fails alone
            params, errors = real_params(*args, **kwargs)
            fits.append(None)
            if len(fits) == 3:
                errors = [NumericalDegeneracyError("injected"), *errors[1:]]
                params = take(params, list(range(1, len(errors))))
            return params, errors

        monkeypatch.setattr(study, "pivot_params", flaky)
        got = validate_pivot_uniformity(cfg)["exact"]
        assert clean.n_failed == 0
        assert got.n_failed == 1
        assert got.n_pooled == clean.n_pooled - 1

        # a pivot call that raises fails every target of its fit, and only those
        monkeypatch.setattr(study, "pivot_params", real_params)
        real_pivot = study.exact_pivot
        calls = []

        def broken(params, beta0):
            calls.append(np.size(beta0))
            if len(calls) == 3:
                raise NumericalDegeneracyError("injected")
            return real_pivot(params, beta0)

        monkeypatch.setattr(study, "exact_pivot", broken)
        got = validate_pivot_uniformity(cfg)["exact"]
        assert got.n_failed == calls[2] >= 1
        assert got.n_pooled == clean.n_pooled - calls[2]

    def test_requires_exact(self):
        cfg = quick_config(methods=("polyhedral",))
        with pytest.raises(InvalidArgumentError):
            validate_pivot_uniformity(cfg)

    def test_insufficient_sample(self):
        cfg = quick_config(n_reps=2, methods=("exact",))
        with pytest.raises(InsufficientSampleError):
            validate_pivot_uniformity(cfg)


def test_study_and_validate_solve_without_ridge_on_wide_designs(monkeypatch):
    seen = []
    for name in ("solve_randomized_lasso", "lasso_event_rep"):
        real = getattr(study, name)

        def record(*args, _real=real, **kwargs):
            seen.append(kwargs["epsilon"])
            return _real(*args, **kwargs)

        monkeypatch.setattr(study, name, record)
    cfg = quick_config(n=30, p=40, n_reps=2, methods=("exact", "polyhedral"))
    _run_replicate(cfg, 0)
    with pytest.raises(InsufficientSampleError):
        validate_pivot_uniformity(cfg)
    assert seen and set(seen) == {0.0}


def test_one_factorization_per_fit(monkeypatch):
    """Every target of a fit shares its factorizations and its solves: all
    targets make as many condition checks, rank tests, Cholesky
    factorizations and triangular solves as one does.  An exact fit solves for the contrasts,
    Omega^{-1} Q, Theta, and the cores and directions of its pivot constants;
    a polyhedral fit for the contrasts and the two solves of its polyhedron."""
    config = SimConfig()
    X = generate_design(config.n, config.p, config.corr, _seed_for(config.seed, 0, 0))
    y, _ = generate_response(
        X, support_indices(config.p, config.sparsity), config.signal_fraction,
        config.sigma2, _seed_for(config.seed, 0, 1),
    )
    data = Dataset(y=y, X=X)
    cal = calibrate(data, ("exact", "polyhedral"), rho=config.rho, epsilon=0.0)
    calls = []

    def counted(name, real):
        def call(mat, *args, **kwargs):
            # a solve's first argument is a factor: its size is not counted
            calls.append((name, None if name == "cho_solve" else np.shape(mat)))
            return real(mat, *args, **kwargs)

        return call

    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    # the rank test and the factorizations it guards live in numerics
    monkeypatch.setattr(numerics, "dpstrf", counted("dpstrf", numerics.dpstrf))
    for module in (conditioning, numerics):
        monkeypatch.setattr(module, "cho_factor", counted("cho_factor", module.cho_factor))
    for module in (conditioning, inference):
        monkeypatch.setattr(module, "cho_solve", counted("cho_solve", module.cho_solve))

    def factorizations(method, all_targets):
        seed = _seed_for(config.seed, 0, 2)
        fit = fit_method(data, cal, method, config.model, config.alpha, seed)
        assert fit.selected.size >= 2
        calls.clear()
        for j in range(fit.selected.size if all_targets else 1):
            fit.interval(j)
        return list(calls)

    p_by_p = (config.p, config.p)
    for method, solves in (("exact", 4), ("polyhedral", 3)):
        one, every = factorizations(method, False), factorizations(method, True)
        assert one and every == one
        assert [name for name, _ in every].count("cho_solve") == solves
        big = [name for name, shape in every if shape == p_by_p]
        assert big == (["eigvalsh", "cho_factor"] if method == "exact" else [])


@pytest.mark.parametrize("sigma", [None, 1.7])
def test_duplicated_column_gives_exact_intervals(sigma):
    """``exactsi infer --rho 0.8`` (known sigma 1.7, or the plug-in) on 300x100
    AR(0.5) designs whose column 99 repeats column 0.  X'X is singular, so the
    randomization covariance gets its jitter and the full-model plug-in fits
    the independent columns: every exact target gets its interval."""
    for seed in range(20):
        X = generate_design(300, 100, 0.5, seed)
        X[:, 99] = X[:, 0]
        y, _ = generate_response(X, support_indices(100, 5), 0.75, 3.0, seed + 1)
        data = Dataset(y=y, X=X, sigma=sigma)
        fit = fit_method(data, calibrate(data, ("exact",), rho=0.8), "exact", "selected", 0.1, 0)
        assert fit.selected.size
        for j in range(fit.selected.size):
            fit.interval(j)


def test_calibrate_checks_method_options():
    rng = np.random.default_rng(1)
    data = Dataset(y=rng.standard_normal(30), X=rng.standard_normal((30, 4)))
    with pytest.raises(InvalidArgumentError, match="exactly one of --rho or --tau2"):
        calibrate(data, ("exact",))
    with pytest.raises(InvalidArgumentError, match="exactly one of --rho or --tau2"):
        calibrate(data, ("exact",), rho=0.8, tau2=1.0)
    with pytest.raises(InvalidArgumentError, match="--tau2 must be positive"):
        calibrate(data, ("exact",), tau2=0.0)
    with pytest.raises(InvalidArgumentError, match="uv inference needs --rho"):
        calibrate(data, ("polyhedral", "uv"))
    assert calibrate(data, ("polyhedral",)).tau2 is None


def test_theory_lambda_scale():
    X = generate_design(200, 50, 0.0, seed=3)
    lam = theory_lambda(X, sigma_hat=2.0)
    mean_norm = np.mean(np.sqrt((X**2).sum(axis=0)))
    assert lam == pytest.approx(2.0 * math.sqrt(2 * math.log(50)) * mean_norm)
