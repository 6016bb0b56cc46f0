import json
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import take

from exactsi import conditioning, inference, numerics, selection, study
from exactsi.cli import _summary_json
from exactsi.errors import (
    InsufficientSampleError,
    InvalidArgumentError,
    NumericalDegeneracyError,
    SingularDesignError,
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

    @pytest.mark.parametrize(
        "n, p, corr",
        [(300, 100, 0.9), (600, 300, 0.5), (300, 100, 0.3), (50, 80, 0.7), (7, 1, -0.4)],
    )
    def test_matches_the_column_recursion(self, n, p, corr):
        """Bit for bit the recursion run column by column on the draws, and
        C-contiguous as that X is."""
        for seed in range(5):
            z = np.random.default_rng(seed).standard_normal((n, p))
            want = np.empty_like(z)
            want[:, 0] = z[:, 0]
            for j in range(1, p):
                want[:, j] = corr * want[:, j - 1] + math.sqrt(1.0 - corr * corr) * z[:, j]
            got = generate_design(n, p, corr, seed)
            assert np.array_equal(got, want) and got.flags.c_contiguous


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
            # more than one chunk of replicates, so that a pool of two runs
            quick_config(n_reps=8, methods=("exact", "polyhedral")),
        ],
        ids=["default", "all_empty", "exact_fails", "two_chunks"],
    )
    def test_reproducible_and_parallel_identical(self, cfg):
        a = run_study(cfg, workers=1)
        b = run_study(cfg, workers=2)
        assert a.rows == b.rows
        for m in cfg.methods:
            assert a.methods[m] == b.methods[m]

    @pytest.mark.parametrize("workers", [0, -1])
    def test_fewer_than_one_worker_is_rejected(self, workers):
        with pytest.raises(InvalidArgumentError, match="workers must be at least 1"):
            run_study(quick_config(n_reps=1), workers=workers)

    @pytest.mark.parametrize(
        "workers, n_reps, cores, pool",
        [
            (500, 2, 64, None),  # one chunk: no pool
            (500, 9, 64, 3),  # three chunks of at most four replicates
            (500, 40, 2, 2),  # two cores
            (3, 40, 64, 3),  # as many as asked for
            (2, 1, 64, None),  # one replicate
        ],
    )
    def test_pool_is_capped_by_chunks_and_cores(self, monkeypatch, workers, n_reps, cores, pool):
        """A pool starts all its processes at once, so ``run_study`` asks for
        no more than min(workers, chunks of replicates, cores).  The pool is
        a recorder that maps in this process: no process is started.  Its
        processes would be forked from a forkserver."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, mp_context):
                sizes.append(max_workers)
                assert mp_context.get_start_method() == "forkserver"

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(study, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(study, "_cores", lambda: cores)
        cfg = quick_config(n_reps=n_reps, methods=("polyhedral",))
        summary = run_study(cfg, workers=workers)
        assert sizes == ([] if pool is None else [pool])
        assert summary.rows == run_study(cfg, workers=1).rows

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

    def test_rows_match_the_frozen_study(self):
        """Every method's rows at ``SimConfig(seed=12345, n_reps=20)`` agree
        with ``study_seed12345.json``: endpoints to 1e-9 max(1, |x|), and
        coordinates, covered flags, empty selections and failures by class
        exactly.  The file was written, with one BLAS thread, by

            import json
            from exactsi.study import KNOWN_METHODS, SimConfig, run_study

            summary = run_study(SimConfig(seed=12345, n_reps=20, methods=KNOWN_METHODS))
            rows = [[r["rep"], r["method"], r["coordinate"], r["lower"], r["upper"],
                     r["covered"]] for r in summary.rows]
            with open("tests/study_seed12345.json", "w", encoding="utf-8") as fh:
                fh.write('{"failures": %s,\\n' % json.dumps(
                    {m: s.failures for m, s in summary.methods.items()}))
                fh.write('"n_empty": %s,\\n' % json.dumps(
                    {m: s.n_empty for m, s in summary.methods.items()}))
                fh.write('"rows": [\\n%s\\n]}\\n' % ",\\n".join(json.dumps(r) for r in rows))
        """
        with open(Path(__file__).with_name("study_seed12345.json"), encoding="utf-8") as fh:
            frozen = json.load(fh)
        summary = run_study(SimConfig(seed=12345, n_reps=20, methods=study.KNOWN_METHODS))
        assert {m: s.failures for m, s in summary.methods.items()} == frozen["failures"]
        assert {m: s.n_empty for m, s in summary.methods.items()} == frozen["n_empty"]
        got = [[r["rep"], r["method"], r["coordinate"], r["lower"], r["upper"], r["covered"]]
               for r in summary.rows]
        assert [r[:3] + r[5:] for r in got] == [r[:3] + r[5:] for r in frozen["rows"]]
        ends, want = np.array([r[3:5] for r in got]), np.array([r[3:5] for r in frozen["rows"]])
        assert (np.abs(ends - want) <= 1e-9 * np.maximum(1.0, np.abs(want))).all()

    def test_polyhedral_estimate_on_a_bound_keeps_its_replicate(self):
        # replicate 42 of this cell has polyhedral targets whose estimate sits
        # within ~1e-3 sd of a truncation bound, so that both interval
        # endpoints lie more than 50 sd beyond the estimate on one side
        rows, outcomes = _run_replicate(SimConfig(seed=12345, methods=("polyhedral",)), 42)
        assert outcomes == {"polyhedral": rows[0]["f1"]}
        assert all(r["lower"] < r["upper"] for r in rows)
        assert any(r["length"] > 100.0 and not r["clipped"] for r in rows)

    def test_failures_are_counted_by_class(self, monkeypatch):
        # the polyhedral fit of replicate 0 fails with one class, those of
        # replicates 1 and 2 with another, which sorts first
        real = study.fit_method
        raised = [SingularDesignError("injected"), NumericalDegeneracyError("injected"),
                  NumericalDegeneracyError("injected")]
        seen = []

        def flaky(data, cal, method, *args):
            if method == "polyhedral":
                seen.append(method)
                if len(seen) <= len(raised):
                    raise raised[len(seen) - 1]
            return real(data, cal, method, *args)

        monkeypatch.setattr(study, "fit_method", flaky)
        summary = run_study(quick_config(n_reps=4, methods=("polyhedral", "split")))
        poly, split = summary.methods["polyhedral"], summary.methods["split"]
        assert list(poly.failures.items()) == [
            ("NumericalDegeneracyError", 2), ("SingularDesignError", 1),
        ]
        assert poly.n_failed == 3 and poly.n_used + poly.n_empty == 1
        assert (split.failures, split.n_failed) == ({}, 0)
        written = _summary_json(summary)["methods"]["polyhedral"]
        assert list(written["failures"].items()) == list(poly.failures.items())
        assert written["n_failed"] == 3

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

    @pytest.mark.parametrize("rule", ["abc", "2.5", -1.0, 0, math.nan, math.inf, None])
    def test_lambda_rule_is_theory_or_a_positive_finite_number(self, rule):
        """A penalty every replicate would fail on is rejected up front."""
        with pytest.raises(InvalidArgumentError, match="lambda_rule must be 'theory' or"):
            quick_config(lambda_rule=rule)
        assert quick_config(lambda_rule=np.float64(2.5)).lambda_rule == 2.5


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
        assert (clean.n_failed, clean.failures) == (0, {})
        assert (got.n_failed, got.failures) == (1, {"NumericalDegeneracyError": 1})
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

        # a fit that raises counts once, under its own class, beside the
        # failed pivot call of the third fit
        real_fit = study.fit_method
        fits, broken_size = [], calls[2]
        calls.clear()

        def failing_fit(*args, **kwargs):
            fits.append(None)
            if len(fits) == 5:
                raise SingularDesignError("injected")
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(study, "fit_method", failing_fit)
        got = validate_pivot_uniformity(cfg)["exact"]
        assert got.failures == {
            "NumericalDegeneracyError": broken_size, "SingularDesignError": 1,
        }
        assert got.n_failed == broken_size + 1

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
    factorizations and triangular solves as one does.  The selected Gram is
    factored once per fit, for the plug-in, the contrasts and (polyhedral)
    the polyhedron.  An exact fit does not factor Omega: it reads the
    dataset's factor of X'X, made once by ``calibrate``'s full-model
    plug-in, and checks that factor's scaled condition once.  It factors
    the free-block precision, and solves for the plug-in, the contrasts,
    Omega^{-1} Q, Theta, and the cores and directions of its pivot
    constants; a polyhedral fit solves for the plug-in, the contrasts and,
    in one call, its polyhedron.  Every check and factorization runs inside
    the plug-in or one of the stages ``build_target``, ``build_geometry``
    and ``pivot_params`` (exact) or ``polyhedral_bounds``."""
    config = SimConfig()
    X = generate_design(config.n, config.p, config.corr, _seed_for(config.seed, 0, 0))
    y, _ = generate_response(
        X, support_indices(config.p, config.sparsity), config.signal_fraction,
        config.sigma2, _seed_for(config.seed, 0, 1),
    )
    calls = []
    stages = []  # the stages on the stack

    def counted(name, real):
        def call(mat, *args, **kwargs):
            # a solve's first argument is a factor: its size is not counted
            calls.append((name, None if name == "cho_solve" else np.shape(mat), bool(stages)))
            return real(mat, *args, **kwargs)

        return call

    def staged(name):
        real = getattr(study, name)

        def call(*args, **kwargs):
            stages.append(name)
            try:
                return real(*args, **kwargs)
            finally:
                stages.pop()

        return call

    # the rank test, the condition check and the factorizations live in
    # numerics, except the dataset's one factor of X'X
    for name in ("dpstrf", "dpocon", "cho_factor"):
        monkeypatch.setattr(numerics, name, counted(name, getattr(numerics, name)))
    monkeypatch.setattr(selection, "cho_factor", counted("cho_factor", selection.cho_factor))
    for module in (conditioning, inference):
        monkeypatch.setattr(module, "cho_solve", counted("cho_solve", module.cho_solve))
    for name in (
        "plug_in_sigma2", "build_target", "build_geometry", "pivot_params", "polyhedral_bounds"
    ):
        monkeypatch.setattr(study, name, staged(name))

    def factorizations(method, all_targets):
        # a new dataset each time, so that no factor is kept from the last fit
        data = Dataset(y=y, X=X)
        calls.clear()
        cal = calibrate(data, ("exact", "polyhedral"), rho=config.rho, epsilon=0.0)
        # the plug-in factors X'X, which is the randomization base here
        assert [(name, shape) for name, shape, _ in calls] == [
            ("dpstrf", p_by_p), ("cho_factor", p_by_p), ("cho_solve", None)
        ]
        calls.clear()
        seed = _seed_for(config.seed, 0, 2)
        fit = fit_method(data, cal, method, config.model, config.alpha, seed)
        assert fit.selected.size >= 2
        for j in range(fit.selected.size if all_targets else 1):
            fit.interval(j)
        return list(calls), fit.selected.size

    p_by_p = (config.p, config.p)
    for method, solves in (("exact", 5), ("polyhedral", 3)):
        (one, q), (every, _) = factorizations(method, False), factorizations(method, True)
        assert one and every == one
        assert [name for name, _, _ in every].count("cho_solve") == solves
        factored = [shape for name, shape, _ in every if name == "cho_factor"]
        checked = [shape for name, shape, _ in every if name == "dpocon"]
        if method == "exact":
            assert factored == [(q, q), (q, q)]
            assert checked == [(q, q), p_by_p, (q, q)]
        else:
            assert factored == checked == [(q, q)]
        assert "dpstrf" not in [name for name, _, _ in every]
        assert all(inside for _, _, inside in every)


def test_one_rank_test_per_dataset(monkeypatch):
    """The plug-in of ``calibrate``, the randomization covariance, the lasso
    and the full-model targets read one Gram of the dataset: an exact and a
    polyhedral fit of the full model, every interval included, run the rank
    test once on a p x p matrix."""
    shapes = []

    def dpstrf(mat, *args, **kwargs):
        shapes.append(mat.shape)
        return real(mat, *args, **kwargs)

    real = numerics.dpstrf
    monkeypatch.setattr(numerics, "dpstrf", dpstrf)
    X = generate_design(300, 100, 0.5, 3)
    y, _ = generate_response(X, support_indices(100, 5), 0.75, 3.0, 4)
    data = Dataset(y=y, X=X)
    cal = calibrate(data, ("exact", "polyhedral"), rho=0.8, epsilon=0.0)
    for method in ("exact", "polyhedral"):
        fit = fit_method(data, cal, method, "full", 0.1, 5)
        assert fit.selected.size
        for j in range(fit.selected.size):
            fit.interval(j)
    assert shapes.count((100, 100)) == 1
    assert not data.gram.flags.writeable


class _CountedResponse(np.ndarray):
    """A response that records the shape of every matrix it is multiplied by."""

    partners: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _CountedResponse) else x for x in inputs]
        if ufunc is np.matmul:
            self.partners.extend(
                np.shape(x) for x, y in zip(plain, inputs) if not isinstance(y, _CountedResponse)
            )
        return getattr(ufunc, method)(*plain, **kwargs)


def test_one_xty_per_dataset(monkeypatch):
    """``calibrate`` (its full-model plug-in), the polyhedral and uv lassos
    and the polyhedral fit of every target read one X'y of the dataset: the
    response meets a p x n matrix once, and that X'y is read-only."""
    monkeypatch.setattr(_CountedResponse, "partners", [])
    X = generate_design(300, 100, 0.5, 3)
    y, _ = generate_response(X, support_indices(100, 5), 0.75, 3.0, 4)
    data = Dataset(y=y, X=X)
    object.__setattr__(data, "y", data.y.view(_CountedResponse))
    cal = calibrate(data, ("polyhedral", "uv"), rho=0.8, epsilon=0.0)
    for method in ("polyhedral", "uv"):
        fit = fit_method(data, cal, method, "selected", 0.1, 5)
        assert fit.selected.size
        for j in range(fit.selected.size):
            fit.interval(j)
    assert _CountedResponse.partners.count((100, 300)) == 1
    assert not data.xty.flags.writeable


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
    lam = theory_lambda(Dataset(y=np.zeros(200), X=X), sigma_hat=2.0)
    mean_norm = np.mean(np.sqrt((X**2).sum(axis=0)))
    assert lam == pytest.approx(2.0 * math.sqrt(2 * math.log(50)) * mean_norm)
