import json
import math
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from conftest import read_frozen

from exactsi import conditioning, inference, numerics, selection, study
from exactsi.cli import _summary_json
from exactsi.errors import (
    ExactSIError,
    InsufficientSampleError,
    InvalidArgumentError,
    NumericalDegeneracyError,
    SingularDesignError,
)
from exactsi.selection import Dataset, default_epsilon
from exactsi.study import (
    _BLOCK,
    SimConfig,
    _per_target,
    _run_block,
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
            # round(0.99 * 20) = n: split fails in every replicate
            quick_config(n=20, p=5, rho=0.99, methods=("polyhedral", "split")),
            # more than one block of replicates, so that a pool of two runs
            quick_config(n_reps=_BLOCK + 1, methods=("exact", "polyhedral")),
        ],
        ids=["default", "all_empty", "split_fails", "two_chunks"],
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
            (500, 2, 64, None),  # one block: no pool
            (500, 9, 64, 3),  # three blocks of at most four replicates
            (500, 40, 2, 2),  # two cores
            (3, 40, 64, 3),  # as many as asked for
            (2, 1, 64, None),  # one replicate
        ],
    )
    def test_pool_is_capped_by_chunks_and_cores(self, monkeypatch, workers, n_reps, cores, pool):
        """A pool starts all its processes at once, so ``run_study`` asks for
        no more than min(workers, blocks of replicates, cores).  The cases
        count blocks of four replicates.  The pool is a recorder that maps in
        this process: no process is started.  Its processes would be forked
        from a forkserver."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, mp_context):
                sizes.append(max_workers)
                assert mp_context.get_start_method() == "forkserver"

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(study, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(study, "_BLOCK", 4)
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
        exactly.  Re-freeze it at one BLAS thread, as ``read_frozen`` says."""
        summary = run_study(SimConfig(seed=12345, n_reps=20, methods=study.KNOWN_METHODS))
        failures = {m: s.failures for m, s in summary.methods.items()}
        n_empty = {m: s.n_empty for m, s in summary.methods.items()}
        got = [[r["rep"], r["method"], r["coordinate"], r["lower"], r["upper"], r["covered"]]
               for r in summary.rows]
        frozen = read_frozen(Path(__file__).with_name("study_seed12345.json"), (
            '{"failures": %s,\n"n_empty": %s,\n"rows": [\n%s\n]}\n'
            % (json.dumps(failures), json.dumps(n_empty), ",\n".join(map(json.dumps, got)))
        ))
        assert failures == frozen["failures"]
        assert n_empty == frozen["n_empty"]
        assert [r[:3] + r[5:] for r in got] == [r[:3] + r[5:] for r in frozen["rows"]]
        ends, want = np.array([r[3:5] for r in got]), np.array([r[3:5] for r in frozen["rows"]])
        assert (np.abs(ends - want) <= 1e-9 * np.maximum(1.0, np.abs(want))).all()

    def test_polyhedral_estimate_on_a_bound_keeps_its_replicate(self):
        # replicate 42 of this cell has polyhedral targets whose estimate sits
        # within ~1e-3 sd of a truncation bound, so that both interval
        # endpoints lie more than 50 sd beyond the estimate on one side
        ((rows, outcomes),) = _run_block(SimConfig(seed=12345, methods=("polyhedral",)), [42])
        assert outcomes == {"polyhedral": rows[0]["f1"]}
        assert all(r["lower"] < r["upper"] for r in rows)
        assert any(r["length"] > 100.0 for r in rows)

    def test_failures_are_counted_by_class(self, monkeypatch):
        # the polyhedral lasso of replicate 0 fails with one class, those of
        # replicates 1 and 2 with another, which sorts first; split runs its
        # lasso by its own name
        real = study.solve_randomized_lasso
        raised = [SingularDesignError("injected"), NumericalDegeneracyError("injected"),
                  NumericalDegeneracyError("injected")]
        seen = []

        def flaky(*args, **kwargs):
            seen.append(None)
            if len(seen) <= len(raised):
                raise raised[len(seen) - 1]
            return real(*args, **kwargs)

        monkeypatch.setattr(study, "solve_randomized_lasso", flaky)
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

    def test_unmatchable_split_is_rejected_for_exact_and_uv(self):
        """round(0.99 * 20) = n leaves no held-out rows to match tau2 to:
        a study of exact or uv is rejected at construction, as ``calibrate``
        rejects it.  Before, the exact method failed in every replicate.
        Split fails only its own fits."""
        for methods in (("exact", "polyhedral"), ("uv",)):
            with pytest.raises(InvalidArgumentError, match="^need 0 < n1 < n, got n1=20, n=20$"):
                quick_config(n=20, p=5, rho=0.99, n_reps=2, methods=methods)
        cfg = quick_config(n=20, p=5, rho=0.99, n_reps=2, methods=("polyhedral", "split"))
        summary = run_study(cfg)
        assert summary.methods["split"].n_failed == 2
        assert summary.methods["polyhedral"].n_failed == 0

    def test_config_validation(self):
        with pytest.raises(InvalidArgumentError):
            quick_config(rho=1.2)
        with pytest.raises(InvalidArgumentError):
            quick_config(methods=("nope",))
        with pytest.raises(InvalidArgumentError):
            quick_config(n_reps=0)
        with pytest.raises(InvalidArgumentError, match="^seed must be nonnegative, got -1$"):
            quick_config(seed=-1)

    @pytest.mark.parametrize("rule", ["abc", "2.5", -1.0, 0, math.nan, math.inf, None])
    def test_lambda_rule_is_theory_or_a_positive_finite_number(self, rule):
        """A penalty every replicate would fail on is rejected up front."""
        with pytest.raises(InvalidArgumentError, match="lambda_rule must be 'theory' or"):
            quick_config(lambda_rule=rule)
        assert quick_config(lambda_rule=np.float64(2.5)).lambda_rule == 2.5

    def test_theory_penalty_needs_two_features(self, monkeypatch):
        """At p = 1 the theory penalty is 0, as sqrt(2 log p) is: ``SimConfig``
        and ``calibrate`` reject it, the latter before its plug-in fit, with
        a message that names the cause and ``--lambda``.  Unchecked, every
        replicate and every ``calibrate`` failed on "penalty 0.0 is not
        finite and positive".  A given penalty is accepted."""
        cause = "theory penalty is 0 at p = 1 (sqrt(2 log p) = 0): give one with --lambda"
        message = f"^{re.escape(cause)}$"
        with pytest.raises(InvalidArgumentError, match=message):
            quick_config(p=1, sparsity=1)
        assert quick_config(p=1, sparsity=1, lambda_rule=5.0).lam == 5.0
        rng = np.random.default_rng(1)
        data = Dataset(y=rng.standard_normal(40), X=rng.standard_normal((40, 1)))
        with monkeypatch.context() as patch:
            patch.setattr(study, "plug_in_sigma2", lambda *args: pytest.fail("plug-in fit"))
            with pytest.raises(InvalidArgumentError, match=message):
                calibrate(data, ("exact",), rho=0.8)
        assert calibrate(data, ("exact",), lam=5.0, rho=0.8).lam == 5.0


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
            # the first target of the third fit fails alone, and keeps its
            # row with NaN constants, as pivot_params leaves a failed target
            params, errors = real_params(*args, **kwargs)
            fits.append(None)
            if len(fits) == 3:
                errors = [NumericalDegeneracyError("injected"), *errors[1:]]
                first = np.arange(len(errors)) == 0
                params = replace(params, **{
                    name: np.where(first, math.nan, getattr(params, name))
                    for name in ("sigma_j2", "lambda_j", "zeta_j")
                })
            return params, errors

        monkeypatch.setattr(study, "pivot_params", flaky)
        got = validate_pivot_uniformity(cfg)["exact"]
        assert (clean.n_failed, clean.failures) == (0, {})
        assert (got.n_failed, got.failures) == (1, {"NumericalDegeneracyError": 1})
        assert got.n_pooled == clean.n_pooled - 1

        # a pivot call that raises fails every target of its block, and only
        # those: the third block.  Blocks of four replicates leave at least
        # 200 pivots to pool
        monkeypatch.setattr(study, "pivot_params", real_params)
        monkeypatch.setattr(study, "_BLOCK", 4)
        real_pivot = study.exact_pivot
        calls = []

        def broken(params, beta0):
            calls.append(np.size(beta0))
            if len(calls) == 3:
                raise NumericalDegeneracyError("injected")
            return real_pivot(params, beta0)

        monkeypatch.setattr(study, "exact_pivot", broken)
        got = validate_pivot_uniformity(cfg)["exact"]
        assert len(calls) == -(-cfg.n_reps // 4)
        assert got.n_failed == calls[2] >= 1
        assert got.n_pooled == clean.n_pooled - calls[2]

        # a fit whose randomization draw fails counts once, under its own
        # class, beside the failed pivot call of the third block
        real_draw = study.sample_randomization
        fits, broken_size = [], calls[2]
        calls.clear()

        def failing_draw(*args, **kwargs):
            fits.append(None)
            if len(fits) == 5:
                raise SingularDesignError("injected")
            return real_draw(*args, **kwargs)

        monkeypatch.setattr(study, "sample_randomization", failing_draw)
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


def test_study_and_validate_take_the_ridge_of_infer_on_wide_designs(monkeypatch):
    """On a 30 x 40 cell, every exact lasso solve and event representation
    of the study and of the uniformity check reads the ridge that
    ``calibrate`` gives ``infer``, ``default_epsilon`` of its dataset, which
    is positive at p > n; the polyhedral lasso, whose w is zero, has none."""
    seen = []
    for name in ("solve_randomized_lasso", "lasso_event_rep"):
        real = getattr(study, name)

        def record(data, *args, _real=real, **kwargs):
            exact = "w" not in kwargs or kwargs["w"].any()
            seen.append((exact, kwargs["epsilon"], default_epsilon(data)))
            return _real(data, *args, **kwargs)

        monkeypatch.setattr(study, name, record)
    cfg = quick_config(n=30, p=40, n_reps=2, methods=("exact", "polyhedral"))

    def check(calls):
        exact = [(eps, want) for is_exact, eps, want in calls if is_exact]
        assert exact and all(eps == want > 0 for eps, want in exact)
        assert {eps for is_exact, eps, _ in calls if not is_exact} == {0.0}

    _run_block(cfg, [0])
    check(seen)
    seen.clear()
    with pytest.raises(InsufficientSampleError):
        validate_pivot_uniformity(cfg)
    check(seen)


def intervals(fit):
    """Every target's interval of ``fit``, by ``infer``; raises the error of
    its first failed target."""
    (results,) = study.infer([fit], 0.1)
    for result in results:
        if isinstance(result, ExactSIError):
            raise result
    return results


def test_one_factorization_per_fit(monkeypatch):
    """Every target of a fit shares its factorizations and its solves, and
    inverting them adds none: a fit with every interval taken makes as many
    condition checks, rank tests, Cholesky factorizations and triangular
    solves as the fit alone.  The selected Gram is
    factored once per fit, for the plug-in, the contrasts and (polyhedral)
    the polyhedron.  An exact fit does not factor Omega: it reads the
    dataset's factor of X'X, made once by ``calibrate``'s full-model
    plug-in, and checks that factor's scaled condition once, at the draw,
    where it decides that X'X is the randomization base.  It factors
    the free-block precision, and solves for the plug-in, the contrasts,
    Omega^{-1} Q, Theta, and the cores and directions of its pivot
    constants; a polyhedral fit solves for the plug-in, the contrasts and,
    in one call, its polyhedron.  Every check and factorization runs inside
    the plug-in, the draw or one of the stages ``build_target``,
    ``build_geometry`` and ``pivot_params`` (exact) or ``polyhedral_bounds``."""
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

    # the rank test, the condition check and every factorization live in
    # numerics, the dataset's one factor of X'X too (``try_cho_factor``)
    for name in ("dpstrf", "dpocon", "cho_factor"):
        monkeypatch.setattr(numerics, name, counted(name, getattr(numerics, name)))
    for module in (conditioning, inference):
        monkeypatch.setattr(module, "cho_solve", counted("cho_solve", module.cho_solve))
    for name in (
        "plug_in_sigma2", "sample_randomization", "build_target", "build_geometry",
        "pivot_params", "polyhedral_bounds",
    ):
        monkeypatch.setattr(study, name, staged(name))

    def factorizations(method, invert):
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
        fit = fit_method(data, cal, method, config.model, seed)
        assert fit.selected.size >= 2
        if invert:
            intervals(fit)
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
            assert checked == [p_by_p, (q, q), (q, q)]
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
        fit = fit_method(data, cal, method, "full", 5)
        assert fit.selected.size
        intervals(fit)
    assert shapes.count((100, 100)) == 1
    assert not data.gram.flags.writeable


def test_validate_forms_the_statistics_of_its_design_once(monkeypatch):
    """The uniformity check's design is fixed and its noise known, so one
    ``validate`` call calibrates once, runs no rank test and factors the
    p x p Gram, its randomization base, once, however many replicates it
    draws: each replicate's dataset shares the statistics of X
    (``Dataset.with_response``)."""
    shapes, ranks, calibrations = [], [], []
    real_factor, real_calibrate = selection.try_cho_factor, study.calibrate

    def counted_factor(mat):
        shapes.append(mat.shape)
        return real_factor(mat)

    def calibrate_counted(*args, **kwargs):
        calibrations.append(None)
        return real_calibrate(*args, **kwargs)

    monkeypatch.setattr(selection, "try_cho_factor", counted_factor)
    monkeypatch.setattr(numerics, "dpstrf", lambda *args: ranks.append(args))
    monkeypatch.setattr(study, "calibrate", calibrate_counted)
    cfg = quick_config(n=80, p=10, sparsity=2, n_reps=90, methods=("exact",), signal_fraction=1.5)
    assert validate_pivot_uniformity(cfg)["exact"].n_pooled >= 200
    assert shapes.count((10, 10)) == 1 and ranks == [] and len(calibrations) == 1


def test_a_new_response_shares_the_statistics_of_x():
    """``with_response`` shares X and its store of the statistics of X, by
    identity, whether formed before or after it; it checks the new response
    only, and forms X'y of its own response."""
    rng = np.random.default_rng(5)
    data = Dataset(y=rng.standard_normal(30), X=rng.standard_normal((30, 4)))
    names = ("gram",)
    kept = [getattr(data, name) for name in names] + [data.factor()]
    y = rng.standard_normal(30)
    other = data.with_response(y)
    assert other.X is data.X and other._design is data._design
    got = [getattr(other, name) for name in names] + [other.factor()]
    assert all(a is b for a, b in zip(got, kept))
    selected = np.array([0, 2])
    assert other.factor(selected) is data.factor(selected)
    assert other.xty.tolist() == Dataset(y=y, X=data.X).xty.tolist()
    with pytest.raises(InvalidArgumentError, match="^data contains NaN or Inf$"):
        data.with_response(np.full(30, np.nan))


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
        fit = fit_method(data, cal, method, "selected", 5)
        assert fit.selected.size
        intervals(fit)
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
        data = Dataset(y=y, X=X)
        cal = calibrate(data, ("exact",), rho=0.8, sigma=sigma)
        fit = fit_method(data, cal, "exact", "selected", 0)
        assert fit.selected.size
        intervals(fit)


def test_failed_target_keeps_its_row(monkeypatch):
    """A target that fails in ``pivot_params`` keeps its row of the fit's
    constants, with a NaN pivot, and its own error; every other target's
    interval is the one it gets in the clean fit, bit for bit."""
    X = generate_design(300, 100, 0.5, 3)
    y, _ = generate_response(X, support_indices(100, 5), 0.75, 3.0, 4)
    data = Dataset(y=y, X=X)
    cal = calibrate(data, ("exact",), rho=0.8)
    clean = fit_method(data, cal, "exact", "selected", 0)
    k = clean.selected.size
    assert k >= 3 and clean.errors == [None] * k
    real_params = study.pivot_params

    def precision_lost(geom, target, sigma):
        # target 1's combination gets an infinite conditional variance, so
        # that its precision is not positive
        vartheta2 = geom.vartheta2.copy()
        vartheta2[1] = math.inf
        return real_params(replace(geom, vartheta2=vartheta2), target, sigma=sigma)

    monkeypatch.setattr(study, "pivot_params", precision_lost)
    fit = fit_method(data, cal, "exact", "selected", 0)
    constants = fit.constants
    assert {np.shape(getattr(constants, f.name)) for f in fields(constants)} == {(k,)}
    assert [j for j, e in enumerate(fit.errors) if e] == [1]
    assert str(fit.errors[1]).startswith("nonpositive precision")
    pivots = inference.exact_pivot(constants, constants.beta_hat_j)
    assert np.isnan(pivots).tolist() == [j == 1 for j in range(k)]
    assert _per_target([fit], beta0s=[constants.beta_hat_j])[0][1] is fit.errors[1]
    (got_all,), (want_all,) = study.infer([fit], 0.1), study.infer([clean], 0.1)
    assert got_all[1] is fit.errors[1]
    with pytest.raises(NumericalDegeneracyError, match="nonpositive precision"):
        intervals(fit)
    # entry j of each is target j, feature selected[j] of both fits
    assert fit.selected.tolist() == clean.selected.tolist()
    assert len(got_all) == len(want_all) == k
    for j in [j for j in range(k) if j != 1]:
        got, want = got_all[j], want_all[j]
        assert (got.lower, got.upper) == (want.lower, want.upper)


# A stage of each method that runs before any of its targets, as the
# pipeline names it.
BEFORE_TARGETS = {
    "exact": "sample_randomization",
    "polyhedral": "solve_randomized_lasso",
    "split": "split_inference",
    "uv": "uv_inference",
}


class TestFitMethodErrors:
    """``fit_method`` returns a ``Fit`` whatever the data: an error raised
    before any target is the one entry of ``errors`` of a fit that selected
    nothing, and one raised after selection is the error of every target.
    Either is stripped of its traceback, which would keep the dataset alive.
    Only a bad argument, a fault of the caller, raises, before any stage."""

    @pytest.fixture(scope="class")
    def fitted(self):
        X = generate_design(300, 100, 0.5, 3)
        y, _ = generate_response(X, support_indices(100, 5), 0.75, 3.0, 4)
        data = Dataset(y=y, X=X)
        cal = calibrate(data, study.KNOWN_METHODS, rho=0.8)
        clean = {m: fit_method(data, cal, m, "selected", 5) for m in study.KNOWN_METHODS}
        assert all(fit.selected.size and not any(fit.errors) for fit in clean.values())
        return data, cal, clean

    @staticmethod
    def raising(exc):
        def broken(*args, **kwargs):
            raise exc

        return broken

    @pytest.mark.parametrize("method", study.KNOWN_METHODS)
    def test_failure_before_any_target(self, fitted, monkeypatch, method):
        data, cal, _ = fitted
        exc = SingularDesignError("injected")
        monkeypatch.setattr(study, BEFORE_TARGETS[method], self.raising(exc))
        fit = fit_method(data, cal, method, "selected", 5)
        assert (fit.method, fit.selected.size, fit.constants) == (method, 0, None)
        assert fit.errors == [exc] and exc.__traceback__ is None
        assert study.infer([fit], 0.1) == [[exc]]

    @pytest.mark.parametrize("method", study.KNOWN_METHODS)
    def test_failure_after_selection(self, fitted, monkeypatch, method):
        # every method builds its targets by ``build_target`` after selection
        data, cal, clean = fitted
        exc = SingularDesignError("injected")
        monkeypatch.setattr(study, "build_target", self.raising(exc))
        fit = fit_method(data, cal, method, "selected", 5)
        want = clean[method]
        assert fit.selected.tolist() == want.selected.tolist()
        assert fit.constants is None and exc.__traceback__ is None
        assert len(fit.errors) == fit.selected.size and all(e is exc for e in fit.errors)

    def test_unknown_method_raises(self, fitted):
        data, cal, _ = fitted
        with pytest.raises(InvalidArgumentError, match="^unknown method 'nope'$"):
            fit_method(data, cal, "nope", "selected", 5)

    @pytest.mark.parametrize("method, model, seed, options, message", [
        ("exact", "bogus", 1, {"rho": 0.8}, "unknown model 'bogus'"),
        ("polyhedral", "bogus", 1, {}, "unknown model 'bogus'"),
        ("exact", "selected", -1, {"rho": 0.8}, "seed must be nonnegative, got -1"),
        ("split", "selected", 5, {"tau2": 1.0}, "split inference needs --rho"),
        ("uv", "selected", 5, {}, "give exactly one of --rho or --tau2"),
        ("exact", "selected", 5, {}, "give exactly one of --rho or --tau2"),
        # a calibration for neither randomized method resolves no tau2
        ("uv", "selected", 5, {"rho": 0.8}, "no tau2 was resolved for uv: calibrate with it"),
    ])
    def test_bad_argument_raises_before_any_stage(
        self, fitted, monkeypatch, method, model, seed, options, message
    ):
        """Each argument rule of ``fit_method``'s entry, on a calibration
        that lacks nothing but what the case names.  Unchecked, the unknown
        model was every target's error, the negative seed escaped as numpy's
        ``ValueError``, and split on a tau2-only calibration met a
        ``TypeError``."""
        data = fitted[0]
        cal = calibrate(data, ("polyhedral",), **options)
        for stage in BEFORE_TARGETS.values():
            monkeypatch.setattr(study, stage, self.raising(AssertionError(f"{stage} ran")))
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
            fit_method(data, cal, method, model, seed)


@pytest.mark.parametrize("make, message", [
    (lambda: SimConfig(model="bogus"), "unknown model 'bogus'"),
    (lambda: SimConfig(corr=1.0), "corr must lie in (-1, 1)"),
    (lambda: generate_design(10, 3, 1.0, 0), "corr must lie in (-1, 1)"),
    (lambda: SimConfig(methods=("exact", "bogus")), "unknown method 'bogus'"),
    (lambda: SimConfig(methods=("uv", "uv")), "method 'uv' listed twice"),
])
def test_bad_study_argument_message(make, message):
    """``SimConfig`` and ``generate_design`` reject a bad argument by the
    rule that ``fit_method`` and ``calibrate`` use, with its message."""
    with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
        make()


def test_a_fit_in_a_block_gets_what_it_gets_alone():
    """``infer`` and the pivots step on one block give each fit, bit for bit,
    what it gets alone: endpoints and labels, or each failed
    target's error class and message.  One list of fits serves two levels.
    The block mixes two datasets, every method, an exact fit with one NaN
    constant row, one with an error of its own on a row of good constants, a
    fit whose constants a failed stage left None, and an empty fit."""
    cfg = quick_config()
    fits = []
    for rep_idx in range(2):
        X = generate_design(cfg.n, cfg.p, cfg.corr, _seed_for(cfg.seed, rep_idx, 0))
        y, _ = generate_response(
            X, support_indices(cfg.p, cfg.sparsity), cfg.signal_fraction, cfg.sigma2,
            _seed_for(cfg.seed, rep_idx, 1),
        )
        data = Dataset(y=y, X=X)
        cal = calibrate(data, cfg.methods, rho=cfg.rho, epsilon=0.0)
        for method in cfg.methods:
            fits.append(fit_method(data, cal, method, cfg.model, rep_idx + 5))
    exact = next(f for f in fits if f.method == "exact" and f.selected.size >= 2)
    lower = exact.constants.lower.copy()
    lower[1] = math.nan
    fits.append(replace(exact, constants=replace(exact.constants, lower=lower)))
    own = [None, NumericalDegeneracyError("own"), *[None] * (exact.selected.size - 2)]
    fits.append(replace(exact, errors=own))
    failed = [SingularDesignError("injected")] * exact.selected.size
    fits.append(replace(exact, constants=None, errors=failed))
    fits.append(study.Fit("polyhedral", np.zeros(0, dtype=int)))
    assert {f.method for f in fits if f.selected.size} == set(cfg.methods)
    assert not any(e for f in fits[:-4] for e in f.errors)

    def reprs(results):  # exact floats, classes and messages
        return [[repr(r) for r in each] for each in results]

    levels = {}
    for alpha in (0.1, 0.05):
        block = levels[alpha] = reprs(study.infer(fits, alpha))
        assert block == [reprs(study.infer([fit], alpha))[0] for fit in fits]
        assert block[-4][0].startswith("IntervalEstimate(")
        assert block[-4][1].startswith("NumericalDegeneracyError(")
        assert block[-3][0] == block[-4][0] and block[-3][1] == repr(own[1])
    assert levels[0.1] != levels[0.05]
    beta0s = [np.linspace(-1.0, 1.0, fit.selected.size) for fit in fits]
    block = reprs(_per_target(fits, beta0s=beta0s))
    assert block == [
        reprs(_per_target([fit], beta0s=[beta0]))[0] for fit, beta0 in zip(fits, beta0s)
    ]
    assert block[-4][1] == "nan" and block[-3][1] == repr(own[1])
    assert block[-2] == [repr(failed[0])] * len(failed)
    assert block[-1] == []


def test_a_degenerate_split_target_fails_alone():
    """Split and uv fits carry untruncated bounds, inverted in closed form:
    a split target whose sd is NaN, and one whose sd is 0, fail alone, and
    every other target of the block keeps its z-interval ``beta_hat -+ z
    sd``."""
    cfg = quick_config(methods=("split", "uv"))
    X = generate_design(cfg.n, cfg.p, cfg.corr, 2)
    y, _ = generate_response(
        X, support_indices(cfg.p, cfg.sparsity), cfg.signal_fraction, cfg.sigma2, 3
    )
    data = Dataset(y=y, X=X)
    cal = calibrate(data, cfg.methods, rho=cfg.rho, epsilon=0.0)
    split, uv = (fit_method(data, cal, method, cfg.model, 3) for method in cfg.methods)
    assert split.selected.size >= 3 and uv.selected.size
    assert split.outcome.selected.tolist() == split.selected.tolist()
    assert np.isinf(split.constants.lower).all()
    sd = split.constants.sd.copy()
    sd[0], sd[2] = math.nan, 0.0
    broken = replace(split, constants=replace(split.constants, sd=sd))
    got = study.infer([broken, split, uv], 0.1)
    z = 1.6448536269514722
    for fit, results in zip((split, uv), got[1:]):
        bounds = fit.constants
        # entry j is target j: row j of the bounds
        assert len(results) == fit.selected.size
        assert [(e.lower, e.upper) for e in results] == list(zip(
            (bounds.beta_hat - z * bounds.sd).tolist(), (bounds.beta_hat + z * bounds.sd).tolist(),
        ))
    assert [isinstance(e, InvalidArgumentError) for e in got[0]] == [
        j in (0, 2) for j in range(split.selected.size)
    ]
    assert [repr(e) for e in got[0][1:2] + got[0][3:]] == [
        repr(e) for e in got[1][1:2] + got[1][3:]
    ]


def test_calibrate_checks_method_options():
    rng = np.random.default_rng(1)
    data = Dataset(y=rng.standard_normal(30), X=rng.standard_normal((30, 4)))
    with pytest.raises(InvalidArgumentError, match="exactly one of --rho or --tau2"):
        calibrate(data, ("exact",))
    with pytest.raises(InvalidArgumentError, match="exactly one of --rho or --tau2"):
        calibrate(data, ("exact",), rho=0.8, tau2=1.0)
    with pytest.raises(InvalidArgumentError, match="^tau2 must be positive$"):
        calibrate(data, ("exact",), tau2=0.0)
    with pytest.raises(InvalidArgumentError, match="exactly one of --rho or --tau2"):
        calibrate(data, ("polyhedral", "uv"))
    with pytest.raises(InvalidArgumentError, match="exactly one of --rho or --tau2"):
        calibrate(data, ("uv",), rho=0.8, tau2=1.0)
    with pytest.raises(InvalidArgumentError, match="split inference needs --rho"):
        calibrate(data, ("uv", "split"), tau2=1.0)
    assert calibrate(data, ("polyhedral",)).tau2 is None
    assert calibrate(data, ("polyhedral", "split"), rho=0.8).tau2 is None
    assert calibrate(data, ("uv",), tau2=2.0).tau2 == 2.0


def test_randomized_methods_share_one_tau2():
    """``calibrate`` resolves tau2 once, for exact and uv alike: by the
    exact method's subsample rule at its noise variance and ``round(rho n)``."""
    rng = np.random.default_rng(1)
    data = Dataset(y=rng.standard_normal(30), X=rng.standard_normal((30, 4)))
    cal = calibrate(data, ("uv",), rho=0.8)
    assert cal.tau2 == selection.tau2_from_split(cal.sigma2, 30, 24)
    assert calibrate(data, ("exact", "uv"), rho=0.8) == cal


@pytest.mark.parametrize("rho, n1", [(0.01, 0), (0.99, 30)])
def test_a_split_share_of_no_rows_fails_exact_and_uv(rho, n1):
    """A ``round(rho n)`` of 0 or n rows matches no randomization variance:
    where exact or uv runs, the call fails before any fit.  Before, tau2 was
    resolved in the exact fit, which failed alone, and uv selected with a
    variance ratio that ignored the rounding.  Split still fails only its
    own fit."""
    rng = np.random.default_rng(1)
    data = Dataset(y=rng.standard_normal(30), X=rng.standard_normal((30, 4)))
    for method in ("exact", "uv"):
        with pytest.raises(InvalidArgumentError, match=f"^need 0 < n1 < n, got n1={n1}, n=30$"):
            calibrate(data, (method, "split"), rho=rho)
    fit = fit_method(data, calibrate(data, ("split",), rho=rho), "split", "selected", 0)
    assert [str(e) for e in fit.errors] == [f"split size n1={n1} leaves no usable half"]


def test_split_and_uv_target_the_full_model():
    """Under ``model="full"`` split's and uv's constants are the full-model
    statistics of ``build_target``: split's on its held-out rows with every
    column, at their full-model plug-in noise, and uv's on ``y - w sigma2 /
    tau2``.  Before, both gave selected-model constants under either model."""
    X = generate_design(120, 10, 0.5, 3)
    y, _ = generate_response(X, support_indices(10, 4), 0.75, 1.0, 4)
    data = Dataset(y=y, X=X)
    cal = calibrate(data, ("exact", "split", "uv"), rho=0.5)
    split, uv = (fit_method(data, cal, m, "full", 5) for m in ("split", "uv"))
    held_out = data.subset(np.random.default_rng(5).permutation(120)[60:])
    xtw = X.T @ (np.random.default_rng(5).standard_normal(120) * math.sqrt(cal.tau2))
    ratio = cal.sigma2 / cal.tau2
    for fit, rows, xty, variance in (
        (split, held_out, None, inference.plug_in_sigma2(held_out, split.selected, "full")),
        (uv, data, data.xty - xtw * ratio, cal.sigma2 * (1.0 + ratio)),
    ):
        assert fit.selected.size >= 2 and fit.errors == [None] * fit.selected.size
        target = conditioning.build_target(rows, fit.selected, "full", xty=xty)
        np.testing.assert_allclose(fit.constants.beta_hat, target.estimate, rtol=1e-12)
        np.testing.assert_allclose(fit.constants.sd, np.sqrt(variance * target.norm2), rtol=1e-12)


@pytest.mark.parametrize("sigma, model", [(None, "selected"), (1.5, "selected"), (None, "full")],
                         ids=["plug_in", "known", "full_model"])
def test_uv_takes_the_noise_of_exact_and_polyhedral(sigma, model):
    """uv's variance per unit of its target's norm2 is ``s2 (1 + s2 /
    tau2)``, and its estimate reads ``X'(y - w s2 / tau2)``, with s2 the
    noise variance of exact and polyhedral: the selected-model plug-in at
    unknown noise, sigma**2 when it is known, and ``calibrate``'s under the
    full model.  Before, uv read ``calibrate``'s under the selected model too."""
    X = generate_design(120, 10, 0.5, 3)
    y, _ = generate_response(X, support_indices(10, 4), 0.75, 1.0, 4)
    data = Dataset(y=y, X=X)
    cal = calibrate(data, ("exact", "uv"), rho=0.5, sigma=sigma)
    uv = fit_method(data, cal, "uv", model, 5)
    E = uv.selected
    assert E.size >= 2 and uv.errors == [None] * E.size
    s2 = {None: cal.sigma2, 1.5: 1.5**2}[sigma]
    if sigma is None and model == "selected":
        s2 = inference.plug_in_sigma2(data, E, "selected")
        assert abs(s2 / cal.sigma2 - 1.0) > 1e-3
    xtw = X.T @ (np.random.default_rng(5).standard_normal(120) * math.sqrt(cal.tau2))
    target = conditioning.build_target(data, E, model, xty=data.xty - xtw * (s2 / cal.tau2))
    np.testing.assert_allclose(uv.constants.sd**2 / target.norm2, s2 * (1.0 + s2 / cal.tau2),
                               rtol=1e-12)
    np.testing.assert_allclose(uv.constants.beta_hat, target.estimate, rtol=1e-12)


@pytest.mark.parametrize("n, p, rho, lam", [(300, 100, 0.8, None), (30, 60, 0.5, 20.0)])
def test_a_full_model_that_cannot_be_fitted_fails_split_and_uv(n, p, rho, lam):
    """Split's held-out rows (60 at the default cell's 300 x 100, rho 0.8)
    or the data (30 x 60) number no more than p: the full model cannot be
    fitted, and each selected target fails with ``SingularDesignError``, as
    the exact method's do.  Before, split and uv failed before any target
    and dropped their selection."""
    X = generate_design(n, p, 0.5, 3)
    y, _ = generate_response(X, support_indices(p, 4), 3.0, 1.0, 4)
    data = Dataset(y=y, X=X)
    cal = calibrate(data, ("exact", "split", "uv"), lam=lam, rho=rho)
    methods = ("split",) if n > p else ("exact", "split", "uv")
    for method in methods:
        fit = fit_method(data, cal, method, "full", 5)
        assert fit.selected.size >= 1 and len(fit.errors) == fit.selected.size
        assert fit.errors and all(isinstance(e, SingularDesignError) for e in fit.errors)


def test_theory_lambda_scale():
    X = generate_design(200, 50, 0.0, seed=3)
    lam = theory_lambda(Dataset(y=np.zeros(200), X=X), sigma_hat=2.0)
    mean_norm = np.mean(np.sqrt((X**2).sum(axis=0)))
    assert lam == pytest.approx(2.0 * math.sqrt(2 * math.log(50)) * mean_norm)
