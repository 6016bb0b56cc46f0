"""The selection-to-interval pipeline and the Monte-Carlo study built on it.

The pipeline is the one path from a dataset to per-target inference, shared
by ``run_study``, ``validate_pivot_uniformity`` and the CLI's ``select`` and
``infer``:

1. ``calibrate`` checks that each method has the options it needs and
   resolves the tuning constants of a dataset once: the noise variance
   (known if given, else the full-model plug-in when n > p, else var(y)),
   the penalty and the ridge term.  The plug-in fits the independent columns
   of X, and the randomization covariance is jittered when X'X loses one;
   both read the dataset's one Gram and rank test, and, when no column is
   lost, its one Cholesky factor of the Gram.
2. ``fit_method`` runs one method's selection.  For the exact method it
   draws the randomization (its variance given, or matched to a subsample
   split), solves the randomized lasso and builds the event
   representation (``randomized_selection``); for the polyhedral baseline it
   solves the plain lasso.  Split solves the lasso on a ``round(rho * n)``
   subsample with penalty ``rho * lam``, and uv on ``y + w`` with penalty
   ``sqrt(1 + f) * lam``, both matched to the carving calibration.
3. Every method's targets are the least-squares coefficients of
   ``build_target``.  The returned ``Fit`` builds the constants of all its
   targets once, by ``build_target -> build_geometry -> pivot_params``
   (exact) or ``build_target -> polyhedral_bounds`` (polyhedral), one record
   of arrays, from which callers take each target's interval or pivot value,
   or the error that stopped that target, and apply their own error policy.
   Split and uv return z-intervals whole: split from ``build_target`` and
   ``plug_in_sigma2`` on a dataset of its held-out rows and selected
   columns, uv from ``build_target`` on X'(y - w/f) at the known noise
   variance times ``1 + 1/f``.

The study generates sparse Gaussian regressions on an AR(1)-correlated
design, runs the exact randomized method next to the polyhedral,
data-splitting, and response-splitting baselines, and aggregates
false-coverage rates, interval lengths, and selection F1 scores with
Monte-Carlo standard errors.  Replicate randomness derives from (master
seed, replicate index), so worker scheduling cannot change results.
"""

from __future__ import annotations

import math
import multiprocessing
import numbers
import os
from collections import Counter
from collections.abc import Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .conditioning import build_geometry, build_target
from .errors import (
    ExactSIError,
    InsufficientSampleError,
    InvalidArgumentError,
    SingularDesignError,
)
from .inference import (
    IntervalEstimate,
    PivotParams,
    PolyhedralBounds,
    exact_pivot,
    invert_pivot,
    pivot_params,
    plug_in_sigma2,
    polyhedral_bounds,
    polyhedral_interval,
    polyhedral_pivot,
    split_inference,
    uv_inference,
)
from .selection import (
    Dataset,
    LinearEventRep,
    RandomizationScheme,
    SelectionOutcome,
    default_epsilon,
    lasso_event_rep,
    sample_randomization,
    solve_randomized_lasso,
    tau2_from_split,
)

KNOWN_METHODS = ("exact", "polyhedral", "split", "uv")

CSV_COLUMNS = (
    "rep",
    "method",
    "coordinate",
    "lower",
    "upper",
    "truth",
    "covered",
    "length",
    "f1",
    "selected_size",
)


@dataclass(frozen=True)
class SimConfig:
    """One study cell: data-generation settings, methods, and scale."""

    n: int = 300
    p: int = 100
    sparsity: int = 5
    signal_fraction: float = 0.75
    rho: float = 0.8
    corr: float = 0.9
    sigma2: float = 3.0
    n_reps: int = 300
    methods: tuple[str, ...] = ("exact",)
    model: str = "selected"
    lambda_rule: float | str = "theory"
    seed: int = 0
    alpha: float = 0.1

    def __post_init__(self):
        if not 0 < self.rho < 1:
            raise InvalidArgumentError("rho must lie in (0, 1)")
        if self.n < 2:
            raise InvalidArgumentError("n must be at least 2")
        if self.n_reps < 1:
            raise InvalidArgumentError("n_reps must be at least 1")
        if self.p < 1:
            raise InvalidArgumentError("p must be at least 1")
        if not self.sigma2 > 0:
            raise InvalidArgumentError("sigma2 must be positive")
        if not self.signal_fraction >= 0:
            raise InvalidArgumentError("signal_fraction must be nonnegative")
        if not 0 <= self.sparsity <= self.p:
            raise InvalidArgumentError("sparsity must lie in [0, p]")
        if not abs(self.corr) < 1:
            raise InvalidArgumentError("corr must lie in (-1, 1)")
        if self.model not in ("full", "selected"):
            raise InvalidArgumentError(f"unknown model {self.model!r}")
        if not 0 < self.alpha < 1:
            raise InvalidArgumentError("alpha must lie in (0, 1)")
        rule = self.lambda_rule
        if rule != "theory" and not (isinstance(rule, numbers.Real) and 0 < rule < math.inf):
            raise InvalidArgumentError(
                f"lambda_rule must be 'theory' or a positive finite number, not {rule!r}"
            )
        bad = set(self.methods) - set(KNOWN_METHODS)
        if bad:
            raise InvalidArgumentError(f"unknown methods {sorted(bad)}")
        object.__setattr__(self, "methods", tuple(self.methods))


@dataclass
class MethodSummary:
    """Aggregates for one method across replicates; ``failures`` counts the
    failed replicates by exception class name, sorted, and ``n_failed`` is
    their sum."""

    n_reps: int
    n_used: int
    n_empty: int
    n_failed: int
    failures: dict[str, int]
    coverage: float
    coverage_se: float
    length: float
    length_se: float
    f1: float
    f1_se: float
    clipped_rate: float


@dataclass
class StudySummary:
    """Study output: per-method aggregates plus one row per interval; a
    replicate in which a method selected nothing or failed is only counted."""

    config: SimConfig
    methods: dict[str, MethodSummary]
    rows: list[dict] = field(repr=False, default_factory=list)


@dataclass(frozen=True)
class UniformityReport:
    """KS test of pooled pivots; ``n_failed`` counts pivots that raised, and
    ``failures`` counts them by exception class name, sorted."""

    statistic: float
    p_value: float
    n_pooled: int
    n_failed: int
    failures: dict[str, int]


def _by_class(errors: list[ExactSIError]) -> dict[str, int]:
    """How many of ``errors`` each exception class has, by sorted class name."""
    return dict(sorted(Counter(type(e).__name__ for e in errors).items()))


def _seed_for(master: int, rep: int, stream: int) -> int:
    return int(np.random.SeedSequence([master, rep, stream]).generate_state(1)[0])


def generate_design(n: int, p: int, corr: float, seed: int) -> np.ndarray:
    """Rows i.i.d. N(0, Sigma) with Sigma_ij = corr^|i-j|, via the AR recursion
    ``x_j = corr x_{j-1} + sqrt(1 - corr^2) z_j`` over the features, run on
    contiguous feature rows; X is returned C-contiguous."""
    if not abs(corr) < 1:
        raise InvalidArgumentError("corr must lie in (-1, 1)")
    features = np.random.default_rng(seed).standard_normal((n, p)).T.copy()
    features[1:] *= math.sqrt(1.0 - corr * corr)
    for j in range(1, p):
        features[j] += corr * features[j - 1]
    return np.ascontiguousarray(features.T)


def support_indices(p: int, sparsity: int) -> np.ndarray:
    """Evenly spread signal support; falls back to a prefix on collisions."""
    if sparsity == 0:
        return np.zeros(0, dtype=int)
    idx = np.unique(np.round(np.linspace(0, p - 1, sparsity)).astype(int))
    if idx.size != sparsity:
        idx = np.arange(sparsity)
    return idx


def generate_response(
    X: np.ndarray, support: np.ndarray, f: float, sigma2: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sparse mean plus Gaussian noise: nonzero signals all sqrt(2 f log p)."""
    n, p = X.shape
    beta = np.zeros(p)
    if support.size:
        beta[support] = math.sqrt(2.0 * f * math.log(p))
    noise = np.random.default_rng(seed).standard_normal(n) * math.sqrt(sigma2)
    return X @ beta + noise, beta


def f1_score(E, E_star) -> float:
    """Selection accuracy: TP / (TP + (FP + FN) / 2); two empty sets score 1."""
    E, E_star = set(map(int, E)), set(map(int, E_star))
    tp = len(E & E_star)
    fp = len(E - E_star)
    fn = len(E_star - E)
    if tp == fp == fn == 0:
        return 1.0
    return 2 * tp / (2 * tp + fp + fn)


def true_projected_target(
    X: np.ndarray, E, E_star, beta_star: np.ndarray, model: str
) -> np.ndarray:
    """Per-coordinate estimands of the selected set under the chosen model."""
    E = np.asarray(E, dtype=int)
    beta_star = np.asarray(beta_star, dtype=float)
    if model == "full":
        return beta_star[E]
    if model != "selected":
        raise InvalidArgumentError(f"unknown model {model!r}")
    if E.size == 0:
        return np.zeros(0)
    XE = X[:, E]
    mean = X @ beta_star
    try:
        return np.linalg.solve(XE.T @ XE, XE.T @ mean)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("selected design is rank deficient") from exc


def theory_lambda(data: Dataset, sigma_hat: float) -> float:
    """Penalty at the noise scale: sigma * sqrt(2 log p) * mean column norm,
    the norms read from the Gram's diagonal."""
    mean_norm = float(np.mean(np.sqrt(np.diag(data.gram))))
    return sigma_hat * math.sqrt(2.0 * math.log(data.p)) * mean_norm


@dataclass(frozen=True)
class Calibration:
    """Tuning constants of one dataset, shared by every method run on it.

    ``sigma2`` is the pre-selection noise variance and ``known_sigma`` says
    whether it was given rather than estimated; ``epsilon`` is the ridge term
    of the randomized lasso.  The carving randomization variance is ``tau2``
    if given, else ``randomized_selection`` matches it to selection on a
    ``round(rho * n)`` subsample.
    """

    sigma2: float
    known_sigma: bool
    lam: float
    epsilon: float
    rho: float | None
    tau2: float | None


def calibrate(
    data: Dataset,
    methods: Sequence[str],
    lam: float | None = None,
    rho: float | None = None,
    tau2: float | None = None,
    epsilon: float | None = None,
) -> Calibration:
    """Check the options ``methods`` need and resolve the constants of ``data``.

    An exact method needs exactly one of ``rho`` and ``tau2``; split and uv
    need ``rho``; no method may be listed twice.  The noise variance is
    ``data.sigma ** 2`` if set, else the full-model plug-in when n > p, else
    var(y); the plug-in fits the independent columns of X (a duplicated column
    is left out) with n - rank degrees of freedom, read from the dataset's
    one Gram and rank test.  The penalty defaults to ``theory_lambda`` at
    that noise scale and the ridge term to ``default_epsilon``.
    """
    for method in methods:
        if methods.count(method) > 1:
            raise InvalidArgumentError(f"method {method!r} listed twice")
        if method == "exact":
            if (tau2 is None) == (rho is None):
                raise InvalidArgumentError("give exactly one of --rho or --tau2")
            if tau2 is not None and not tau2 > 0:
                raise InvalidArgumentError("--tau2 must be positive")
        elif method in ("split", "uv") and rho is None:
            raise InvalidArgumentError(f"{method} inference needs --rho")
    known = data.sigma is not None
    if known:
        sigma2 = data.sigma**2
    elif data.n > data.p:
        sigma2 = plug_in_sigma2(data, np.arange(data.p), "full")
    else:
        sigma2 = float(np.var(data.y, ddof=1))
    if lam is None:
        lam = theory_lambda(data, math.sqrt(sigma2))
    if epsilon is None:
        epsilon = default_epsilon(data)
    return Calibration(
        sigma2=sigma2, known_sigma=known, lam=lam, epsilon=epsilon, rho=rho, tau2=tau2
    )


def randomized_selection(
    data: Dataset, cal: Calibration, seed: int
) -> tuple[RandomizationScheme, SelectionOutcome, LinearEventRep | None]:
    """Carving-randomized lasso and its event representation (None if empty).

    Returns the scheme, the outcome and the representation.  The draw reads
    the dataset's factor of the randomization base; no covariance is formed.
    """
    tau2 = cal.tau2
    if tau2 is None:
        tau2 = tau2_from_split(cal.sigma2, data.n, int(round(cal.rho * data.n)))
    scheme = RandomizationScheme(tau2=tau2)
    w = sample_randomization(data, scheme.tau2, seed=seed)
    outcome = solve_randomized_lasso(data, lam=cal.lam, epsilon=cal.epsilon, w=w)
    rep = None
    if outcome.selected.size:
        rep = lasso_event_rep(data, outcome, lam=cal.lam, epsilon=cal.epsilon)
    return scheme, outcome, rep


@dataclass
class Fit:
    """One method's selection on one dataset, ready for per-target inference.

    ``selected`` lists the selected features.  For the exact and polyhedral
    methods the first ``interval(j)`` or ``pivots(beta0)`` builds the
    constants of every target once, together, by stages that each check and
    factor what they use: ``build_target -> build_geometry -> pivot_params``
    (exact) or ``build_target -> polyhedral_bounds`` (polyhedral).  One
    batched inversion (``invert_pivot`` or ``polyhedral_interval``) gives
    every interval; ``interval(j)`` returns entry j, or raises the error that
    stopped target j.  A target keeps the error of the first check it fails;
    an error raised by a stage that serves every target becomes the error of
    each target still standing.  Split and uv intervals come whole from their
    held-out fits.
    """

    method: str
    alpha: float
    selected: np.ndarray
    data: Dataset | None = None
    model: str = "selected"
    outcome: SelectionOutcome | None = None
    rep: LinearEventRep | None = None
    tau2: float = math.nan  # the randomization variance
    sigma: float = math.nan  # post-selection noise sd
    lam: float = math.nan
    estimates: list[IntervalEstimate] = field(default_factory=list)

    @cached_property
    def _constants(self) -> tuple[PivotParams | PolyhedralBounds | None, list]:
        """The constants of the targets that built, and each target's error."""
        errors: list = [None] * self.selected.size
        try:
            target = build_target(self.data, self.selected, self.model)
            if self.method == "polyhedral":
                return polyhedral_bounds(
                    self.data, self.selected, self.outcome.signs, self.lam, target, self.sigma
                )
            geom = build_geometry(self.data, self.rep, self.tau2, target)
            errors = geom.errors
            return pivot_params(geom, target, sigma=self.sigma)
        except ExactSIError as exc:
            return None, [e or exc for e in errors]

    def _each_target(self, step) -> list:
        """Entry j: target j's entry of ``step(constants, built)``, run once on
        the targets that built, or the error that stopped target j."""
        if not self.selected.size:
            return []
        constants, errors = self._constants
        out, built = list(errors), [j for j, e in enumerate(errors) if e is None]
        try:
            results = step(constants, built) if built else []
        except ExactSIError as exc:
            results = [exc] * len(built)
        for j, result in zip(built, results):
            out[j] = result
        return out

    @cached_property
    def _intervals(self) -> list[IntervalEstimate | ExactSIError]:
        invert = invert_pivot if self.method == "exact" else polyhedral_interval
        return self._each_target(lambda constants, built: invert(
            constants, self.alpha, [int(self.selected[j]) for j in built]
        ))

    def interval(self, j: int) -> IntervalEstimate:
        if self.method in ("split", "uv"):
            return self.estimates[j]
        result = self._intervals[j]
        if isinstance(result, ExactSIError):
            raise result
        return result

    def pivots(self, beta0) -> list[float | ExactSIError]:
        """Entry j: target j's pivot at ``beta0[j]``, or the error that stopped it."""
        pivot = exact_pivot if self.method == "exact" else polyhedral_pivot
        beta0 = np.asarray(beta0, dtype=float)
        return self._each_target(lambda constants, built: pivot(constants, beta0[built]).tolist())


def _post_sigma(data: Dataset, cal: Calibration, model: str, E: np.ndarray) -> float:
    """Noise sd for inference after selecting ``E``: the selected-model plug-in
    unless the noise is known or the full model is the target."""
    if cal.known_sigma or model != "selected":
        return math.sqrt(cal.sigma2)
    return math.sqrt(plug_in_sigma2(data, E, "selected"))


def fit_method(
    data: Dataset, cal: Calibration, method: str, model: str, alpha: float, seed: int
) -> Fit:
    """Run ``method``'s selection on ``data``; ``seed`` drives its randomness.

    ``alpha`` is checked here, before any selection, so a bad level fails the
    whole call rather than each target.
    """
    if not 0 < alpha < 1:
        raise InvalidArgumentError("alpha must lie in (0, 1)")
    if method == "exact":
        scheme, outcome, rep = randomized_selection(data, cal, seed)
        E = outcome.selected
        if E.size == 0:
            return Fit(method, alpha, E)
        return Fit(
            method, alpha, E, data, model, outcome, rep, scheme.tau2,
            sigma=_post_sigma(data, cal, model, E),
        )
    if method == "polyhedral":
        outcome = solve_randomized_lasso(data, lam=cal.lam, epsilon=0.0, w=np.zeros(data.p))
        E = outcome.selected
        if E.size == 0:
            return Fit(method, alpha, E)
        return Fit(
            method, alpha, E, data, model, outcome,
            sigma=_post_sigma(data, cal, model, E), lam=cal.lam,
        )
    if method == "split":
        # subsample penalty matched to the carving calibration
        ests = split_inference(data, cal.rho, cal.rho * cal.lam, alpha, seed)
    elif method == "uv":
        # selection noise is inflated by (1+f): scale the penalty along
        f = (1.0 - cal.rho) / cal.rho
        ests = uv_inference(data, f, math.sqrt(1.0 + f) * cal.lam, alpha, cal.sigma2, seed)
    else:
        raise InvalidArgumentError(f"unknown method {method!r}")
    E = np.array([e.target_label for e in ests], dtype=int)
    return Fit(method, alpha, E, estimates=ests)


# Seed stream of each method's randomness within a replicate; the polyhedral
# baseline draws none.
_STREAMS = {"exact": 2, "split": 3, "uv": 4}


def _run_replicate(
    config: SimConfig, rep_idx: int
) -> tuple[list[dict], dict[str, float | ExactSIError]]:
    """All methods on one generated dataset.

    Returns one row per interval, and each method's outcome: the F1 score of
    its selection, or the error that failed it.
    """
    X = generate_design(config.n, config.p, config.corr, _seed_for(config.seed, rep_idx, 0))
    support = support_indices(config.p, config.sparsity)
    y, beta = generate_response(
        X, support, config.signal_fraction, config.sigma2, _seed_for(config.seed, rep_idx, 1)
    )
    data = Dataset(y=y, X=X, sigma=None)
    lam = None if config.lambda_rule == "theory" else float(config.lambda_rule)
    # the study's randomized lasso has no ridge term, whatever the shape
    cal = calibrate(data, config.methods, lam=lam, rho=config.rho, epsilon=0.0)
    rows: list[dict] = []
    outcomes: dict[str, float | ExactSIError] = {}
    for method in config.methods:
        seed = _seed_for(config.seed, rep_idx, _STREAMS[method]) if method in _STREAMS else 0
        try:
            fit = fit_method(data, cal, method, config.model, config.alpha, seed)
            ints = [fit.interval(j) for j in range(fit.selected.size)]
        except ExactSIError as exc:
            # the traceback would keep the replicate's arrays alive
            outcomes[method] = exc.with_traceback(None)
            continue
        E = fit.selected
        f1 = outcomes[method] = f1_score(E, support)
        truths = true_projected_target(X, E, support, beta, config.model)
        for est, truth in zip(ints, truths):
            rows.append(
                {
                    "rep": rep_idx,
                    "method": method,
                    "coordinate": int(est.target_label),
                    "lower": est.lower,
                    "upper": est.upper,
                    "truth": float(truth),
                    "covered": int(est.covers(float(truth))),
                    "length": est.length,
                    "f1": f1,
                    "selected_size": int(E.size),
                    "clipped": int(est.clipped),  # internal, not a CSV column
                }
            )
    return rows, outcomes


def _mean_se(values: list[float]) -> tuple[float, float]:
    if not values:
        return math.nan, math.nan
    arr = np.asarray(values, dtype=float)
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else math.nan
    return float(arr.mean()), se


_CHUNK = 4  # replicates a pool worker takes at a time


def _cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_study(config: SimConfig, workers: int = 1) -> StudySummary:
    """Run the configured study; identical output for any worker count.

    Rows hold one row per interval; a replicate in which a method selected
    nothing or failed counts only in its summary, whose F1 averages over the
    replicates that did not fail.

    With ``workers > 1``, pin BLAS to one thread per worker (for OpenBLAS,
    ``OPENBLAS_NUM_THREADS=1``): otherwise each worker's multithreaded BLAS
    competes with the others for the cores.  The pool starts all its
    processes at once, so it gets no more of them than there are chunks of
    ``_CHUNK`` replicates or cores this process may run on; with one, the
    replicates run in this process.  Its workers are forked from a
    ``forkserver`` process that has imported this module, never from this
    process, in which BLAS may already run threads that a fork would leave
    behind; as with ``spawn``, a script that asks for workers must guard
    its entry point with ``if __name__ == "__main__"``.  Raises
    ``InvalidArgumentError`` for ``workers < 1``.
    """
    if not workers >= 1:
        raise InvalidArgumentError("workers must be at least 1")
    reps = range(config.n_reps)
    workers = min(workers, -(-config.n_reps // _CHUNK), _cores())
    if workers > 1:
        context = multiprocessing.get_context("forkserver")
        context.set_forkserver_preload([__name__])
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            results = list(
                pool.map(_run_replicate, [config] * len(reps), reps, chunksize=_CHUNK)
            )
    else:
        results = [_run_replicate(config, r) for r in reps]

    summaries: dict[str, MethodSummary] = {}
    for method in config.methods:
        per_rep_cov, per_rep_len, per_rep_f1 = [], [], []
        n_empty = clipped = total = 0
        errors = []
        for rows, outcomes in results:
            outcome = outcomes[method]
            if isinstance(outcome, ExactSIError):
                errors.append(outcome)
                continue
            per_rep_f1.append(outcome)
            mrows = [r for r in rows if r["method"] == method]
            if not mrows:
                n_empty += 1
                continue
            per_rep_cov.append(float(np.mean([r["covered"] for r in mrows])))
            per_rep_len.append(float(np.mean([r["length"] for r in mrows])))
            clipped += sum(r["clipped"] for r in mrows)
            total += len(mrows)
        cov, cov_se = _mean_se(per_rep_cov)
        ln, ln_se = _mean_se(per_rep_len)
        f1m, f1_se = _mean_se(per_rep_f1)
        summaries[method] = MethodSummary(
            n_reps=config.n_reps,
            n_used=len(per_rep_cov),
            n_empty=n_empty,
            n_failed=len(errors),
            failures=_by_class(errors),
            coverage=cov,
            coverage_se=cov_se,
            length=ln,
            length_se=ln_se,
            f1=f1m,
            f1_se=f1_se,
            clipped_rate=clipped / total if total else 0.0,
        )
    all_rows = [row for rows, _ in results for row in rows]
    return StudySummary(config=config, methods=summaries, rows=all_rows)


def pivots_at_truth(
    config: SimConfig,
) -> Iterator[tuple[str, Fit | None, list[float | ExactSIError]]]:
    """For each replicate, and each of the exact and polyhedral methods that
    ``config`` lists: the method, its fit, and each target's pivot at its true
    projected target, or the error that stopped that target.  A fit that
    raises before any target is None, with that error as its one value.

    The design stays fixed across replicates (seed stream 10); response
    (stream 11) and randomization (stream 12) are redrawn, and the noise level
    is taken as known, with the randomization variance matched to a
    ``round(rho * n)`` subsample, so that the pivot itself is isolated.
    """
    X = generate_design(config.n, config.p, config.corr, _seed_for(config.seed, 0, 10))
    support = support_indices(config.p, config.sparsity)
    sigma = math.sqrt(config.sigma2)
    tau2 = tau2_from_split(config.sigma2, config.n, int(round(config.rho * config.n)))
    lam = None if config.lambda_rule == "theory" else float(config.lambda_rule)
    methods = [m for m in config.methods if m in ("exact", "polyhedral")]
    for rep_idx in range(config.n_reps):
        y, beta = generate_response(
            X, support, config.signal_fraction, config.sigma2, _seed_for(config.seed, rep_idx, 11)
        )
        data = Dataset(y=y, X=X, sigma=sigma)
        cal = calibrate(data, methods, lam=lam, tau2=tau2, epsilon=0.0)
        for method in methods:
            try:
                fit = fit_method(
                    data, cal, method, config.model, config.alpha,
                    _seed_for(config.seed, rep_idx, 12),
                )
                truths = true_projected_target(X, fit.selected, support, beta, config.model)
            except ExactSIError as exc:
                yield method, None, [exc]
                continue
            yield method, fit, fit.pivots(truths)


def validate_pivot_uniformity(config: SimConfig) -> dict[str, UniformityReport]:
    """Pool the pivots of ``pivots_at_truth`` and test them against Unif(0,1).

    Requires the exact method; also reports the polyhedral pivot when listed.
    A target whose pivot raises is counted, under its exception class, and
    the rest of its replicate is still pooled; a fit that raises before any
    target counts once.

    ``kstest`` is imported here, not at module level: no other stage uses
    ``scipy.stats``, and importing it (with the ``scipy.optimize``,
    ``interpolate`` and ``sparse`` it pulls in) would add about 0.45 s to
    every process's cold start.
    """
    from scipy.stats import kstest

    if "exact" not in config.methods:
        raise InvalidArgumentError("uniformity validation requires the exact method")
    methods = [m for m in config.methods if m in ("exact", "polyhedral")]
    pooled: dict[str, list[float]] = {m: [] for m in methods}
    failed: dict[str, list[ExactSIError]] = {m: [] for m in methods}
    for method, _, values in pivots_at_truth(config):
        for value in values:
            if isinstance(value, ExactSIError):
                failed[method].append(value)
            else:
                pooled[method].append(value)
    reports = {}
    for method, vals in pooled.items():
        if len(vals) < 200:
            raise InsufficientSampleError(
                f"only {len(vals)} pooled pivot values for {method}; need at least 200"
            )
        stat, pval = kstest(np.asarray(vals), "uniform")
        reports[method] = UniformityReport(
            statistic=float(stat),
            p_value=float(pval),
            n_pooled=len(vals),
            n_failed=len(failed[method]),
            failures=_by_class(failed[method]),
        )
    return reports
