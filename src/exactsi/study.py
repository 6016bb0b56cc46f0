"""The selection-to-interval pipeline and the Monte-Carlo study built on it.

The pipeline is the one path from a dataset to per-target inference, shared
by ``run_study``, ``validate_pivot_uniformity`` and the CLI's ``select`` and
``infer``:

1. ``calibrate`` checks that each method has the options it needs and
   that each tuning value is finite, and resolves the tuning constants of a
   dataset once: the noise variance (known if given, else the full-model
   plug-in when n > p, else var(y)), the penalty and the ridge term.  The
   plug-in fits the independent columns of X, by the dataset's one Gram,
   rank test and Cholesky factor of the Gram block of those columns.
2. ``fit_method`` runs one method's selection, which no level enters, to
   a ``SelectionOutcome``.  For the exact method it draws the randomization
   at ``calibrate``'s tau2, solves the randomized lasso and builds the
   event representation (``randomized_selection``); for the polyhedral
   baseline it solves the plain lasso.  Split solves the lasso on a
   ``round(rho * n)`` subsample with penalty ``rho * lam``
   (``split_inference``), and uv on ``y + w``, ``w ~ N(0, tau2 I)``, at the
   exact method's penalty and tau2 (``uv_inference``): its lasso reads the
   exact method's randomization law.  A fit that fails here selects nothing.
3. Every method's targets are the least-squares coefficients of
   ``build_target`` on ``E = outcome.selected``.  ``fit_method`` builds
   the constants of all of a fit's targets once, one record whose row j is
   target j, and each target's error: by ``build_target -> build_geometry
   -> pivot_params`` (exact; the geometry makes every randomization solve,
   the pivot adds the noise) or ``build_target -> polyhedral_bounds``
   (polyhedral), and as ``untruncated_bounds`` for split, from
   ``build_target`` on its held-out rows (of its selected columns under the
   selected model), and uv, from ``build_target`` on ``X'(y - w s2 / tau2)``
   at ``s2 (1 + s2 / tau2)``.  Unless it is known, two rules give the noise
   variance s2: split's held-out rows, and ``_post_sigma2`` for the rest.
4. ``infer(fits, alpha)`` gives each target of a list of ``Fit`` records
   its level ``1 - alpha`` interval, or the error that stopped it, in one
   elementwise call per method on the concatenated constants
   (``_per_target``, which also gives the uniformity check its pivots);
   a failed fit's one entry is its error, read as a failed target's is.

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
from itertools import repeat

import numpy as np

from .conditioning import build_geometry, build_target, check_model
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
    _columns,
    check_level,
    check_rho,
    exact_pivot,
    invert_pivot,
    pivot_params,
    plug_in_sigma2,
    polyhedral_bounds,
    polyhedral_interval,
    polyhedral_pivot,
    split_inference,
    split_size,
    untruncated_bounds,
    uv_inference,
    z_interval,
)
from .selection import (
    Dataset,
    LinearEventRep,
    SelectionOutcome,
    check_epsilon,
    check_noise_scale,
    check_tau2,
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
        check_rho(self.rho)
        if self.n < 2:
            raise InvalidArgumentError("n must be at least 2")
        if self.n_reps < 1:
            raise InvalidArgumentError("n_reps must be at least 1")
        if self.p < 1:
            raise InvalidArgumentError("p must be at least 1")
        check_noise_scale(self.sigma2, "sigma2")
        if not 0 <= self.signal_fraction < math.inf:
            raise InvalidArgumentError("signal_fraction must be nonnegative and finite")
        if not 0 <= self.sparsity <= self.p:
            raise InvalidArgumentError("sparsity must lie in [0, p]")
        check_corr(self.corr)
        check_model(self.model)
        check_level(self.alpha)
        rule = self.lambda_rule
        if rule == "theory":
            check_theory_rule(self.p)
        elif not (isinstance(rule, numbers.Real) and 0 < rule < math.inf):
            raise InvalidArgumentError(
                f"lambda_rule must be 'theory' or a positive finite number, not {rule!r}"
            )
        check_methods(self.methods, self.rho, None)
        if {"exact", "uv"} & set(self.methods):  # their tau2 needs 0 < round(rho n) < n
            tau2_from_split(self.sigma2, self.n, split_size(self.rho, self.n))
        check_seed(self.seed)
        object.__setattr__(self, "methods", tuple(self.methods))

    @property
    def lam(self) -> float | None:  # the penalty ``calibrate`` takes, None for the theory rule
        return None if self.lambda_rule == "theory" else float(self.lambda_rule)


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


def check_seed(seed: int) -> None:
    """Reject a negative seed, which numpy's generators refuse."""
    if seed < 0:
        raise InvalidArgumentError(f"seed must be nonnegative, got {seed}")


def check_corr(corr: float) -> None:
    """Reject an AR(1) correlation outside (-1, 1)."""
    if not abs(corr) < 1:
        raise InvalidArgumentError("corr must lie in (-1, 1)")


def _seed_for(master: int, rep: int, stream: int) -> int:
    return int(np.random.SeedSequence([master, rep, stream]).generate_state(1)[0])


def generate_design(n: int, p: int, corr: float, seed: int) -> np.ndarray:
    """Rows i.i.d. N(0, Sigma) with Sigma_ij = corr^|i-j|, via the AR recursion
    ``x_j = corr x_{j-1} + sqrt(1 - corr^2) z_j`` over the features, run on
    contiguous feature rows; X is returned C-contiguous."""
    check_corr(corr)
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
    check_model(model)
    if model == "full":
        return beta_star[E]
    if E.size == 0:
        return np.zeros(0)
    XE = X[:, E]
    mean = X @ beta_star
    try:
        return np.linalg.solve(XE.T @ XE, XE.T @ mean)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("selected design is rank deficient") from exc


def check_theory_rule(p: int) -> None:
    """Reject the theory penalty (``theory_lambda``) at p = 1, where it is 0."""
    if p < 2:
        raise InvalidArgumentError(
            "theory penalty is 0 at p = 1 (sqrt(2 log p) = 0): give one with --lambda"
        )


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
    of the exact method's lasso for every command.  ``tau2``, the randomization
    variance that exact and uv share with ``lam``, is given or matched to
    selection on a ``round(rho * n)`` subsample; None where neither runs.
    """

    sigma2: float
    known_sigma: bool
    lam: float
    epsilon: float
    rho: float | None
    tau2: float | None


def check_methods(methods: Sequence[str], rho: float | None, tau2: float | None) -> None:
    """Reject unknown or repeated ``methods``, and any without its options:
    exact and uv need exactly one of ``rho`` and ``tau2``, split ``rho``."""
    for method in methods:
        if method not in KNOWN_METHODS:
            raise InvalidArgumentError(f"unknown method {method!r}")
        if methods.count(method) > 1:
            raise InvalidArgumentError(f"method {method!r} listed twice")
        if method in ("exact", "uv") and (tau2 is None) == (rho is None):
            raise InvalidArgumentError("give exactly one of --rho or --tau2")
        if method == "split" and rho is None:
            raise InvalidArgumentError("split inference needs --rho")


def calibrate(
    data: Dataset,
    methods: Sequence[str],
    lam: float | None = None,
    rho: float | None = None,
    tau2: float | None = None,
    epsilon: float | None = None,
    sigma: float | None = None,
) -> Calibration:
    """Check the options ``methods`` need and resolve the constants of ``data``.

    ``sigma``, the known noise sd if any, is checked first: positive and
    finite.  The noise variance is ``sigma ** 2`` if given, else the
    full-model plug-in when n > p (the independent columns of X, with
    n - rank degrees of freedom), else var(y).  The penalty defaults to
    ``theory_lambda`` at that noise scale and the ridge to ``default_epsilon``,
    and for exact and uv, tau2 to ``tau2_from_split`` at ``round(rho * n)``.
    A tuning value that is not finite or fails ``check_rho``, ``check_tau2``,
    ``check_methods`` or ``check_epsilon``, no penalty at p = 1
    (``check_theory_rule``, before any fit), and a resolved noise variance,
    penalty or tau2 that fails its rule, raise ``InvalidArgumentError``.
    """
    if sigma is not None:
        check_noise_scale(sigma, "sigma")
    tuning = {"--lambda": lam, "--rho": rho, "--tau2": tau2, "--epsilon": epsilon}
    for flag, value in tuning.items():
        if value is not None and not math.isfinite(value):
            raise InvalidArgumentError(f"{flag} must be finite, not {value!r}")
    if rho is not None:
        check_rho(rho)
    if tau2 is not None:
        check_tau2(tau2)
    check_methods(methods, rho, tau2)
    if lam is None:
        check_theory_rule(data.p)
    known = sigma is not None
    if known:
        try:
            sigma2 = sigma**2
        except OverflowError:  # a float power raises where numpy's gives inf
            sigma2 = math.inf
    elif data.n > data.p:
        sigma2 = plug_in_sigma2(data, np.arange(data.p), "full")
    else:
        with np.errstate(over="ignore"):
            sigma2 = float(np.var(data.y, ddof=1))
    check_noise_scale(sigma2, "noise variance")
    if lam is None:
        lam = theory_lambda(data, math.sqrt(sigma2))
    if not 0 < lam < math.inf:
        raise InvalidArgumentError(f"penalty {lam!r} is not finite and positive")
    if epsilon is None:
        epsilon = default_epsilon(data)
    check_epsilon(epsilon)
    if tau2 is None and {"exact", "uv"} & set(methods):
        tau2 = tau2_from_split(sigma2, data.n, split_size(rho, data.n))
    return Calibration(
        sigma2=sigma2, known_sigma=known, lam=lam, epsilon=epsilon, rho=rho, tau2=tau2
    )


def randomized_selection(
    data: Dataset, cal: Calibration, seed: int
) -> tuple[SelectionOutcome, LinearEventRep | None]:
    """Carving-randomized lasso at ``cal.lam`` and ``cal.tau2``, and its event
    representation (None if empty).  The draw reads the dataset's factor of
    the randomization base; no covariance is formed.
    """
    w = sample_randomization(data, cal.tau2, seed=seed)
    outcome = solve_randomized_lasso(data, lam=cal.lam, epsilon=cal.epsilon, w=w)
    rep = None
    if outcome.selected.size:
        rep = lasso_event_rep(data, outcome, lam=cal.lam, epsilon=cal.epsilon)
    return outcome, rep


@dataclass
class Fit:
    """One method's selection on one dataset, ready for per-target inference.

    ``outcome`` is the selection's, None where it failed; ``selected``
    lists its features and ``constants`` is the record whose row j is
    target j's constants: ``PivotParams`` (exact) or ``PolyhedralBounds``
    (polyhedral, and untruncated for split and uv); None where nothing was
    selected or a stage that serves every target failed.  ``errors[j]`` is
    the error that stopped target j, or None.  A fit whose selection failed
    selected nothing, and its one entry of ``errors`` is that error.  A fit
    is data only, and holds no level: ``infer`` takes the intervals of a
    list of fits at a level.
    """

    method: str
    selected: np.ndarray
    outcome: SelectionOutcome | None = None
    constants: PivotParams | PolyhedralBounds | None = None
    errors: list[ExactSIError | None] = field(default_factory=list)


def _per_target(
    fits: Sequence[Fit], alpha: float | None = None, beta0s: Sequence | None = None
) -> list[list]:
    """Entry i, j: target j of ``fits[i]`` (feature ``fits[i].selected[j]``):
    its level ``1 - alpha`` interval, or its pivot at ``beta0s[i][j]`` where
    given, or the error that stopped it.  The fits' records are concatenated
    per method for one call each, and its results split back by row count.
    A target's own error wins; an error that the call raises is the error of
    every target in it.  Each method's inversion is read from this module's
    names at the call: split and uv take ``z_interval``, and their pivot is
    the polyhedral one."""
    out = [list(fit.errors) for fit in fits]
    groups: dict[str, list[int]] = {}
    for i, fit in enumerate(fits):
        if fit.constants is not None:
            groups.setdefault(fit.method, []).append(i)
    for method, members in groups.items():
        columns = zip(*(_columns(fits[i].constants) for i in members))
        record = type(fits[members[0]].constants)(*map(np.concatenate, columns))
        try:
            if beta0s is None:
                invert = {"exact": invert_pivot, "polyhedral": polyhedral_interval}
                results = iter(invert.get(method, z_interval)(record, alpha))
            else:
                beta0 = np.concatenate([beta0s[i] for i in members])
                pivot = exact_pivot if method == "exact" else polyhedral_pivot
                results = iter(pivot(record, beta0).tolist())
        except ExactSIError as exc:
            results = repeat(exc)
        for i in members:
            out[i] = [e or r for e, r in zip(out[i], results)]
    return out


def infer(fits: Sequence[Fit], alpha: float) -> list[list[IntervalEstimate | ExactSIError]]:
    """Entry i, j: target j of ``fits[i]`` (feature ``fits[i].selected[j]``):
    its level ``1 - alpha`` interval, or the error that stopped it; ``alpha``
    is checked first (``check_level``).  Each method's fits are inverted in
    one call on their concatenated constants (``_per_target``)."""
    check_level(alpha)
    return _per_target(fits, alpha)


def _post_sigma2(data: Dataset, cal: Calibration, model: str, E: np.ndarray) -> float:
    """Noise variance of every method but split after selecting ``E``: the
    selected-model plug-in unless the noise is known or the model is full."""
    if cal.known_sigma or model != "selected":
        return cal.sigma2
    return plug_in_sigma2(data, E, "selected")


def fit_method(data: Dataset, cal: Calibration, method: str, model: str, seed: int) -> Fit:
    """Run ``method``'s selection on ``data`` and build the constants of
    every target it selects; ``seed`` drives its randomness.

    ``check_model``, ``check_seed`` and ``check_methods`` (against ``cal``)
    reject a bad argument with ``InvalidArgumentError`` before any stage
    runs, as does exact or uv on a ``cal`` that resolved no tau2; past them
    the data fail the fit, never the call.  Every method selects, to a
    ``SelectionOutcome``, then builds its targets on ``E = outcome.selected``
    (module docstring, steps 2 and 3); each stage checks and factors what
    it uses.  A target keeps the error of the first check it fails; an
    error of a stage that serves every target becomes each standing
    target's; one raised in selection gives a fit that selected nothing,
    whose one entry of ``errors`` it is.
    """
    check_model(model)
    check_seed(seed)
    if method in ("exact", "uv") and cal.tau2 is None and cal.rho is not None:
        raise InvalidArgumentError(f"no tau2 was resolved for {method}: calibrate with it")
    # exact and uv read the tau2 that calibrate resolved, split reads rho
    check_methods([method], cal.rho if method == "split" else None, cal.tau2)
    E, outcome, constants, errors = np.zeros(0, dtype=int), None, None, []
    try:
        if method == "split":
            # subsample penalty matched to the carving calibration
            outcome, held_out = split_inference(data, cal.rho, cal.rho * cal.lam, seed)
        elif method == "uv":
            outcome, xtw = uv_inference(data, cal.tau2, cal.lam, seed)
        elif method == "exact":
            outcome, rep = randomized_selection(data, cal, seed)
        else:
            outcome = solve_randomized_lasso(data, lam=cal.lam, epsilon=0.0, w=np.zeros(data.p))
        E = outcome.selected
        errors = [None] * E.size
        if E.size and method == "split":
            # the held-out rows of E, as its columns 0..|E|-1, or of every column
            rows = data.subset(held_out, E if model == "selected" else None)
            cols = np.arange(E.size) if model == "selected" else E
            sigma2 = cal.sigma2 if cal.known_sigma else plug_in_sigma2(rows, cols, model)
            constants = untruncated_bounds(build_target(rows, cols, model), sigma2)
        elif E.size and method == "uv":
            s2 = _post_sigma2(data, cal, model, E)
            ratio = s2 / cal.tau2
            target = build_target(data, E, model, xty=data.xty - xtw * ratio)
            constants = untruncated_bounds(target, s2 * (1.0 + ratio))
        elif E.size:
            sigma = math.sqrt(_post_sigma2(data, cal, model, E))
            target = build_target(data, E, model)
            if method == "polyhedral":
                signs = outcome.signs
                constants, errors = polyhedral_bounds(data, E, signs, cal.lam, target, sigma)
            else:
                geom = build_geometry(data, rep, cal.tau2, target)
                errors = geom.errors
                constants, errors = pivot_params(geom, target, sigma=sigma)
    except ExactSIError as exc:
        exc = exc.with_traceback(None)  # the traceback would keep the dataset alive
        return Fit(method, E, outcome, errors=[e or exc for e in errors] or [exc])
    return Fit(method, E, outcome, constants, errors)


# Seed stream of each method's randomness within a replicate; the polyhedral
# baseline draws none.
_STREAMS = {"exact": 2, "split": 3, "uv": 4}


def _fit_replicate(
    data: Dataset, cal: Calibration, seeds: dict[str, int], model: str,
    support: np.ndarray, beta: np.ndarray,
) -> Iterator[tuple[Fit, np.ndarray | None]]:
    """Each method of ``seeds`` fitted to one replicate's ``data`` at its
    seed, and the true projected targets of its selection, or None where a
    stage that serves every target failed.  A fit with constants passed
    ``build_target``'s check of its selected block, so their solve cannot
    fail."""
    for method, seed in seeds.items():
        fit = fit_method(data, cal, method, model, seed)
        if fit.constants is None and fit.selected.size:
            yield fit, None
        else:
            yield fit, true_projected_target(data.X, fit.selected, support, beta, model)


def _run_block(
    config: SimConfig, reps: Sequence[int]
) -> list[tuple[list[dict], dict[str, float | ExactSIError]]]:
    """All methods on the datasets of replicates ``reps``, whose fits are
    inverted together.  Per replicate: one row per interval, and each
    method's outcome, the F1 score of its selection or the error that failed
    it (its first failed target's, in j order, or its fit's)."""
    support = support_indices(config.p, config.sparsity)
    picked: list[tuple[int, Fit, np.ndarray | None]] = []
    for rep_idx in reps:
        X = generate_design(config.n, config.p, config.corr, _seed_for(config.seed, rep_idx, 0))
        y, beta = generate_response(
            X, support, config.signal_fraction, config.sigma2, _seed_for(config.seed, rep_idx, 1)
        )
        data = Dataset(y=y, X=X)
        cal = calibrate(data, config.methods, lam=config.lam, rho=config.rho)
        seeds = {m: _seed_for(config.seed, rep_idx, _STREAMS[m]) if m in _STREAMS else 0
                 for m in config.methods}
        fitted = _fit_replicate(data, cal, seeds, config.model, support, beta)
        picked += [(rep_idx, fit, truths) for fit, truths in fitted]
    intervals = infer([fit for _, fit, _ in picked], config.alpha)
    results: dict[int, tuple[list[dict], dict]] = {rep_idx: ([], {}) for rep_idx in reps}
    for (rep_idx, fit, truths), ests in zip(picked, intervals):
        rows, outcomes = results[rep_idx]
        failed = [e for e in ests if isinstance(e, ExactSIError)]
        if failed:
            # the traceback would keep the replicate's arrays alive
            outcomes[fit.method] = failed[0].with_traceback(None)
            continue
        f1 = outcomes[fit.method] = f1_score(fit.selected, support)
        for coordinate, est, truth in zip(fit.selected.tolist(), ests, truths.tolist()):
            rows.append(
                {
                    "rep": rep_idx,
                    "method": fit.method,
                    "coordinate": coordinate,
                    "lower": est.lower,
                    "upper": est.upper,
                    "truth": truth,
                    "covered": int(est.covers(truth)),
                    "length": est.length,
                    "f1": f1,
                    "selected_size": fit.selected.size,
                }
            )
    return list(results.values())


def _mean_se(values: list[float]) -> tuple[float, float]:
    if not values:
        return math.nan, math.nan
    arr = np.asarray(values, dtype=float)
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else math.nan
    return float(arr.mean()), se


_BLOCK = 32  # replicates whose fits are inverted together, a pool worker's unit


def _cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_study(config: SimConfig, workers: int = 1) -> StudySummary:
    """Run the configured study; identical output for any worker count.

    Rows hold one row per interval; a replicate in which a method selected
    nothing or failed counts only in its summary, whose F1 averages over the
    replicates that did not fail.  Each replicate is selected on its own,
    and the fits of a block of ``_BLOCK`` replicates are inverted together.
    Each replicate is calibrated as the CLI's ``infer`` calibrates a dataset.

    With ``workers > 1``, pin BLAS to one thread per worker (for OpenBLAS,
    ``OPENBLAS_NUM_THREADS=1``): otherwise each worker's multithreaded BLAS
    competes with the others for the cores.  The pool maps blocks and starts
    all its processes at once, so it gets no more of them than there are
    blocks or cores this process may run on; with one, the blocks run in
    this process.  Its workers are forked from a ``forkserver`` process that
    has imported this module, never from this process, in which BLAS may
    already run threads that a fork would leave behind; as with ``spawn``, a
    script that asks for workers must guard its entry point with ``if
    __name__ == "__main__"``.  The forkserver imports this module only where
    the package imports without edits of ``sys.path`` made in this process,
    that is, installed or on ``PYTHONPATH``: Python 3.11's forkserver
    receives this process's ``sys.path`` but never applies it.  Otherwise
    every pool's workers import numpy, scipy and the package themselves,
    and a call with ``workers=2`` on 8 replicates of a 60 x 12 cell takes
    313-521 ms, against 46-53 ms.  Raises ``InvalidArgumentError`` for
    ``workers < 1``.
    """
    if not workers >= 1:
        raise InvalidArgumentError("workers must be at least 1")
    reps = range(config.n_reps)
    blocks = [reps[start : start + _BLOCK] for start in reps[::_BLOCK]]
    workers = min(workers, len(blocks), _cores())
    if workers > 1:
        context = multiprocessing.get_context("forkserver")
        context.set_forkserver_preload([__name__])
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            done = list(pool.map(_run_block, [config] * len(blocks), blocks))
    else:
        done = [_run_block(config, reps) for reps in blocks]
    results = [result for block in done for result in block]

    summaries: dict[str, MethodSummary] = {}
    for method in config.methods:
        per_rep_cov, per_rep_len, per_rep_f1 = [], [], []
        n_empty = 0
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
        )
    all_rows = [row for rows, _ in results for row in rows]
    return StudySummary(config=config, methods=summaries, rows=all_rows)


def pivots_at_truth(config: SimConfig) -> Iterator[tuple[Fit, list[float | ExactSIError]]]:
    """For each replicate and method of ``config``, exact and optionally
    polyhedral (else ``InvalidArgumentError``, before any fit): its fit, and
    each target's pivot at its true projected target, or the error that
    stopped it; a fit that failed before any target has that error alone.

    The design stays fixed across replicates (seed stream 10); response
    (stream 11) and randomization (stream 12) are redrawn, and the noise level
    is taken as known, with the randomization variance matched to a
    ``round(rho * n)`` subsample, so that the pivot itself is isolated.  So
    the calibration reads X alone and runs once, and each replicate's
    dataset takes the statistics of X from the last one's
    (``Dataset.with_response``).  The pivots of a block of ``_BLOCK``
    replicates are evaluated together.
    """
    if "exact" not in config.methods:
        raise InvalidArgumentError("uniformity validation requires the exact method")
    if untested := sorted(set(config.methods) - {"exact", "polyhedral"}):
        raise InvalidArgumentError(f"uniformity validation does not test {untested}")
    X = generate_design(config.n, config.p, config.corr, _seed_for(config.seed, 0, 10))
    support = support_indices(config.p, config.sparsity)
    tau2 = tau2_from_split(config.sigma2, config.n, split_size(config.rho, config.n))
    data = Dataset(y=np.zeros(config.n), X=X)
    cal = calibrate(data, config.methods, lam=config.lam, tau2=tau2, sigma=math.sqrt(config.sigma2))
    for start in range(0, config.n_reps, _BLOCK):
        picked = []  # per replicate and method: its fit and truths
        for rep_idx in range(start, min(start + _BLOCK, config.n_reps)):
            y, beta = generate_response(
                X, support, config.signal_fraction, config.sigma2,
                _seed_for(config.seed, rep_idx, 11),
            )
            data = data.with_response(y)
            seeds = dict.fromkeys(config.methods, _seed_for(config.seed, rep_idx, 12))
            picked += _fit_replicate(data, cal, seeds, config.model, support, beta)
        fits = [fit for fit, _ in picked]
        yield from zip(fits, _per_target(fits, beta0s=[truths for _, truths in picked]))


def validate_pivot_uniformity(config: SimConfig) -> dict[str, UniformityReport]:
    """Pool the pivots of ``pivots_at_truth`` and test them against Unif(0,1).

    Requires the exact method and takes the polyhedral one (``pivots_at_truth``).
    A target whose pivot raises is counted, under its exception class, and
    the rest of its replicate is still pooled; a fit that fails before any
    target counts once.  The design is calibrated as by the CLI's ``infer``.

    ``kstest`` is imported here, not at module level: no other stage uses
    ``scipy.stats``, and importing it (with the ``scipy.optimize``,
    ``interpolate`` and ``sparse`` it pulls in) would add about 0.45 s to
    every process's cold start.
    """
    from scipy.stats import kstest

    pooled: dict[str, list[float]] = {m: [] for m in config.methods}
    failed: dict[str, list[ExactSIError]] = {m: [] for m in config.methods}
    for fit, values in pivots_at_truth(config):
        for value in values:
            (failed if isinstance(value, ExactSIError) else pooled)[fit.method].append(value)
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
