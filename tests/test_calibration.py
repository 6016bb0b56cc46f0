"""Calibration gates on the default study cell (slow; run with ``pytest -m slow``).

The exact pivot must be Unif(0, 1) at the true projected target, pooled and
given each selection event, the intervals from inverting it must cover at
1 - alpha within Monte-Carlo error, and they must be shorter than data
splitting's at the matched split.  The polyhedral pivot must be uniform given
each of its events, and its intervals, reported unclipped however long, must
cover at least at 1 - alpha within Monte-Carlo error (a one-sided gate: at an
estimated noise level the pivot is exact only in the limit).  uv's intervals
must cover at 1 - alpha within Monte-Carlo error, under either model.
"""

from collections import defaultdict

import numpy as np
import pytest
from scipy.stats import kstest, ttest_rel

from exactsi.errors import ExactSIError
from exactsi.study import SimConfig, pivots_at_truth, run_study, validate_pivot_uniformity

pytestmark = pytest.mark.slow


def test_pooled_pivots_pass_ks():
    report = validate_pivot_uniformity(SimConfig(n_reps=60))["exact"]
    assert report.n_pooled >= 200
    assert report.p_value > 0.01


@pytest.mark.parametrize(
    "config",
    [
        # full-model targets
        SimConfig(n=100, p=10, model="full", n_reps=400, seed=3,
                  methods=("exact", "polyhedral")),
        # p > n: the randomization base is X'X jittered, and the exact
        # method's lasso has infer's ridge term (default_epsilon)
        SimConfig(n=50, p=80, n_reps=400, seed=3, methods=("exact", "polyhedral")),
        # n = p: the base is X'X, and the ridge term is on
        SimConfig(n=60, p=60, n_reps=400, seed=3, methods=("exact", "polyhedral")),
        # a near-collinear design that passes the rank test but whose X'X
        # fails its scaled-condition check: the base is X'X jittered
        SimConfig(n=100, p=10, corr=1 - 1e-11, n_reps=400, seed=3,
                  methods=("exact", "polyhedral")),
    ],
    ids=["full_model", "jittered_base", "n_equals_p", "ill_conditioned_base"],
)
def test_pooled_pivots_pass_ks_on_other_branches(config):
    """Branches that ``infer`` takes and the default cell does not.
    ``validate`` calibrates as ``infer`` does, so at p >= n its exact
    lasso has the ridge term that ``infer`` would use."""
    reports = validate_pivot_uniformity(config)
    for method in config.methods:
        assert reports[method].n_pooled >= 200
        assert reports[method].p_value > 0.01


# The polyhedral baseline draws no randomization, so it runs at one level; at
# rho 0.95, 30% of exact pivot elements take the log-space rule, 13% at 0.8.
LEVELS = [(0.8, ("exact", "polyhedral")), (0.95, ("exact",))]


@pytest.mark.parametrize("rho, methods", LEVELS)
def test_pivots_uniform_given_each_selection_event(rho, methods):
    """The paper's claim is exactness given the selection, which a pooled
    test cannot see: a defect miscalibrated in opposite directions on two
    events can pass it.  ``validate``'s pivots at the truth
    (``pivots_at_truth``), grouped by (method, selected set, signs, target);
    every group of at least 200 values is tested, and the smallest p-value,
    Bonferroni-adjusted, must exceed 0.01.  The polyhedral pivot is exact
    given its own, non-randomized event."""
    config = SimConfig(n=100, p=10, sparsity=2, n_reps=1500, seed=5, rho=rho,
                       methods=methods)
    groups = defaultdict(list)
    for fit, values in pivots_at_truth(config):
        if not fit.selected.size and values:  # the fit failed before any target
            raise values[0]
        for j, value in enumerate(values):
            if not isinstance(value, ExactSIError):
                event = (tuple(fit.selected.tolist()), tuple(fit.outcome.signs.tolist()))
                groups[(fit.method, *event, j)].append(value)
    tested = {key: kstest(vals, "uniform").pvalue
              for key, vals in groups.items() if len(vals) >= 200}
    for method in config.methods:
        pvalues = [pval for key, pval in tested.items() if key[0] == method]
        assert pvalues, f"no {method} event with 200 pivots"
        assert min(1.0, min(pvalues) * len(pvalues)) > 0.01


@pytest.mark.parametrize("config, two_sided", [
    (SimConfig(n_reps=300, methods=("uv",)), True),
    # p > n: tau2 and the penalty read var(y), which holds the signal too, and
    # uv over-covers (0.969, SE 0.006, at this seed), so the gate is one-sided
    (SimConfig(n=50, p=80, n_reps=300, methods=("uv",)), False),
    (SimConfig(n=300, p=100, sparsity=10, signal_fraction=0.03, seed=11, n_reps=300,
               model="full", methods=("uv",)), True),
], ids=["default", "p_greater_than_n", "full_model"])
def test_uv_coverage_within_three_standard_errors(config, two_sided):
    """uv's intervals, at the exact method's penalty and tau2, cover at 1 -
    alpha within 3 SE, and at least at it where that tau2 reads var(y).
    Before, uv gave selected-model intervals under the full model, which
    covered 0.871 (SE 0.005) on the full-model cell."""
    uv = run_study(config).methods["uv"]
    assert uv.n_used >= 250
    assert uv.coverage >= 1.0 - config.alpha - 3.0 * uv.coverage_se
    if two_sided:
        assert uv.coverage <= 1.0 - config.alpha + 3.0 * uv.coverage_se


@pytest.mark.parametrize("rho, methods", LEVELS)
def test_coverage_within_three_standard_errors(rho, methods):
    # each method draws from its own seed stream, so the exact rows are those
    # of an exact-only study
    config = SimConfig(n_reps=300, rho=rho, methods=methods)
    summary = run_study(config).methods
    exact = summary["exact"]
    assert exact.n_used >= 250
    assert abs(exact.coverage - (1.0 - config.alpha)) <= 3.0 * exact.coverage_se
    if "polyhedral" in methods:
        polyhedral = summary["polyhedral"]
        assert polyhedral.n_used >= 250
        assert polyhedral.coverage >= 1.0 - config.alpha - 3.0 * polyhedral.coverage_se


def test_exact_intervals_shorter_than_data_splitting():
    """The paper's claim: carving with the exact pivot reuses the held-out
    information that data splitting discards, so its intervals are shorter.
    A one-sided paired t-test on per-replicate mean lengths, over the
    replicates where both methods gave intervals."""
    summary = run_study(SimConfig(n_reps=60, seed=12345, methods=("exact", "split")))
    lengths: dict[str, dict[int, list[float]]] = {"exact": {}, "split": {}}
    for row in summary.rows:
        lengths[row["method"]].setdefault(row["rep"], []).append(row["length"])
    reps = sorted(lengths["exact"].keys() & lengths["split"].keys())
    assert len(reps) >= 40
    exact = np.array([np.mean(lengths["exact"][r]) for r in reps])
    split = np.array([np.mean(lengths["split"][r]) for r in reps])
    assert ttest_rel(exact, split, alternative="less").pvalue < 0.01
