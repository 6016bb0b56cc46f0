"""Calibration gates on the default study cell (slow; run with ``pytest -m slow``).

The exact pivot must be Unif(0, 1) at the true projected target, the
intervals from inverting it must cover at 1 - alpha within Monte-Carlo error,
and they must be shorter than data splitting's at the matched split.
"""

import numpy as np
import pytest
from scipy.stats import ttest_rel

from exactsi.study import SimConfig, run_study, validate_pivot_uniformity

pytestmark = pytest.mark.slow


def test_pooled_pivots_pass_ks():
    report = validate_pivot_uniformity(SimConfig(n_reps=60))["exact"]
    assert report.n_pooled >= 200
    assert report.p_value > 0.01


def test_exact_coverage_within_three_standard_errors():
    config = SimConfig(n_reps=300)
    summary = run_study(config).methods["exact"]
    assert summary.n_used >= 250
    assert abs(summary.coverage - (1.0 - config.alpha)) <= 3.0 * summary.coverage_se


def test_exact_intervals_shorter_than_data_splitting():
    """The paper's claim: carving with the exact pivot reuses the held-out
    information that data splitting discards, so its intervals are shorter.
    A one-sided paired t-test on per-replicate mean lengths, over the
    replicates where both methods gave intervals."""
    summary = run_study(SimConfig(n_reps=60, seed=12345, methods=("exact", "split")))
    lengths: dict[str, dict[int, list[float]]] = {"exact": {}, "split": {}}
    for row in summary.rows:
        if row["coordinate"] >= 0:
            lengths[row["method"]].setdefault(row["rep"], []).append(row["length"])
    reps = sorted(lengths["exact"].keys() & lengths["split"].keys())
    assert len(reps) >= 40
    exact = np.array([np.mean(lengths["exact"][r]) for r in reps])
    split = np.array([np.mean(lengths["split"][r]) for r in reps])
    assert ttest_rel(exact, split, alternative="less").pvalue < 0.01
