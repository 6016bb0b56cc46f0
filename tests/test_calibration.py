"""Calibration gates on the default study cell (slow; run with ``pytest -m slow``).

The exact pivot must be Unif(0, 1) at the true projected target, and the
intervals from inverting it must cover at 1 - alpha within Monte-Carlo error.
"""

import pytest

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
