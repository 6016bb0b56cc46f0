"""Outputs at two BLAS thread counts.

X'X, and so every endpoint, may change in its last bits with the number of
threads BLAS runs, as with the BLAS kernel and numpy's SIMD level, so
outputs are byte-identical only on one platform (``simulate --help``).
``test_frozen_outputs.py`` pins its runs to one that any x86-64-v3 CPU runs:
one thread, OpenBLAS's Haswell kernel and numpy's loops below x86-64-v4.  What must not change is every decision: the same
rows, selections and covered flags, with endpoints and lengths within
``1e-9 max(1, |x|)``.  A subprocess per setting is the only control of the
thread count here, since BLAS reads it when it loads.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
KEYS = ("rep", "method", "coordinate", "covered", "selected_size", "f1")
VALUES = ("lower", "upper", "length")


def simulate_rows(tmp_path, threads: int) -> list[dict]:
    out = tmp_path / f"threads{threads}"
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": str(threads)}
    argv = ["simulate", "--n", "300", "--p", "100", "--n-reps", "5", "--seed", "5"]
    subprocess.run(
        [sys.executable, "-m", "exactsi.cli", *argv, "--out", str(out)],
        env=env, capture_output=True, check=True,
    )
    with open(f"{out}.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_one_and_two_threads_make_the_same_decisions(tmp_path):
    one, two = simulate_rows(tmp_path, 1), simulate_rows(tmp_path, 2)
    assert len(one) >= 20
    assert [[r[k] for k in KEYS] for r in one] == [[r[k] for k in KEYS] for r in two]
    for a, b in zip(one, two):
        for key in VALUES:
            x, y = float(a[key]), float(b[key])
            assert abs(x - y) <= 1e-9 * max(1.0, abs(x)), (a, b)
