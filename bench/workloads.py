"""The benchmark's workloads: inputs from a seed, one task, output checks.

Every workload drives ``exactsi`` only through ``run_study`` or ``cli.main``.
A task returns a ``TaskResult``; ``check_run`` then verifies the outputs of
the whole run.  Importing this module imports ``exactsi``, which is part of
what ``setup_s`` measures.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

import exactsi
from exactsi import cli
from exactsi.study import (
    SimConfig,
    generate_design,
    generate_response,
    run_study,
    support_indices,
    true_projected_target,
)

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def task_seed(seed: int, index: int) -> int:
    """Seed of task ``index``: hashed, so runs with nearby seeds share no task."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class TaskResult:
    """Outputs of one task, reduced to what the metrics and checks need."""

    attempted: int
    failed: int
    # (method, cluster of intervals sharing data, coordinate, lower, upper, truth)
    intervals: list[tuple[str, str, int, float, float, float]] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


@dataclass
class StudyWorkload:
    """Tasks are serial ``run_study`` calls on ``config`` reseeded per task."""

    name: str
    config: SimConfig
    root_span = "study.run_study"
    entry = staticmethod(run_study)

    def setup(self, seed: int, workdir: Path, tasks: int) -> dict:
        return {"seed": seed}

    def task_args(self, state: dict, index: int) -> tuple[tuple, dict]:
        cfg = replace(self.config, seed=task_seed(state["seed"], index))
        return (cfg,), {"workers": 1}

    def score(self, state: dict, index: int, summary) -> TaskResult:
        return study_result(summary)

    def describe(self) -> dict:
        return {"sim_config": asdict(self.config), "workers": 1}


def study_result(summary) -> TaskResult:
    cfg = summary.config
    res = TaskResult(
        attempted=cfg.n_reps * len(cfg.methods),
        failed=sum(ms.n_failed for ms in summary.methods.values()),
    )
    for row in summary.rows:
        if row["coordinate"] < 0:
            continue
        lo, hi, truth = row["lower"], row["upper"], row["truth"]
        res.intervals.append(
            (row["method"], f"{cfg.seed}/{row['rep']}", row["coordinate"], lo, hi, truth)
        )
        if bool(row["covered"]) != (lo <= truth <= hi):
            res.problems.append(f"{row['method']} rep {row['rep']}: covered flag wrong")
    return res


@dataclass
class InferWorkload:
    """Tasks are in-process ``exactsi infer`` runs on CSVs written in set-up.

    Set-up writes one dataset per distinct task, and task ``i`` reads dataset
    ``i``, so coverage is averaged over data draws, not only over the
    randomization of one dataset.
    """

    name: str
    config: SimConfig
    rho: float = 0.8
    root_span = "cli.main"
    entry = staticmethod(cli.main)

    def setup(self, seed: int, workdir: Path, tasks: int) -> dict:
        cfg = self.config
        support = support_indices(cfg.p, cfg.sparsity)
        header = ",".join(["y"] + [f"x{j}" for j in range(cfg.p)])
        data = []
        for k in range(tasks):
            X = generate_design(cfg.n, cfg.p, cfg.corr, task_seed(seed, 2 * k))
            y, beta = generate_response(
                X, support, cfg.signal_fraction, cfg.sigma2, task_seed(seed, 2 * k + 1)
            )
            path = workdir / f"wide-{k}.csv"
            # %.17g round-trips every double, so the CLI parses exactly X and y
            np.savetxt(path, np.column_stack([y, X]), fmt="%.17g", delimiter=",",
                       header=header, comments="")
            data.append({"path": path, "X": X, "beta": beta, "support": support})
        return {"seed": seed, "workdir": workdir, "data": data}

    def task_args(self, state: dict, index: int) -> tuple[tuple, dict]:
        d = state["data"][index]
        out = state["workdir"] / f"infer-{index}"
        argv = ["infer", "--input", str(d["path"]), "--rho", str(self.rho),
                "--seed", str(task_seed(state["seed"], 1_000_000 + index)),
                "--out", str(out)]
        return (argv,), {}

    def score(self, state: dict, index: int, rc: int) -> TaskResult:
        k = index
        out = str(state["workdir"] / f"infer-{index}")
        try:
            return self._score(rc, out, state["data"][k], k)
        finally:
            for suffix in (".json", ".csv"):
                Path(out + suffix).unlink(missing_ok=True)

    def _score(self, rc: int, out: str, d: dict, k: int) -> TaskResult:
        if rc != 0:
            return TaskResult(attempted=1, failed=1, problems=[f"infer exited {rc}"])
        with open(out + ".json", encoding="utf-8") as fh:
            rows = json.load(fh)["rows"]
        with open(out + ".csv", newline="", encoding="utf-8") as fh:
            csv_rows = list(csv.DictReader(fh))
        res = TaskResult(attempted=len(rows), failed=sum(1 for r in rows if r["error"]))
        if len(csv_rows) != len(rows):
            res.problems.append(f"infer wrote {len(rows)} JSON rows, {len(csv_rows)} CSV rows")
        for method in dict.fromkeys(r["method"] for r in rows):
            mrows = [r for r in rows if r["method"] == method]
            E = [r["index"] for r in mrows]
            truths = true_projected_target(
                d["X"], E, d["support"], d["beta"], self.config.model
            )
            for r, truth in zip(mrows, truths):
                if not r["error"]:
                    res.intervals.append(
                        (method, str(k), r["index"], r["lower"], r["upper"], float(truth))
                    )
        return res

    def describe(self) -> dict:
        return {
            "sim_config": asdict(self.config),
            "csv_shape": [self.config.n, self.config.p + 1],
            "infer_args": ["--rho", str(self.rho)],
        }


def make_workloads(tiny: bool = False) -> dict:
    """The workloads; ``tiny`` shrinks every input for the self-test."""
    study = SimConfig(n_reps=1)
    wide = SimConfig(n=600, p=300, corr=0.5, sparsity=15)
    if tiny:
        study = replace(study, n=60, p=12, sparsity=3)
        wide = replace(wide, n=80, p=20, sparsity=4)
    # Why each workload is here is in BENCHMARK.json and README.md: the
    # baselines without the exact pivot; the exact pivot through the CLI at
    # wide p.
    wls = [
        StudyWorkload("study_baselines", replace(study, methods=("polyhedral", "split", "uv"))),
        InferWorkload("infer_wide", wide),
    ]
    return {w.name: w for w in wls}


# Gate on under-coverage, in cluster-robust standard errors.  The gate runs
# over a hundred times per evaluation of a commit (runs x methods); at 3
# standard errors a correct program would fail one of them by chance in
# about one evaluation in six, at 4.5 in well under 1%.
COVERAGE_GATE_SE = 4.5


def coverage_stats(intervals) -> dict[str, dict]:
    """Per-method coverage with a cluster-robust Monte-Carlo standard error.

    Intervals that share their data form one cluster: a study replicate, or
    one CSV in ``infer_wide``, whose tasks redraw only the randomization.  The
    standard error is never taken below the binomial one at the observed
    interval count, so a few clusters cannot make it small by chance.
    """
    by_method: dict[str, dict] = {}
    for method, cluster, _, lo, hi, truth in intervals:
        tally = by_method.setdefault(method, {}).setdefault(cluster, [0, 0])
        tally[0] += lo <= truth <= hi
        tally[1] += 1
    out = {}
    for method, clusters in sorted(by_method.items()):
        a = np.array([c[0] for c in clusters.values()], dtype=float)
        m = np.array([c[1] for c in clusters.values()], dtype=float)
        cov = a.sum() / m.sum()
        k = len(clusters)
        robust = math.sqrt(k / (k - 1) * np.sum((a - cov * m) ** 2)) / m.sum() if k > 1 else 0.0
        out[method] = {
            "coverage": float(cov),
            "se": max(robust, math.sqrt(cov * (1 - cov) / m.sum())),
            "intervals": int(m.sum()),
            "clusters": k,
        }
    return out


def check_run(results: list[TaskResult], alpha: float) -> tuple[list[str], dict]:
    """Output checks over a run; any message returned fails the run.

    Every interval is finite with ``lower < upper`` and every target finite.
    No method's coverage lies more than ``COVERAGE_GATE_SE`` standard errors
    below ``1 - alpha``.  Over-coverage is conservative, not invalid, so it is
    reported (as ``z``) but not gated.
    """
    problems = [p for r in results for p in r.problems]
    intervals = [iv for r in results for iv in r.intervals]
    for method, cluster, coord, lo, hi, truth in intervals:
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            problems.append(f"{method} {cluster}/{coord}: bad interval [{lo}, {hi}]")
        if not math.isfinite(truth):
            problems.append(f"{method} {cluster}/{coord}: non-finite target {truth}")
    stats = coverage_stats(intervals)
    for method, st in stats.items():
        st["z"] = (st["coverage"] - (1 - alpha)) / st["se"] if st["se"] > 0 else 0.0
        if st["z"] < -COVERAGE_GATE_SE:
            problems.append(
                f"{method}: coverage {st['coverage']:.4f} over {st['intervals']} intervals "
                f"is {-st['z']:.2f} standard errors ({st['se']:.4f}) below {1 - alpha}"
            )
    return problems, stats


def provenance() -> dict:
    import platform
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "exactsi": exactsi.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
    }
