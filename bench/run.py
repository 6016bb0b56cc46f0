"""Benchmark of exactsi: study and infer throughput on two workloads.

    python3 bench/run.py --workload infer_wide --seed 1 --seconds 35 --trace 0

Run from the repository root.  With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run (see
README.md).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the full report with provenance, which is also written to
``bench/out/``.  Exits with code 2, printing no result, when the package
source ``src/exactsi`` is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("study_baselines", "infer_wide")
SETUP_REPEATS = 3
# Tasks per second on a 2-vCPU host with one BLAS thread.  With ``--seconds``
# they size a run's work (see ``plan``) so that a run takes about that long
# there.
NOMINAL_TASKS_PER_S = {"study_baselines": 7.5, "infer_wide": 0.63}
# Calls of the reference kernel after each task: 8-10% of a task's time.
REFERENCE_CALLS = {"study_baselines": 1, "infer_wide": 10}
# Mean time of one reference call on the same host; it only sets the scale
# of tasks_per_s.
REFERENCE_S = 0.0125
# BLAS libraries start one thread per core by default.  On a host of two
# cores that thread spins on the second core, and the task's speed then
# follows whatever else runs there: the reference kernel's mean time was 2.8
# times its best at default threads against 1.5 times at one.  The benchmark
# runs BLAS on one thread unless the environment sets these.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (unit, better), in BENCHMARK.json order, then the report-only ones
END_TO_END = {
    "setup_s": ("s", "lower"),
    "tasks_per_s": ("tasks/s", "higher"),
    "coverage": ("ratio", "higher"),
    "interval_len_gmean": ("beta", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "task_s_p50": ("s", "lower"),
    "interval_len_p50": ("beta", "lower"),
    "task_s_tail": ("s", "lower"),
    "fail_frac": ("ratio", "lower"),
}
# Printed and written to the report, but not in the result line.  Task costs
# and interval lengths are bimodal (exact replicates take about 0.4 s or
# 0.9 s; wide-p exact intervals are about 0.23 or 0.45 long), so a median over
# one run jumps between the modes from seed to seed: 26% and 24% spread over
# five seeds.  The geometric mean length moves smoothly instead.  Latencies
# are not scaled for the host's speed, so they follow its drift.  The failure
# rate counts a few events per run at most; the result line's ``failed``
# carries them instead.
REPORT_ONLY = ("task_s_p50", "interval_len_p50", "task_s_tail", "fail_frac")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print the set-up time as JSON and exit; an untraced run "
        "starts two such interpreters and reports the median of three set-ups",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def peak_rss_mb() -> float:
    """Max RSS of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def tail(values: list[float]) -> dict | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    ordered = sorted(values)
    pct = math.floor(100.0 * (n - 10) / n)
    rank = math.ceil(pct / 100.0 * n)
    return {"percentile": pct, "value": ordered[rank - 1], "beyond": n - rank, "n": n}


def plan(workload: str, seconds: float, trace: bool) -> int:
    """Distinct tasks of a run, from ``--seconds`` alone.

    An untraced run makes each task once; a traced run makes half as many
    tasks twice, untraced and then traced.  The work of a run, and with it
    ``attempted`` and ``failed``, depends only on the seed and ``--seconds``,
    never on how fast the host happens to be.
    """
    return max(2, round(seconds * NOMINAL_TASKS_PER_S[workload] / (2 if trace else 1)))


def make_reference():
    """A fixed piece of numpy, scipy and Python work that does not use exactsi.

    Its time tracks the host's speed for code like exactsi's: a Python loop of
    small vector updates (as in coordinate descent), dense solves and
    products, and vectorized special functions on a 4097-point grid (as in
    the quadrature).  It takes about 12 ms.
    """
    import numpy as np
    from scipy.special import log_ndtr, ndtr

    rng = np.random.default_rng(0)
    X = rng.standard_normal((300, 100))
    y = rng.standard_normal(300)
    G = X.T @ X + 300.0 * np.eye(100)
    grid = np.linspace(-8.0, 8.0, 4097)

    def reference() -> float:
        t0 = time.perf_counter()
        b, r = np.zeros(100), y.copy()
        for _ in range(4):
            for j in range(100):
                xj = X[:, j]
                z = xj @ r + 300.0 * b[j]
                nb = math.copysign(max(abs(z) - 5.0, 0.0), z) / 300.0
                r -= xj * (nb - b[j])
                b[j] = nb
        for _ in range(10):
            np.linalg.solve(G, X.T @ y)
            np.linalg.cholesky(G)
            X @ G
        for _ in range(20):
            np.exp(log_ndtr(grid) - 0.5 * grid**2).sum()
            ndtr(grid)
        return time.perf_counter() - t0

    return reference


def run_round(wl, state, tasks: int, tracer=None, reference=None, ref_calls=0):
    """Tasks ``0 .. tasks-1`` one at a time, each scored before the next.

    Returns per-task results, per-task latencies, the round's wall time and
    the times of ``ref_calls`` reference calls made after each task.  With a
    tracer each call is a root span.
    """
    results, latencies, ref_times = [], [], []
    start = time.perf_counter()
    for i in range(tasks):
        args, kwargs = wl.task_args(state, i)
        t0 = time.perf_counter()
        if tracer is None:
            out = wl.entry(*args, **kwargs)
        else:
            with tracer.span(wl.root_span, task=i):
                out = wl.entry(*args, **kwargs)
        latencies.append(time.perf_counter() - t0)
        results.append(wl.score(state, i, out))
        ref_times += [reference() for _ in range(ref_calls)]
    return results, latencies, time.perf_counter() - start, ref_times


def repeat_problems(first, again, label: str) -> list[str]:
    """A task made again must give the same intervals and failures."""
    def key(r):
        # via JSON, so that NaN compares equal to NaN
        return json.dumps([r.intervals, r.attempted, r.failed])

    return [
        f"task {i} gave other outputs in {label}"
        for i, (a, b) in enumerate(zip(first, again))
        if key(a) != key(b)
    ]


def end_to_end(results, latencies, ref_times, setup_samples) -> dict:
    """Metrics of one untraced round of tasks.

    ``tasks_per_s`` is the tasks' throughput (tasks over the sum of their
    latencies) scaled by the host's speed during the round: the mean time of
    the reference kernel over ``REFERENCE_S``.  A host running at half speed
    doubles both, so the product stays put, while a change to exactsi moves
    only the tasks.  ``setup_s``, the median set-up time, is scaled the same
    way, divided by that ratio.
    """
    tasks = len(results)
    lengths = [hi - lo for r in results for _, _, _, lo, hi, _ in r.intervals
               if -math.inf < lo < hi < math.inf]  # check_run reports the others
    covered = [lo <= t <= hi for r in results for _, _, _, lo, hi, t in r.intervals]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    raw_tps = tasks / math.fsum(latencies)
    slowdown = statistics.fmean(ref_times) / REFERENCE_S
    values = {
        "setup_s": statistics.median(setup_samples) / slowdown if setup_samples else None,
        "tasks_per_s": raw_tps * slowdown,
        "task_s_p50": statistics.median(latencies),
        "coverage": sum(covered) / len(covered) if covered else None,
        "interval_len_gmean": (
            math.exp(statistics.fmean(map(math.log, lengths))) if lengths else None
        ),
        "interval_len_p50": statistics.median(lengths) if lengths else None,
        "peak_rss_mb": peak_rss_mb(),
        "task_s_tail": tail(latencies),
        "fail_frac": failed / attempted if attempted else None,
    }
    details = {
        "tasks": tasks,
        "intervals": len(lengths),
        "tasks_per_s_unscaled": raw_tps,
        "host_slowdown": slowdown,
        "reference_s": {"mean": statistics.fmean(ref_times),
                        "median": statistics.median(ref_times),
                        "min": min(ref_times), "calls": len(ref_times)},
        "setup_s_samples": setup_samples,
    }
    return values, details


def measure(wl, state, tasks: int, trace: bool, setup_samples=()) -> dict:
    """Run one workload and return the report (result keys plus details)."""
    import workloads

    alpha = wl.config.alpha
    if not trace:
        reference = make_reference()
        reference()  # warm-up
        results, latencies, _, ref_times = run_round(
            wl, state, tasks, reference=reference, ref_calls=REFERENCE_CALLS[wl.name]
        )
        problems, coverage = workloads.check_run(results, alpha)
        values, details = end_to_end(results, latencies, ref_times, list(setup_samples))
        details["coverage_by_method"] = coverage
        metrics = {
            k: {"value": values[k], "unit": END_TO_END[k][0]}
            for k in END_TO_END
            if k not in REPORT_ONLY
        }
        for k, v in metrics.items():
            if not (isinstance(v["value"], float) and math.isfinite(v["value"]) and v["value"] > 0):
                problems.append(f"metric {k} is {v['value']!r}")
        details["all_metrics"] = {
            k: {"value": values[k], "unit": u, "better": b} for k, (u, b) in END_TO_END.items()
        }
        return _report(results, problems, metrics, details)

    import spans

    # The same tasks untraced, then traced: the ratio of the two wall times,
    # less the traced run's own lasso checks, is the tracing overhead.
    plain, _, wall_plain, _ = run_round(wl, state, tasks)
    tracer = spans.Tracer()
    with tracer.install():
        traced, _, wall_traced, _ = run_round(wl, state, tasks, tracer=tracer)
    check_s = spans.check_seconds(tracer.spans)
    layer = spans.layer_metrics(tracer, (wall_traced - check_s) / wall_plain - 1.0)
    problems, coverage = workloads.check_run(plain, alpha)
    problems += repeat_problems(plain, traced, "the traced round")
    sum_err = spans.task_self_sum_error(tracer.spans)
    if sum_err > 1e-6:
        problems.append(f"layer self times miss a task's traced duration by {sum_err:.3e} s")
    OUT.mkdir(parents=True, exist_ok=True)
    span_file = OUT / f"spans-{wl.name}-seed{state['seed']}.json"
    tracer.dump(span_file)
    details = {
        "tasks_traced": len(traced),
        "bench_check_s": check_s,
        "coverage_by_method": coverage,
        "layer_shares": spans.layer_shares(tracer),
        "self_sum_error_max_s": sum_err,
        "failures_by_class": spans.failures_by_class(tracer.spans),
        "spans": len(tracer.spans),
        "span_file": str(span_file.relative_to(ROOT)),
    }
    metrics = {k: {"value": layer[k], "unit": u} for k, u in spans.LAYER_METRICS.items()}
    return _report(plain + traced, problems, metrics, details)


def _report(results, problems, metrics, details) -> dict:
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
        "details": {**details, "problems": problems},
    }


def git_commit() -> str:
    """Commit of the checkout, or "unknown" outside a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def setup_probe(args) -> float:
    """Set-up time of a fresh interpreter, measured by a child run of this file."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def print_table(report: dict) -> None:
    rows = report["details"].get("all_metrics") or {
        k: {**v, "better": ""} for k, v in report["metrics"].items()
    }
    for name, m in rows.items():
        value = m["value"]
        if isinstance(value, dict):
            value = f"{value['value']:.6g} (p{value['percentile']}, {value['beyond']} beyond, n={value['n']})"
        elif value is None:
            value = "n/a"
        else:
            value = f"{value:.6g}"
        print(f"{name:40s} {value:>24s} {m['unit']:8s} {m['better']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "exactsi" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    blas_threads = {var: os.environ.get(var, "1 (set by the benchmark)")
                    for var in BLAS_THREAD_VARS}
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    t0 = time.perf_counter()
    import workloads

    wl = workloads.make_workloads()[args.workload]
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tasks = plan(args.workload, args.seconds, bool(args.trace))
        state = wl.setup(args.seed, workdir, tasks)
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        samples = [setup_s]
        if not args.trace:
            samples += [setup_probe(args) for _ in range(SETUP_REPEATS - 1)]
        report = measure(wl, state, tasks, bool(args.trace), samples)
        report["details"]["provenance"] = {
            **workloads.provenance(),
            "blas_threads": blas_threads,
            "git_commit": git_commit(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "tasks": tasks,
            **wl.describe(),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print_table(report)
    for problem in report["details"]["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(report["details"]))
    result = {k: report[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
