"""Self-test of the benchmark at minimal input sizes.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from exactsi.study import run_study  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = workloads.make_workloads(tiny=True)
TINY_EXACT = replace(TINY["study_baselines"].config, methods=("exact",))


def tiny_report(name: str, seed: int, trace: bool, tmp_path: Path) -> dict:
    wl = TINY[name]
    state = wl.setup(seed, tmp_path, 2)
    return run.measure(wl, state, tasks=2, trace=trace, setup_samples=[0.5])


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(TINY) == set(run.WORKLOADS)
    for m in SPEC["end_to_end"]:
        assert run.END_TO_END[m["name"]] == (m["unit"], m["better"])
    assert [m["name"] for m in SPEC["end_to_end"]] == [
        k for k in run.END_TO_END if k not in run.REPORT_ONLY
    ]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.LAYER_METRICS


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    report = tiny_report(name, 3, trace, tmp_path)
    assert report["correct"], report["details"]["problems"]
    assert report["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in report["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for v in report["metrics"].values():
        assert isinstance(v["value"], (int, float))
    if trace:
        assert report["details"]["self_sum_error_max_s"] <= 1e-9
    else:
        every = report["details"]["all_metrics"]
        assert set(every) == set(run.END_TO_END)
        for k, m in every.items():
            assert (m["unit"], m["better"]) == run.END_TO_END[k]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_inputs_follow_the_seed(name, tmp_path):
    wl = TINY[name]

    def first_task(seed, sub):
        workdir = tmp_path / sub
        workdir.mkdir()
        state = wl.setup(seed, workdir, 1)
        args, kwargs = wl.task_args(state, 0)
        return wl.score(state, 0, wl.entry(*args, **kwargs)).intervals

    a, again, b = first_task(1, "a"), first_task(1, "again"), first_task(2, "b")
    assert a == again
    assert a != b


def test_work_of_a_run_depends_on_its_arguments_only():
    for name in run.WORKLOADS:
        tasks = run.plan(name, 40, False)
        assert tasks >= 2 and run.plan(name, 40, False) == tasks
        assert run.plan(name, 80, False) > tasks
        assert run.plan(name, 40, True) < tasks


def test_a_task_made_again_must_give_the_same_outputs():
    def result(upper):
        return workloads.TaskResult(1, 0, [("m", "0", 0, 0.0, upper, 0.5)])

    nan = float("nan")
    assert run.repeat_problems([result(1.0), result(nan)], [result(1.0), result(nan)], "x") == []
    assert run.repeat_problems([result(1.0)], [result(1.5)], "x") == [
        "task 0 gave other outputs in x"
    ]


def test_rows_do_not_depend_on_worker_count():
    cfg = replace(TINY["study_baselines"].config, n_reps=2 * workloads.nproc(),
                  methods=("exact", "polyhedral", "split", "uv"))
    serial = run_study(cfg, workers=1).rows
    pooled = run_study(cfg, workers=workloads.nproc()).rows
    # via JSON, so that NaN bounds of an empty selection compare equal
    assert json.dumps(pooled, sort_keys=True) == json.dumps(serial, sort_keys=True)


def test_tracer_self_times_and_restore():
    import exactsi.study

    original = exactsi.study.invert_pivot
    tracer = spans.Tracer()
    with tracer.install():
        assert exactsi.study.invert_pivot is not original
        with tracer.span("study.run_study", task=0):
            run_study(replace(TINY_EXACT, seed=5), workers=1)
    assert exactsi.study.invert_pivot is original
    assert spans.task_self_sum_error(tracer.spans) <= 1e-9
    names = {s[0] for s in tracer.spans}
    assert {"numerics.quadrature", "inference.exact_pivot", "selection.lasso"} <= names
    assert tracer.quadrature_nodes > 0


def test_layer_counts_are_per_task():
    cfg = replace(TINY_EXACT, seed=5)

    def traced(tasks):
        tracer = spans.Tracer()
        with tracer.install():
            for task in range(tasks):
                with tracer.span("study.run_study", task=task):
                    run_study(cfg, workers=1)
        return spans.layer_metrics(tracer, 0.0)

    once, twice = traced(1), traced(2)
    for name, unit in spans.LAYER_METRICS.items():
        if unit in ("calls/task", "nodes/task"):
            assert once[name] == twice[name], name
    assert once["numerics.quadrature.calls"] > 0


def test_coverage_gate_fails_under_coverage_only():
    def result(covered, n):
        ivs = [("m", str(i), 0, 0.0, 1.0, 0.5 if i < covered else 2.0) for i in range(n)]
        return workloads.TaskResult(attempted=n, failed=0, intervals=ivs)

    assert workloads.check_run([result(90, 100)], 0.1)[0] == []
    assert workloads.check_run([result(100, 100)], 0.1)[0] == []
    assert workloads.check_run([result(40, 100)], 0.1)[0]


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(19))) is None
    t = run.tail([float(i) for i in range(100)])
    assert t["percentile"] == 90 and t["beyond"] == 10 and t["value"] == 89.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "study_baselines", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
