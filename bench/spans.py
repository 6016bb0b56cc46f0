"""In-memory span recorder for the traced benchmark run.

Callers inside ``exactsi`` bind names with ``from .x import y``, so a layer
boundary is traced by replacing the name in the *calling* module's namespace
(and, for the one method on the hot path, on its class).  Each span records
name, start, end, parent span, task id and, when the call raised, the
exception class.  Spans stay in memory until the run ends; ``layer_metrics``
turns them into the per-layer table.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# (module whose namespace holds the name, attribute, span name).  A span name's
# first component is its layer: the package module that defines the callee.
PATCHES = (
    ("exactsi.study", "generate_design", "study.generate"),
    ("exactsi.study", "generate_response", "study.generate"),
    ("exactsi.study", "true_projected_target", "study.true_target"),
    ("exactsi.study", "solve_randomized_lasso", "selection.lasso"),
    ("exactsi.study", "lasso_event_rep", "selection.event_rep"),
    ("exactsi.study", "sample_randomization", "selection.randomization"),
    ("exactsi.study", "build_target", "conditioning.build_target"),
    ("exactsi.study", "build_geometry", "conditioning.build_geometry"),
    ("exactsi.study", "pivot_params", "inference.pivot_params"),
    ("exactsi.study", "invert_pivot", "inference.invert_pivot"),
    ("exactsi.study", "polyhedral_interval", "inference.polyhedral_interval"),
    ("exactsi.study", "split_inference", "inference.split_uv"),
    ("exactsi.study", "uv_inference", "inference.split_uv"),
    ("exactsi.study", "plug_in_sigma2", "inference.plug_in_sigma2"),
    ("exactsi.cli", "read_csv_dataset", "cli.read_csv"),
    ("exactsi.cli", "solve_randomized_lasso", "selection.lasso"),
    ("exactsi.cli", "lasso_event_rep", "selection.event_rep"),
    ("exactsi.cli", "sample_randomization", "selection.randomization"),
    ("exactsi.cli", "build_target", "conditioning.build_target"),
    ("exactsi.cli", "build_geometry", "conditioning.build_geometry"),
    ("exactsi.cli", "pivot_params", "inference.pivot_params"),
    ("exactsi.cli", "invert_pivot", "inference.invert_pivot"),
    ("exactsi.cli", "polyhedral_interval", "inference.polyhedral_interval"),
    ("exactsi.cli", "split_inference", "inference.split_uv"),
    ("exactsi.cli", "uv_inference", "inference.split_uv"),
    ("exactsi.cli", "plug_in_sigma2", "inference.plug_in_sigma2"),
    ("exactsi.inference", "exact_pivot", "inference.exact_pivot"),
    ("exactsi.inference", "plug_in_sigma2", "inference.plug_in_sigma2"),
    ("exactsi.inference", "solve_randomized_lasso", "selection.lasso"),
    ("exactsi.inference", "integrate_weighted_gaussian", "numerics.quadrature"),
    ("exactsi.inference", "invert_monotone", "numerics.invert_monotone"),
    ("exactsi.selection", "RandomizationScheme.covariance", "selection.randomization"),
)

# Per-layer metrics, in BENCHMARK.json order: name -> unit.  Counts and self
# times are means per traced task, so that a faster layer reads lower even
# though more tasks then fit into the traced run.
LAYER_METRICS = {
    "numerics.quadrature.calls": "calls/task",
    "numerics.quadrature.self_s": "s/task",
    "numerics.quadrature.nodes": "nodes/task",
    "inference.exact_pivot.calls": "calls/task",
    "inference.exact_pivot.self_s": "s/task",
    "inference.invert_pivot.calls": "calls/task",
    "inference.invert_pivot.self_s": "s/task",
    "inference.pivot_evals_per_interval": "count",
    "numerics.invert_monotone.calls": "calls/task",
    "numerics.invert_monotone.self_s": "s/task",
    "conditioning.build_geometry.calls": "calls/task",
    "conditioning.build_geometry.self_s": "s/task",
    "conditioning.build_geometry.ms_per_call": "ms",
    "conditioning.build_target.calls": "calls/task",
    "conditioning.build_target.self_s": "s/task",
    "inference.pivot_params.self_s": "s/task",
    "selection.lasso.calls": "calls/task",
    "selection.lasso.self_s": "s/task",
    "selection.lasso.ms_per_call": "ms",
    "selection.lasso.kkt_resid_max": "abs",
    "selection.selected_size_mean": "count",
    "selection.event_rep.self_s": "s/task",
    "selection.randomization.self_s": "s/task",
    "inference.polyhedral_interval.calls": "calls/task",
    "inference.polyhedral_interval.self_s": "s/task",
    "inference.split_uv.self_s": "s/task",
    "inference.plug_in_sigma2.self_s": "s/task",
    "study.generate.self_s": "s/task",
    "study.true_target.self_s": "s/task",
    "study.self_s": "s/task",
    "cli.read_csv.self_s": "s/task",
    "cli.self_s": "s/task",
    "selection.self_s": "s/task",
    "conditioning.self_s": "s/task",
    "inference.self_s": "s/task",
    "numerics.self_s": "s/task",
    "trace.task_s_mean": "s/task",
    "trace.overhead_frac": "ratio",
}


def lasso_kkt_residual(data, lam, epsilon, w, outcome) -> float:
    """Max stationarity violation of a returned lasso solution.

    Active coordinates must satisfy ``X'(y - Xb) + w - eps b = lam sign(b)``;
    inactive ones ``|X'(y - Xb) + w| <= lam``.
    """
    b = np.zeros(data.p)
    b[outcome.selected] = outcome.active_solution
    grad = data.X.T @ (data.y - data.X @ b) + np.asarray(w, dtype=float) - epsilon * b
    active = b != 0
    resid = 0.0
    if active.any():
        resid = float(np.max(np.abs(grad[active] - lam * np.sign(b[active]))))
    if (~active).any():
        resid = max(resid, float(np.max(np.abs(grad[~active]))) - lam)
    return max(resid, 0.0)


class Tracer:
    """Span store of one traced run.

    ``install`` patches every boundary in ``PATCHES``; ``span`` opens a span
    around the benchmark's own call, tagging the task id of what follows.
    """

    def __init__(self):
        # [name, start, end, parent, task, error class or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._task = -1
        self.quadrature_nodes = 0
        self.kkt_resid_max = 0.0
        self.selected_sizes: list[int] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._task, None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, exc: BaseException | None = None) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()
        if exc is not None:
            self.spans[sid][5] = type(exc).__name__

    @contextmanager
    def span(self, name: str, task: int | None = None):
        if task is not None:
            self._task = task
        sid = self._open(name)
        try:
            yield
        except BaseException as exc:
            self._close(sid, exc)
            raise
        self._close(sid)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "numerics.quadrature":
                args, kwargs = self._count_nodes(args, kwargs)
            sid = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(sid, exc)
                raise
            self._close(sid)
            if name == "selection.lasso":
                with self.span("bench.check"):
                    self._check_lasso(args, kwargs, out)
            return out

        return traced

    def _check_lasso(self, args, kwargs, outcome) -> None:
        bound = {**dict(zip(("data", "lam", "epsilon", "w"), args)), **kwargs}
        self.selected_sizes.append(int(outcome.selected.size))
        resid = lasso_kkt_residual(
            bound["data"], bound["lam"], bound["epsilon"], bound["w"], outcome
        )
        self.kkt_resid_max = max(self.kkt_resid_max, resid)

    def _count_nodes(self, args, kwargs):
        """Count abscissae by wrapping the log-weight callback each call gets."""
        args = list(args)
        inner = kwargs["log_weight"] if "log_weight" in kwargs else args[2]

        def counted(x):
            self.quadrature_nodes += int(np.size(x))
            return inner(x)

        if "log_weight" in kwargs:
            kwargs = {**kwargs, "log_weight": counted}
        else:
            args[2] = counted
        return tuple(args), kwargs

    @contextmanager
    def install(self):
        """Patch every boundary in ``PATCHES``; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name in PATCHES:
                owner = importlib.import_module(module_name)
                for part in attr.split(".")[:-1]:
                    owner = getattr(owner, part)
                leaf = attr.rsplit(".", 1)[-1]
                original = owner.__dict__[leaf]
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(original, name))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "task", "error")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def task_self_sum_error(spans: list[list]) -> float:
    """Largest |sum of self times in a task - its root span's duration|."""
    selfs = self_times(spans)
    totals: dict[int, float] = defaultdict(float)
    roots: dict[int, float] = {}
    for s, st in zip(spans, selfs):
        totals[s[4]] += st
        if s[3] < 0:
            roots[s[4]] = roots.get(s[4], 0.0) + s[2] - s[1]
    return max((abs(totals[t] - roots.get(t, 0.0)) for t in totals), default=0.0)


def failures_by_class(spans: list[list]) -> dict[str, int]:
    """Exceptions raised out of a task root or out of one of its direct calls.

    These are the calls whose errors the program's own handlers (per method
    in ``run_study``, per target in ``infer``) turn into failed results;
    exceptions caught deeper down never reach a result.
    """
    roots = {i for i, s in enumerate(spans) if s[3] < 0}
    return dict(Counter(s[5] for s in spans if s[5] and (s[3] < 0 or s[3] in roots)))


def _totals(spans: list[list]):
    """Calls and self time by span name, and self time by layer."""
    calls: Counter = Counter()
    self_by_name: dict[str, float] = defaultdict(float)
    self_by_layer: dict[str, float] = defaultdict(float)
    for s, st in zip(spans, self_times(spans)):
        calls[s[0]] += 1
        self_by_name[s[0]] += st
        self_by_layer[s[0].split(".", 1)[0]] += st
    return calls, self_by_name, self_by_layer


def check_seconds(spans: list[list]) -> float:
    """Time spent in the benchmark's own checks inside traced tasks."""
    return sum(s[2] - s[1] for s in spans if s[0] == "bench.check")


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, float]:
    """Per-layer table from the recorded spans; unreached layers read 0.

    Counts and self times are divided by the number of traced tasks.
    """
    spans = tracer.spans
    calls, self_by_name, self_by_layer = _totals(spans)
    tasks = len({s[4] for s in spans if s[3] < 0}) or 1

    def per_task(total):
        return total / tasks

    def per_call_ms(name):
        return 1e3 * self_by_name[name] / calls[name] if calls[name] else 0.0

    out = {
        "numerics.quadrature.calls": per_task(calls["numerics.quadrature"]),
        "numerics.quadrature.self_s": per_task(self_by_name["numerics.quadrature"]),
        "numerics.quadrature.nodes": per_task(tracer.quadrature_nodes),
        "inference.exact_pivot.calls": per_task(calls["inference.exact_pivot"]),
        "inference.exact_pivot.self_s": per_task(self_by_name["inference.exact_pivot"]),
        "inference.invert_pivot.calls": per_task(calls["inference.invert_pivot"]),
        "inference.invert_pivot.self_s": per_task(self_by_name["inference.invert_pivot"]),
        "inference.pivot_evals_per_interval": (
            calls["inference.exact_pivot"] / calls["inference.invert_pivot"]
            if calls["inference.invert_pivot"]
            else 0.0
        ),
        "numerics.invert_monotone.calls": per_task(calls["numerics.invert_monotone"]),
        "numerics.invert_monotone.self_s": per_task(self_by_name["numerics.invert_monotone"]),
        "conditioning.build_geometry.calls": per_task(calls["conditioning.build_geometry"]),
        "conditioning.build_geometry.self_s": per_task(
            self_by_name["conditioning.build_geometry"]
        ),
        "conditioning.build_geometry.ms_per_call": per_call_ms("conditioning.build_geometry"),
        "conditioning.build_target.calls": per_task(calls["conditioning.build_target"]),
        "conditioning.build_target.self_s": per_task(self_by_name["conditioning.build_target"]),
        "inference.pivot_params.self_s": per_task(self_by_name["inference.pivot_params"]),
        "selection.lasso.calls": per_task(calls["selection.lasso"]),
        "selection.lasso.self_s": per_task(self_by_name["selection.lasso"]),
        "selection.lasso.ms_per_call": per_call_ms("selection.lasso"),
        "selection.lasso.kkt_resid_max": tracer.kkt_resid_max,
        "selection.selected_size_mean": (
            float(np.mean(tracer.selected_sizes)) if tracer.selected_sizes else 0.0
        ),
        "selection.event_rep.self_s": per_task(self_by_name["selection.event_rep"]),
        "selection.randomization.self_s": per_task(self_by_name["selection.randomization"]),
        "inference.polyhedral_interval.calls": per_task(calls["inference.polyhedral_interval"]),
        "inference.polyhedral_interval.self_s": per_task(
            self_by_name["inference.polyhedral_interval"]
        ),
        "inference.split_uv.self_s": per_task(self_by_name["inference.split_uv"]),
        "inference.plug_in_sigma2.self_s": per_task(self_by_name["inference.plug_in_sigma2"]),
        "study.generate.self_s": per_task(self_by_name["study.generate"]),
        "study.true_target.self_s": per_task(self_by_name["study.true_target"]),
        "study.self_s": per_task(self_by_layer["study"]),
        "cli.read_csv.self_s": per_task(self_by_name["cli.read_csv"]),
        "cli.self_s": per_task(self_by_layer["cli"]),
        "selection.self_s": per_task(self_by_layer["selection"]),
        "conditioning.self_s": per_task(self_by_layer["conditioning"]),
        "inference.self_s": per_task(self_by_layer["inference"]),
        "numerics.self_s": per_task(self_by_layer["numerics"]),
        "trace.task_s_mean": per_task(
            sum(s[2] - s[1] for s in spans if s[3] < 0) - check_seconds(spans)
        ),
        "trace.overhead_frac": overhead_frac,
    }
    assert list(out) == list(LAYER_METRICS)
    return out


def layer_shares(tracer: Tracer) -> dict[str, float]:
    """Self time of each layer (and of bench checks) over the traced task time."""
    total = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0)
    by_layer = _totals(tracer.spans)[2]
    return {k: v / total for k, v in sorted(by_layer.items())} if total else {}
