"""Outside-in tracing of ``explain()`` calls, for the per-layer metrics.

While installed, a :class:`Tracer` replaces the public functions of the
``src/repro`` layers with wrappers that record one :class:`Span` per call:
name, start, end, parent span and the id of the traced ``explain()`` call.
Nothing inside ``src/repro`` changes; the wrappers are put on the defining
module (or class) and on every ``repro.*`` module that imported the same
function object by name, and are removed again by :meth:`Tracer.uninstall`.

Spark jobs are counted per span with job groups. A span of a function that
can launch jobs sets its own group on entry and restores its parent's on
exit, so every job of the call lands in the group of the innermost such
span. After the call the listener bus is drained and each group's jobs are
read from ``statusTracker().getJobIdsForGroup`` (this works with the UI
disabled). Independently, ``spark.jobs`` counts the job ids allocated
during the call, so a job that escaped every group shows up as a mismatch.

Driver-only leaves (pattern masks, LCA, refinement, top-k) do not set a job
group: ``setJobGroup`` is a Py4J round trip of about 0.1 ms, and
``Pattern.pandas_mask`` runs thousands of times per call.
"""
from __future__ import annotations

import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from pyspark.sql import SparkSession

from repro.core.metrics import SupportEvaluator
from repro.core.mine import STEP_NAMES
from repro.core.pattern import Pattern
from repro.substrate.catalog import Database

_MISSING = object()
Observer = Callable[["CallTrace", tuple, Any], None]  # (trace, args, result)


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    call: int
    start: float
    end: float = 0.0
    group: str | None = None  # Spark job group, on spans that may run jobs
    jobs: int = 0  # jobs run while this was the innermost grouped span


@dataclass
class CallTrace:
    """Spans and counters of one traced ``explain()`` call."""

    call: int
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    est_rows: dict[Any, float] = field(default_factory=dict)  # jg → estimate
    apt_rows: dict[Any, int] = field(default_factory=dict)  # jg → actual
    spark_jobs: int = 0

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value


def _fs_observe(ct: CallTrace, args: tuple, r: Any) -> None:
    ct.add("feature_selection.sample_rows", len(args[0]))
    ct.add("feature_selection.attrs_kept", len(r.num_attrs) + len(r.cat_attrs))


def _mine_observe(ct: CallTrace, args: tuple, r: Any) -> None:
    ct.apt_rows[args[2]] = r.apt_rows
    ct.add("apt.rows", r.apt_rows)
    ct.add("apt.empty", int(r.apt_rows == 0))


def _est_observe(ct: CallTrace, args: tuple, r: Any) -> None:
    ct.est_rows[args[0]] = r


# (owner, attribute, span name, may run Spark jobs, observer). An owner
# given as a string is a module whose function is wrapped wherever
# ``repro.*`` bound it; a class owner has its method replaced.
TARGETS: list[tuple[Any, str, str, bool, Observer | None]] = [
    ("repro.core.explain", "explain", "explain", True, None),
    ("repro.substrate.provenance", "compute_pt", "provenance.compute_pt", True,
     lambda ct, a, r: ct.add("provenance.pt_rows", r.n_rows)),
    (Database, "n_rows", "catalog.stats", True, None),
    (Database, "n_distinct", "catalog.stats", True, None),
    ("repro.core.join_graph", "enumerate_join_graphs", "join_graph.enumerate",
     False, lambda ct, a, r: ct.add("join_graph.enumerated", len(r))),
    ("repro.core.join_graph", "is_valid", "join_graph.is_valid", False,
     lambda ct, a, r: ct.add("join_graph.valid", int(bool(r)))),
    ("repro.core.join_graph", "estimate_apt_rows", "join_graph.estimate",
     False, _est_observe),
    ("repro.core.apt", "materialize_apt", "apt.materialize", False, None),
    ("repro.core.mine", "mine_apt", "mine.mine_apt", True, _mine_observe),
    ("repro.core.feature_selection", "filter_attrs",
     "feature_selection.filter_attrs", False, _fs_observe),
    ("repro.core.lca", "lca_candidates", "lca.candidates", False,
     lambda ct, a, r: ct.add("lca.candidates", len(r))),
    ("repro.core.metrics", "pt_sizes", "metrics.pt_sizes", True, None),
    (SupportEvaluator, "__init__", "metrics.evaluator_init", True,
     lambda ct, a, r: ct.add("metrics.collected_rows", a[0].n_rows)),
    (SupportEvaluator, "supports", "metrics.supports", False,
     lambda ct, a, r: ct.add("metrics.patterns_scored", len(a[1]))),
    ("repro.core.metrics", "compute_support", "metrics.compute_support", True,
     lambda ct, a, r: ct.add("metrics.patterns_scored", len(r))),
    (Pattern, "pandas_mask", "pattern.pandas_mask", False, None),
    ("repro.core.refine", "numeric_fragments", "refine", False, None),
    ("repro.core.refine", "refinements", "refine", False,
     lambda ct, a, r: ct.add("refine.generated", len(r))),
    ("repro.core.topk", "diverse_topk", "topk.diverse_topk", False, None),
]


def _slug(step: str) -> str:
    return "_".join("".join(c if c.isalnum() else " " for c in step).lower().split())


# Every per-layer metric with its unit; the traced run reports all of them
# (0 where a layer is not reached). ``trace.overhead_s`` is added by run.py.
LAYER_METRICS: dict[str, str] = {
    "provenance.compute_pt.s": "s",
    "provenance.compute_pt.jobs": "count",
    "provenance.pt_rows": "count",
    "catalog.stats.s": "s",
    "catalog.stats.jobs": "count",
    "catalog.stats.calls": "count",
    "join_graph.enumerate.s": "s",
    "join_graph.is_valid.s": "s",
    "join_graph.enumerated": "count",
    "join_graph.valid": "count",
    "join_graph.est_rows_ratio": "ratio",
    "apt.materialize.s": "s",
    "apt.rows": "count",
    "apt.empty": "count",
    "mine.mine_apt.s": "s",
    "mine.mine_apt.self_s": "s",
    "mine.mine_apt.jobs": "count",
    **{f"mine.steps.{_slug(step)}.s": "s" for step in STEP_NAMES},
    "feature_selection.filter_attrs.s": "s",
    "feature_selection.sample_rows": "count",
    "feature_selection.attrs_kept": "count",
    "lca.candidates.s": "s",
    "lca.candidates": "count",
    "metrics.pt_sizes.s": "s",
    "metrics.pt_sizes.jobs": "count",
    "metrics.pt_sizes.calls": "count",
    "metrics.evaluator_init.s": "s",
    "metrics.evaluator_init.jobs": "count",
    "metrics.collected_rows": "count",
    "metrics.supports.s": "s",
    "metrics.patterns_scored": "count",
    "metrics.compute_support.s": "s",
    "metrics.compute_support.jobs": "count",
    "metrics.compute_support.calls": "count",
    "pattern.pandas_mask.s": "s",
    "pattern.pandas_mask.calls": "count",
    "refine.s": "s",
    "refine.generated": "count",
    "topk.diverse_topk.s": "s",
    "explain.s": "s",
    "explain.self_s": "s",
    "spark.jobs": "count",
    "driver.collected_rows": "count",
}


class Tracer:
    """Installs the layer wrappers and traces one ``explain()`` call at a time."""

    def __init__(self, spark: SparkSession) -> None:
        self.spark = spark
        self.sc = spark.sparkContext
        self._status = self.sc.statusTracker()
        self._next_job = 0
        self._current: CallTrace | None = None
        self._stack: list[Span] = []
        self._n_calls = 0
        self._saved: list[tuple[Any, str, Any]] = []
        self._collect_depth = 0

    # ---- installation -------------------------------------------------
    def install(self) -> None:
        for owner, attr, name, grouped, observe in TARGETS:
            if isinstance(owner, str):
                orig = getattr(importlib.import_module(owner), attr)
                wrapped = self._wrap(orig, name, grouped, observe)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith("repro.") and getattr(mod, attr, None) is orig:
                        self._patch(mod, attr, wrapped)
            else:
                self._patch(owner, attr, self._wrap(getattr(owner, attr), name, grouped, observe))
        # Rows collected to the driver, counted once per outermost call.
        df_cls = type(self.spark.range(1))
        for attr in ("toPandas", "collect"):
            self._patch(df_cls, attr, self._count_rows(getattr(df_cls, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            if orig is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        # An inherited method is shadowed, then deleted again on uninstall.
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, new)

    def _wrap(self, fn, name: str, grouped: bool, observe: Observer | None):
        tracer = self

        def wrapper(*args, **kwargs):
            ct = tracer._current
            if ct is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(len(ct.spans), name, parent.sid if parent else None,
                        ct.call, time.perf_counter())
            ct.spans.append(span)
            tracer._stack.append(span)
            if grouped:
                span.group = f"trace-{ct.call}-{span.sid}"
                tracer.sc.setJobGroup(span.group, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                if grouped:
                    outer = next((s.group for s in reversed(tracer._stack) if s.group), None)
                    if outer is None:
                        tracer.sc.setLocalProperty("spark.jobGroup.id", None)
                    else:
                        tracer.sc.setJobGroup(outer, outer)
                span.end = time.perf_counter()
            if observe is not None:
                observe(ct, args, result)
            return result

        return wrapper

    def _count_rows(self, fn):
        tracer = self

        def wrapper(df, *args, **kwargs):
            tracer._collect_depth += 1
            try:
                out = fn(df, *args, **kwargs)
            finally:
                tracer._collect_depth -= 1
            if tracer._current is not None and tracer._collect_depth == 0:
                tracer._current.add("driver.collected_rows", len(out))
            return out

        return wrapper

    # ---- one traced call ----------------------------------------------
    def _job_ids_end(self) -> int:
        """First job id not yet allocated (ids are allocated consecutively)."""
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        i = self._next_job
        while self._status.getJobInfo(i) is not None:
            i += 1
        self._next_job = i
        return i

    def call(self, fn: Callable[[], Any]) -> tuple[Any, CallTrace]:
        """Run ``fn`` (one ``explain()`` call) traced; exceptions propagate
        after the trace is closed."""
        self._n_calls += 1
        ct = CallTrace(self._n_calls)
        first_job = self._job_ids_end()
        self._current = ct
        try:
            result = fn()
        finally:
            self._current = None
            self._stack.clear()
            ct.spark_jobs = self._job_ids_end() - first_job
            for span in ct.spans:
                if span.group:
                    span.jobs = len(self._status.getJobIdsForGroup(span.group))
        return result, ct


def check_spans(ct: CallTrace) -> list[str]:
    """Trace integrity: children nest inside their parents within one call,
    and the per-span job counts add up to every job the call ran."""
    errors = []
    by_id = {s.sid: s for s in ct.spans}
    for s in ct.spans:
        if s.call != ct.call:
            errors.append(f"span {s.sid} {s.name} carries call {s.call}")
        if s.end < s.start:
            errors.append(f"span {s.sid} {s.name} ends before it starts")
        if s.parent is not None:
            p = by_id[s.parent]
            if not (p.start <= s.start and s.end <= p.end):
                errors.append(f"span {s.sid} {s.name} is not inside {p.sid} {p.name}")
    roots = [s for s in ct.spans if s.parent is None]
    if [s.name for s in roots] != ["explain"]:
        errors.append(f"expected one root explain span, got {[s.name for s in roots]}")
    attributed = sum(s.jobs for s in ct.spans)
    if attributed != ct.spark_jobs:
        errors.append(f"span jobs sum to {attributed}, call ran {ct.spark_jobs}")
    return errors


def layer_metrics(ct: CallTrace, step_times: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced call. ``.s`` sums span durations,
    ``.self_s`` subtracts child spans, ``.jobs`` counts the jobs of a span
    and its descendants, ``.calls`` counts spans. ``step_times`` is the
    call's ``ExplainResult.timer.times``."""
    dur = {s.sid: s.end - s.start for s in ct.spans}
    child_s = dict.fromkeys(dur, 0.0)
    jobs = {s.sid: s.jobs for s in ct.spans}
    for s in reversed(ct.spans):  # children are created after their parents
        if s.parent is not None:
            child_s[s.parent] += dur[s.sid]
            jobs[s.parent] += jobs[s.sid]
    agg: dict[str, dict[str, float]] = {}
    for s in ct.spans:
        a = agg.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "jobs": 0, "calls": 0})
        a["s"] += dur[s.sid]
        a["self_s"] += dur[s.sid] - child_s[s.sid]
        a["jobs"] += jobs[s.sid]
        a["calls"] += 1

    ratios = [
        ct.est_rows[jg] / rows
        for jg, rows in ct.apt_rows.items()
        if rows > 0 and jg in ct.est_rows
    ]
    out: dict[str, float] = dict.fromkeys(LAYER_METRICS, 0)
    for name in LAYER_METRICS:
        span_name, _, kind = name.rpartition(".")
        if span_name in agg and kind in ("s", "self_s", "jobs", "calls"):
            out[name] = agg[span_name][kind]
        elif name in ct.counters:
            out[name] = ct.counters[name]
    for step in STEP_NAMES:
        out[f"mine.steps.{_slug(step)}.s"] = step_times.get(step, 0.0)
    out["join_graph.est_rows_ratio"] = statistics.median(ratios) if ratios else 0.0
    out["spark.jobs"] = ct.spark_jobs
    return out
