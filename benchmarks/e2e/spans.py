"""Layer spans for traced runs of the end-to-end benchmark.

Recording happens in the workload process. :func:`install` wraps public
functions of ``repro`` where their callers look them up: ``fold_trace``
is patched in both ``repro.harness.runner`` and
``repro.analysis.limit_study``, and the DAG task functions in
``repro.exec.tasks`` are patched before ``build_tasks`` reads them. Each
call becomes one span holding its name, start, end, parent span and the
DAG task it belongs to. Spans stay in memory. Process-pool workers are
forked, so they inherit the wrappers; each appends its spans to a
per-pid file after every task, and the workload process writes its own
file when it finishes.

Analysis happens in ``run.py``: :func:`load` reads the per-pid files of
one invocation and :func:`layer_metrics` turns them into the per-layer
metrics that BENCHMARK.json declares. A layer's self time is its span's
duration minus the part of that interval its child spans cover. A
child may run in another process (a pool worker's task under the
scheduler's span), so coverage is the union of the children's
intervals, clipped to the parent's.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: DAG task functions in ``repro.exec.tasks``; each call is one task.
TASK_FUNCTIONS = ("run_trace", "run_candidates", "run_baseline",
                  "run_profile", "run_plan", "run_timing", "run_check",
                  "run_subset")

#: Layers reported as ``<layer>.calls`` and ``<layer>.self_s``.
CALL_LAYERS = ("minigraph.fold_trace", "pipeline.core_init", "pipeline.run",
               "pipeline.run_batch", "exec.store_put", "exec.store_get",
               "isa.execute", "workloads.program", "minigraph.enumerate",
               "minigraph.templates", "minigraph.make_plan",
               "minigraph.profile")

#: Layers reported by self time only.
SELF_LAYERS = ("exec.store_key", "exec.batch_wave", "exec.scheduler",
               "analysis.limit_study", "harness.figure")

#: Duration percentiles reported per layer, as (layer, quantile) pairs.
PERCENTILES = (("minigraph.fold_trace", 50), ("minigraph.fold_trace", 99),
               ("exec.store_put", 99), ("exec.store_get", 50),
               ("exec.store_get", 99))


def _spec_key(spec: Any) -> str:
    return json.dumps(spec, sort_keys=True, default=str)


class Recorder:
    """In-memory span stack and finished-span list of one process."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.root_pid = os.getpid()
        #: Open spans, innermost last. A forked worker keeps its parent's
        #: stack, so its first span's parent is the span that forked it.
        self.stack: List[Dict[str, Any]] = []
        #: Canonical task spec -> DAG task id, filled by Scheduler.run
        #: before its pool forks (workers inherit the table).
        self.task_ids: Dict[str, str] = {}
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.done: List[Dict[str, Any]] = []
        self.serial = 0

    def begin(self, name: str, task: Optional[str] = None) -> Dict[str, Any]:
        """Open a span under the innermost open one."""
        parent = self.stack[-1] if self.stack else None
        self.serial += 1
        span = {"id": f"{self.pid}:{self.serial}", "name": name,
                "parent": parent["id"] if parent else None,
                "task": task or (parent["task"] if parent else None),
                "pid": self.pid, "t0": time.perf_counter_ns()}
        self.stack.append(span)
        return span

    def end(self, span: Dict[str, Any]) -> None:
        """Close ``span``, which must be the innermost open span."""
        span["t1"] = time.perf_counter_ns()
        self.stack.pop()
        self.done.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the ``with`` block as one span."""
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    @staticmethod
    def add(span: Dict[str, Any], key: str, amount: int) -> None:
        """Add ``amount`` to one of ``span``'s counts."""
        counts = span.setdefault("n", {})
        counts[key] = counts.get(key, 0) + amount

    def add_here(self, key: str, amount: int) -> None:
        """Add to a count of the innermost open span, if any."""
        if self.stack:
            self.add(self.stack[-1], key, amount)

    def flush(self, counters: Optional[Dict[str, int]] = None) -> None:
        """Append finished spans (and ``counters``) to this pid's file."""
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a") as handle:
            for span in self.done:
                handle.write(json.dumps(span) + "\n")
            if counters is not None:
                handle.write(json.dumps({"counters": counters}) + "\n")
        self.done = []

    def wrap(self, fn: Callable, name: str,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``count(span, args,
        result)`` may attach counts before the span closes."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with recorder.span(name) as span:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(span, args, result)
                return result
        return traced

    def counter(self, fn: Callable, count: Callable) -> Callable:
        """``fn`` adding ``count(args, result)`` pairs to the innermost
        open span, without a span of its own."""
        recorder = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            for key, amount in count(args, result):
                recorder.add_here(key, amount)
            return result
        return counted

    def wrap_task(self, fn: Callable) -> Callable:
        """A DAG task function: one ``exec.task`` span carrying the task
        id; pool workers flush their spans after every task."""
        recorder = self

        @functools.wraps(fn)
        def task(spec):
            span = recorder.begin("exec.task",
                                  recorder.task_ids.get(_spec_key(spec)))
            try:
                return fn(spec)
            finally:
                recorder.end(span)
                if recorder.pid != recorder.root_pid:
                    recorder.flush()
        return task

    def wrap_scheduler_run(self, run: Callable) -> Callable:
        """``Scheduler.run``: register task ids, then one
        ``exec.scheduler`` span counting the scheduler's workers."""
        recorder = self

        @functools.wraps(run)
        def traced(scheduler, tasks, *args, **kwargs):
            for task in tasks:
                if task.args and isinstance(task.args[0], dict):
                    recorder.task_ids[_spec_key(task.args[0])] = task.id
            with recorder.span("exec.scheduler") as span:
                recorder.add(span, "workers", scheduler.jobs)
                return run(scheduler, tasks, *args, **kwargs)
        return traced


def install(out_dir) -> Recorder:
    """Wrap the layer boundaries of ``repro``; returns the recorder.

    Call after setup and before the first ``run_points``; the workload
    process calls :meth:`Recorder.flush` with ``ckern.counters`` last.
    """
    import repro.analysis.limit_study as limit_study
    import repro.exec.batch as batch
    import repro.exec.dag as dag
    import repro.exec.store as store
    import repro.exec.tasks as tasks
    import repro.harness.runner as runner
    import repro.minigraph.slack as slack
    import repro.pipeline.ckern as ckern
    import repro.pipeline.core as core
    import repro.workloads.suite as suite

    recorder = Recorder(out_dir)
    os.register_at_fork(after_in_child=recorder._reset)

    def patch(owner, attr: str, name: str, count=None) -> None:
        setattr(owner, attr, recorder.wrap(getattr(owner, attr), name, count))

    def insts(span, args, stats) -> None:
        recorder.add(span, "insts", stats.original_committed)

    def points(span, args, result) -> None:
        recorder.add(span, "points", len(args[0]))

    def hit(span, args, value) -> None:
        recorder.add(span, "hit", int(value is not store.MISS))

    for module in (runner, limit_study):
        patch(module, "fold_trace", "minigraph.fold_trace")
        patch(module, "build_templates", "minigraph.templates")
        patch(module, "make_plan", "minigraph.make_plan")
    patch(runner, "execute", "isa.execute")
    patch(runner, "enumerate_candidates", "minigraph.enumerate")
    patch(limit_study, "run_limit_study", "analysis.limit_study")
    patch(slack.SlackCollector, "profile", "minigraph.profile")
    patch(slack.SlackCollector, "ingest_ckern_tap", "minigraph.profile")
    patch(suite.Benchmark, "program", "workloads.program")
    patch(core.OoOCore, "__init__", "pipeline.core_init")
    patch(core.OoOCore, "run", "pipeline.run", insts)
    patch(ckern, "run_batch", "pipeline.run_batch", points)
    patch(batch, "run_batch_wave", "exec.batch_wave")
    patch(store.ArtifactStore, "get", "exec.store_get", hit)
    patch(store.ArtifactStore, "put", "exec.store_put")
    patch(store.ArtifactStore, "key", "exec.store_key")
    # Batched points return their stats here rather than from run().
    core.OoOCore.apply_kernel_result = recorder.counter(
        core.OoOCore.apply_kernel_result,
        lambda args, stats: [] if stats is None
        else [("insts", stats.original_committed)])
    store.ArtifactBackend.write = recorder.counter(
        store.ArtifactBackend.write,
        lambda args, result: [("bytes", len(args[2]))])
    dag.Scheduler.run = recorder.wrap_scheduler_run(dag.Scheduler.run)
    for name in TASK_FUNCTIONS:
        setattr(tasks, name, recorder.wrap_task(getattr(tasks, name)))
    return recorder


# ---------------------------------------------------------------------------
# Analysis (run.py side)
# ---------------------------------------------------------------------------

def load(trace_dir) -> Tuple[List[Dict[str, Any]], Dict[str, int]]:
    """Every span and the merged counters written under ``trace_dir``."""
    spans: List[Dict[str, Any]] = []
    counters: Dict[str, int] = {}
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path) as handle:
            for line in handle:
                record = json.loads(line)
                if "counters" in record:
                    for key, value in record["counters"].items():
                        counters[key] = counters.get(key, 0) + value
                else:
                    spans.append(record)
    return spans, counters


def covered(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, int]:
    """Span id -> self time in ns (duration minus children's coverage)."""
    children: Dict[str, List[Tuple[int, int]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["t0"], span["t1"]))
    return {span["id"]: span["t1"] - span["t0"]
            - covered(children.get(span["id"], ()), span["t0"], span["t1"])
            for span in spans}


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def layer_metrics(spans: List[Dict[str, Any]],
                  counters: Dict[str, int]) -> Dict[str, float]:
    """The per-layer metrics of one traced invocation (all but
    ``trace_overhead_frac``, which needs untraced runs too)."""
    selfs = self_times(spans)
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def self_s(name: str) -> float:
        return sum(selfs[span["id"]] for span in by_name.get(name, ())) / 1e9

    def total(name: str, key: str) -> int:
        return sum(span.get("n", {}).get(key, 0)
                   for span in by_name.get(name, ()))

    def durations_ms(name: str) -> List[float]:
        return [(span["t1"] - span["t0"]) / 1e6
                for span in by_name.get(name, ())]

    metrics: Dict[str, float] = {}
    for name in CALL_LAYERS:
        metrics[f"{name}.calls"] = len(by_name.get(name, ()))
        metrics[f"{name}.self_s"] = self_s(name)
    for name in SELF_LAYERS:
        metrics[f"{name}.self_s"] = self_s(name)
    for name, q in PERCENTILES:
        metrics[f"{name}.p{q}_ms"] = percentile(durations_ms(name), q)
    metrics["pipeline.run_batch.points"] = total("pipeline.run_batch",
                                                 "points")
    metrics["pipeline.sim_insts"] = sum(span.get("n", {}).get("insts", 0)
                                        for span in spans)
    metrics["exec.store_put.bytes"] = total("exec.store_put", "bytes")
    gets = metrics["exec.store_get.calls"]
    metrics["exec.store.hit_ratio"] = \
        total("exec.store_get", "hit") / gets if gets else 0.0
    batched = counters.get("batch_points", 0)
    metrics["exec.batch.fallback_ratio"] = \
        counters.get("batch_fallbacks", 0) / batched if batched else 0.0
    busy_ns = sum(span["t1"] - span["t0"] for span in spans
                  if span["name"] in ("exec.task", "exec.batch_wave"))
    capacity_ns = sum((span["t1"] - span["t0"]) * span["n"]["workers"]
                      for span in by_name.get("exec.scheduler", ()))
    metrics["exec.workers.busy_s"] = busy_ns / 1e9
    metrics["exec.workers.idle_frac"] = \
        max(0.0, 1 - busy_ns / capacity_ns) if capacity_ns else 0.0
    return metrics


def write_telemetry(path, spans: List[Dict[str, Any]],
                    manifest: Dict[str, Any]) -> None:
    """Write spans as ``repro.obs.telemetry`` JSONL (manifest first)."""
    from repro.obs.telemetry import TelemetryWriter
    epoch = min((span["t0"] for span in spans), default=0)
    with TelemetryWriter(path, manifest) as writer:
        for span in sorted(spans, key=lambda s: (s["t0"], s["id"])):
            args = {"id": span["id"], "parent": span["parent"],
                    "task": span["task"], "pid": span["pid"],
                    **span.get("n", {})}
            writer.event(span["name"], span["name"].split(".")[0], "X",
                         ts=(span["t0"] - epoch) // 1000,
                         dur=(span["t1"] - span["t0"]) // 1000, args=args)
