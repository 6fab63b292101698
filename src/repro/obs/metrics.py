"""Unified metrics registry: namespaced counters and gauges.

Every subsystem that counts something — the timing core's
:class:`~repro.pipeline.stats.RunStats` and
:class:`~repro.pipeline.activity.ActivityCounters`, the cache/TLB
hierarchy, the branch unit, store sets, the compiled kernel's dispatch
counters, the artifact store, the autotuner — can be *harvested* into
one :class:`MetricsRegistry` through the ``collect_*`` adapters below. Collection is post-hoc: the simulator
keeps its existing plain-integer counters on the hot path (so C-kernel
eligibility and the golden matrix are untouched) and the registry reads
them out after a run. See ``docs/observability.md`` for the namespace
conventions and the export schema.

A registry freezes its values with :meth:`MetricsRegistry.snapshot`
and exports one JSON document (``{"schema": 1, "metrics": [...]}``).
``repro metrics`` is the CLI frontend.
"""

from __future__ import annotations

from typing import Any, Dict

#: Version of the ``to_json``/``validate_metrics`` document schema.
METRICS_SCHEMA = 1

_NAME_ALLOWED = set("abcdefghijklmnopqrstuvwxyz0123456789_.")


class MetricsError(ValueError):
    """An invalid metric name, kind clash, or malformed export document."""


def _check_name(name: str) -> str:
    """Validate a dotted metric name (``namespace.metric``)."""
    if not name or name[0] == "." or name[-1] == ".":
        raise MetricsError(f"invalid metric name {name!r}")
    if not set(name) <= _NAME_ALLOWED:
        raise MetricsError(
            f"invalid metric name {name!r} "
            f"(lowercase letters, digits, '_' and '.' only)")
    return name


class Counter:
    """A monotonically increasing count of events."""

    kind = "counter"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise MetricsError(
                f"counter {self.name}: negative increment {amount}")
        self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        """Export entry for the JSON document."""
        return {"name": self.name, "kind": self.kind, "help": self.help,
                "value": self.value}


class Gauge:
    """A point-in-time value that may go up or down."""

    kind = "gauge"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = float(value)

    def to_dict(self) -> Dict[str, Any]:
        """Export entry for the JSON document."""
        return {"name": self.name, "kind": self.kind, "help": self.help,
                "value": self.value}


class MetricsRegistry:
    """A namespace of metrics with snapshot and JSON export."""

    def __init__(self):
        self._metrics: Dict[str, Any] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str):
        """The registered metric object, or ``None``."""
        return self._metrics.get(name)

    def _register(self, cls, name: str, help: str):
        _check_name(name)
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise MetricsError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}")
            return existing
        metric = cls(name, help)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Register (or fetch) a counter."""
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Register (or fetch) a gauge."""
        return self._register(Gauge, name, help)

    def snapshot(self) -> Dict[str, Any]:
        """Freeze current values: ``{name: value}``."""
        return {name: metric.value for name, metric in self._metrics.items()}

    def to_json(self) -> Dict[str, Any]:
        """The JSON export document (see ``docs/observability.md``)."""
        return {"schema": METRICS_SCHEMA,
                "metrics": [self._metrics[name].to_dict()
                            for name in sorted(self._metrics)]}


def validate_metrics(doc: Any) -> int:
    """Validate a :meth:`MetricsRegistry.to_json` document.

    Returns the number of metrics; raises :class:`MetricsError` on any
    deviation from the documented schema.
    """
    if not isinstance(doc, dict):
        raise MetricsError("metrics document must be a JSON object")
    if doc.get("schema") != METRICS_SCHEMA:
        raise MetricsError(
            f"unsupported metrics schema {doc.get('schema')!r} "
            f"(expected {METRICS_SCHEMA})")
    metrics = doc.get("metrics")
    if not isinstance(metrics, list):
        raise MetricsError("'metrics' must be a list")
    seen = set()
    for i, entry in enumerate(metrics):
        if not isinstance(entry, dict):
            raise MetricsError(f"metrics[{i}] is not an object")
        name = entry.get("name")
        if not isinstance(name, str):
            raise MetricsError(f"metrics[{i}] has no string 'name'")
        _check_name(name)
        if name in seen:
            raise MetricsError(f"duplicate metric {name!r}")
        seen.add(name)
        kind = entry.get("kind")
        if kind not in ("counter", "gauge"):
            raise MetricsError(f"{name}: bad kind {kind!r}")
        if not isinstance(entry.get("help", ""), str):
            raise MetricsError(f"{name}: 'help' must be a string")
        if not isinstance(entry.get("value"), (int, float)):
            raise MetricsError(f"{name}: missing numeric 'value'")
        if kind == "counter" and entry["value"] < 0:
            raise MetricsError(f"{name}: counter is negative")
    return len(metrics)


# ---------------------------------------------------------------------------
# Post-hoc collection adapters (one per subsystem namespace)
# ---------------------------------------------------------------------------

def collect_run(registry: MetricsRegistry, stats,
                prefix: str = "core") -> None:
    """Harvest a :class:`~repro.pipeline.stats.RunStats` into ``core.*``."""
    fields = (
        ("cycles", "Simulated cycles"),
        ("cycles_skipped", "Cycles proven idle and skipped"),
        ("original_committed", "Committed original-program instructions"),
        ("handles_committed", "Committed mini-graph handles"),
        ("embedded_committed", "Instructions inside committed handles"),
        ("outline_jumps_committed", "Outline overhead jumps committed"),
        ("slots_committed", "Commit-stage slots consumed"),
        ("fetch_cycles_blocked", "Cycles fetch was branch-blocked"),
        ("icache_stall_cycles", "Cycles fetch stalled on the I-cache"),
        ("cond_branches", "Conditional branches predicted"),
        ("cond_mispredicts", "Conditional branch mispredictions"),
        ("indirect_branches", "Indirect branches predicted"),
        ("indirect_mispredicts", "Indirect branch mispredictions"),
        ("loads_issued", "Loads issued"),
        ("store_forwards", "Loads satisfied by store forwarding"),
        ("ordering_violations", "Memory ordering violations"),
        ("replays", "Issue replays after wrong speculative wakeup"),
        ("mg_serialized_instances", "Handles issued input-serialized"),
        ("mg_consumer_delays", "Serialization propagated to a consumer"),
        ("mg_disabled_instances", "Handles executed in outlined form"),
        ("mgt_misses", "Mini-Graph Table fills at fetch"),
    )
    for field, help_text in fields:
        counter = registry.counter(f"{prefix}.{field}", help_text)
        counter.inc(int(getattr(stats, field)))
    registry.gauge(f"{prefix}.ipc",
                   "Original instructions per cycle").set(stats.ipc)
    registry.gauge(f"{prefix}.coverage",
                   "Fraction of instructions in handles").set(stats.coverage)
    for key, value in sorted((stats.cache_stats or {}).items()):
        registry.counter(f"cache.{key}",
                         "Cache misses (from RunStats)").inc(int(value))
    if stats.activity is not None:
        collect_activity(registry, stats.activity)


def collect_activity(registry: MetricsRegistry, activity,
                     prefix: str = "activity") -> None:
    """Harvest :class:`~repro.pipeline.activity.ActivityCounters`."""
    for field in ("fetch_slots", "rename_ops", "rename_map_reads",
                  "phys_allocations", "iq_insertions", "iq_occupancy",
                  "window_occupancy", "select_slots", "regfile_reads",
                  "regfile_writes", "commit_slots", "cycles"):
        registry.counter(f"{prefix}.{field}",
                         "Structure-activity event count").inc(
            int(getattr(activity, field)))
    registry.gauge(f"{prefix}.avg_iq_occupancy",
                   "Mean issue-queue occupancy").set(
        activity.avg_iq_occupancy)
    registry.gauge(f"{prefix}.avg_window_occupancy",
                   "Mean window occupancy").set(
        activity.avg_window_occupancy)


def collect_hierarchy(registry: MetricsRegistry, hierarchy) -> None:
    """Harvest caches, TLBs and prefetchers into ``cache.*``/``tlb.*``."""
    for cache in (hierarchy.il1, hierarchy.dl1, hierarchy.l2):
        base = f"cache.{cache.name}"
        registry.counter(f"{base}.accesses",
                         f"{cache.name} accesses").inc(cache.accesses)
        registry.counter(f"{base}.misses",
                         f"{cache.name} misses").inc(cache.misses)
    for name, tlb in (("itlb", hierarchy.itlb), ("dtlb", hierarchy.dtlb)):
        registry.counter(f"tlb.{name}.accesses",
                         f"{name} accesses").inc(tlb.accesses)
        registry.counter(f"tlb.{name}.misses",
                         f"{name} misses").inc(tlb.misses)
    for name, prefetcher in (("il1", hierarchy.il1_prefetcher),
                             ("dl1", hierarchy.dl1_prefetcher)):
        if prefetcher is not None:
            registry.counter(f"prefetch.{name}.issued",
                             f"{name} prefetches issued").inc(
                prefetcher.issued)


def collect_branch(registry: MetricsRegistry, branch_unit) -> None:
    """Harvest the :class:`~repro.pipeline.branch.BranchUnit`."""
    pairs = (("cond_predictions", branch_unit.cond_predictions),
             ("cond_mispredictions", branch_unit.cond_mispredictions),
             ("indirect_predictions", branch_unit.indirect_predictions),
             ("indirect_mispredictions",
              branch_unit.indirect_mispredictions))
    for field, value in pairs:
        registry.counter(f"branch.{field}",
                         "Branch predictor event count").inc(value)


def collect_storesets(registry: MetricsRegistry, storesets) -> None:
    """Harvest the :class:`~repro.pipeline.storesets.StoreSets` table."""
    registry.counter("storesets.violations",
                     "Ordering violations trained into store sets").inc(
        storesets.violations)


def collect_core(registry: MetricsRegistry, core) -> None:
    """Harvest every counter a finished :class:`OoOCore` run exposes."""
    collect_run(registry, core.stats)
    collect_hierarchy(registry, core.hierarchy)
    collect_branch(registry, core.branch_unit)
    collect_storesets(registry, core.storesets)


def collect_ckern(registry: MetricsRegistry, counters=None) -> None:
    """Harvest the compiled kernel's process-wide dispatch counters.

    ``ckern.counters`` tracks batched native dispatch (how many
    ``repro_run_batch`` calls ran, how many points they covered, how
    many points fell back to per-point execution), the previously
    silent event-tap overflow retries, reference-path trace folds,
    Slack-Dynamic runs completed in C or rerun in Python, functional
    traces the kernel declined, and the calls and nanoseconds spent
    inside each native entry point
    (``ckern.<entry>.calls`` / ``ckern.<entry>.ns``). Pass a mapping to
    harvest a snapshot; the default reads the live module counters.
    """
    from ..pipeline import ckern
    if counters is None:
        counters = ckern.counters
    registry.counter("ckern.batch_dispatches",
                     "Batched native kernel calls").inc(
        counters.get("batch_dispatches", 0))
    registry.counter("ckern.batch_points",
                     "Timing points run through batched dispatch").inc(
        counters.get("batch_points", 0))
    registry.counter("ckern.batch_fallbacks",
                     "Batched points rerun through the per-point "
                     "path").inc(counters.get("batch_fallbacks", 0))
    registry.gauge("ckern.batch_threads",
                   "C threads used by the last batched dispatch").set(
        counters.get("batch_threads_last", 0))
    registry.counter("ckern.tap_overflow_retries",
                     "Event-tap buffers regrown 4x after overflow").inc(
        counters.get("tap_overflow_retries", 0))
    registry.counter("ckern.profiles_built_native",
                     "Slack profiles built by the one-call C path").inc(
        counters.get("profiles_built_native", 0))
    registry.counter("ckern.candidates_enumerated_native",
                     "Candidates packed by the C enumerator").inc(
        counters.get("candidates_enumerated_native", 0))
    registry.counter("ckern.scoring_calls",
                     "Whole-set delay-model scoring calls").inc(
        counters.get("scoring_calls", 0))
    registry.counter("ckern.global_folds_native",
                     "Global-slack event folds run in C").inc(
        counters.get("global_folds_native", 0))
    registry.counter("ckern.plan_fallbacks",
                     "Plan-kernel calls degraded to the Python "
                     "reference").inc(counters.get("plan_fallbacks", 0))
    registry.counter("ckern.fold_fallbacks",
                     "Trace folds run by the Python reference").inc(
        counters.get("fold_fallbacks", 0))
    registry.counter("ckern.policy_runs_native",
                     "Slack-Dynamic runs completed in C").inc(
        counters.get("policy_runs_native", 0))
    registry.counter("ckern.policy_fallbacks",
                     "Kernel-accepted Slack-Dynamic runs rerun in "
                     "Python").inc(counters.get("policy_fallbacks", 0))
    registry.counter("ckern.execute_fallbacks",
                     "Functional traces the kernel declined to execute "
                     "or gather").inc(counters.get("execute_fallbacks", 0))
    for entry in ckern.ENTRY_POINTS:
        registry.counter(f"ckern.{entry}.calls",
                         f"Native {entry} calls").inc(
            counters.get(f"{entry}_calls", 0))
        registry.counter(f"ckern.{entry}.ns",
                         f"Nanoseconds inside native {entry} calls").inc(
            counters.get(f"{entry}_ns", 0))


def collect_store(registry: MetricsRegistry, store) -> None:
    """Harvest :class:`~repro.exec.store.ArtifactStore` lookup stats."""
    stats = store.stats
    registry.counter("store.memory_hits",
                     "Artifact-store memory-layer hits").inc(
        stats.memory_hits)
    registry.counter("store.disk_hits",
                     "Artifact-store disk-layer hits").inc(stats.disk_hits)
    registry.counter("store.misses",
                     "Artifact-store misses").inc(stats.misses)
    registry.counter("store.puts",
                     "Artifacts published").inc(stats.puts)
    registry.counter("store.corrupt_dropped",
                     "Corrupt disk artifacts dropped").inc(
        stats.corrupt_dropped)
    registry.gauge("store.hit_rate",
                   "Artifact-store hit rate").set(stats.hit_rate)
    registry.counter("store.put.encode_ns",
                     "Nanoseconds pickling artifacts for disk").inc(
        stats.put_encode_ns)
    registry.counter("store.put.write_ns",
                     "Nanoseconds writing artifact files").inc(
        stats.put_write_ns)
    registry.counter("store.put.bytes",
                     "Artifact payload bytes written").inc(stats.put_bytes)
    registry.counter("store.get.read_ns",
                     "Nanoseconds reading artifact files").inc(
        stats.get_read_ns)
    registry.counter("store.get.decode_ns",
                     "Nanoseconds unpickling disk artifacts").inc(
        stats.get_decode_ns)
    registry.counter("store.get.bytes",
                     "Artifact payload bytes read").inc(stats.get_bytes)
    for kind, (hit, miss) in sorted(stats.by_kind.items()):
        registry.counter(f"store.kind.{kind}.hits",
                         f"{kind} artifact hits").inc(hit)
        registry.counter(f"store.kind.{kind}.misses",
                         f"{kind} artifact misses").inc(miss)


def collect_tune(registry: MetricsRegistry, stats) -> None:
    """Harvest autotuner counters as ``tune.*`` metrics.

    Duck-typed over :class:`~repro.tune.tuner.TuneStats` (or any
    mapping / ``as_dict()`` carrier) so this module never imports the
    tune package.
    """
    doc = stats.as_dict() if hasattr(stats, "as_dict") else dict(stats)
    gauges = {
        "frontier_size": "Pareto-frontier size of the final rung",
        "dominated": "Dominated trials pruned from the frontier",
    }
    descriptions = {
        "space_trials": "Trials enumerated by the search space",
        "planned_trials": "Trials selected by the strategy",
        "evaluations": "(trial, rung) evaluations executed",
        "resumed": "(trial, rung) evaluations served by the store",
        "rungs": "Trace-length rungs scheduled",
        "store_hits": "Artifact-store hits during the search",
        "store_misses": "Artifact-store misses during the search",
    }
    for name, value in sorted(doc.items()):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if name in gauges:
            registry.gauge(f"tune.{name}", gauges[name]).set(value)
        else:
            registry.counter(f"tune.{name}",
                             descriptions.get(name, f"tune {name}")).inc(
                value)


def run_registry(core=None, store=None) -> MetricsRegistry:
    """Convenience builder: one registry over whatever is available."""
    registry = MetricsRegistry()
    if core is not None:
        collect_core(registry, core)
    if store is not None:
        collect_store(registry, store)
    collect_ckern(registry)
    return registry
