"""Metrics registry: primitives, snapshot, JSON export, adapters."""

import json

import pytest

from repro.obs.metrics import (
    METRICS_SCHEMA, MetricsError, MetricsRegistry, collect_core,
    collect_store, run_registry, validate_metrics,
)


def test_counter_and_gauge_basics():
    reg = MetricsRegistry()
    c = reg.counter("core.cycles", "cycles")
    c.inc(10)
    c.inc()
    assert c.value == 11
    g = reg.gauge("core.ipc")
    g.set(1.25)
    assert g.value == 1.25
    # Idempotent re-registration returns the same object.
    assert reg.counter("core.cycles") is c
    assert len(reg) == 2 and "core.ipc" in reg


def test_counter_rejects_negative_increment():
    c = MetricsRegistry().counter("x.y")
    with pytest.raises(MetricsError):
        c.inc(-1)


def test_kind_clash_rejected():
    reg = MetricsRegistry()
    reg.counter("a.b")
    with pytest.raises(MetricsError):
        reg.gauge("a.b")


@pytest.mark.parametrize("bad", ["", ".x", "x.", "Core.cycles", "a b",
                                 "x-y"])
def test_invalid_names_rejected(bad):
    with pytest.raises(MetricsError):
        MetricsRegistry().counter(bad)


def test_json_export_validates_and_round_trips():
    reg = MetricsRegistry()
    reg.counter("a.n", "help text").inc(3)
    reg.gauge("a.g").set(0.5)
    doc = reg.to_json()
    assert doc["schema"] == METRICS_SCHEMA
    assert validate_metrics(doc) == 2
    # Survives a JSON round trip.
    assert validate_metrics(json.loads(json.dumps(doc))) == 2


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("schema"),
    lambda d: d.__setitem__("metrics", "nope"),
    lambda d: d["metrics"][0].pop("value"),
    lambda d: d["metrics"][0].__setitem__("kind", "meter"),
    lambda d: d["metrics"].append(dict(d["metrics"][0])),  # duplicate
    lambda d: d["metrics"][0].__setitem__("value", -1),    # neg counter
])
def test_validate_rejects_malformed_documents(mutate):
    reg = MetricsRegistry()
    reg.counter("a.n").inc(1)
    doc = reg.to_json()
    mutate(doc)
    with pytest.raises(MetricsError):
        validate_metrics(doc)


def test_collect_core_harvests_every_namespace():
    from repro.harness.runner import Runner
    from repro.pipeline.config import config_by_name
    from repro.pipeline.core import OoOCore
    from repro.pipeline.pipetrace import PipeTracer

    runner = Runner()
    core = OoOCore(config_by_name("reduced"),
                   runner.trace("crc32").packed(), warm_caches=True,
                   tracer=PipeTracer(max_rows=16))  # force the Python loop
    stats = core.run()
    reg = MetricsRegistry()
    collect_core(reg, core)
    doc = reg.to_json()
    validate_metrics(doc)
    names = {m["name"] for m in doc["metrics"]}
    assert "core.cycles" in names
    assert "activity.fetch_slots" in names
    assert "cache.il1.accesses" in names
    assert "tlb.dtlb.misses" in names
    assert "branch.cond_predictions" in names
    assert "storesets.violations" in names
    assert reg.get("core.cycles").value == stats.cycles
    assert reg.get("core.ipc").value == pytest.approx(stats.ipc)


def test_collect_store():
    from repro.exec.store import ArtifactStore

    store = ArtifactStore()
    store.get_or_compute("trace", {"x": 1}, lambda: "v")
    store.get_or_compute("trace", {"x": 1}, lambda: "v")
    reg = run_registry(store=store)
    validate_metrics(reg.to_json())
    assert reg.get("store.misses").value == 1
    assert reg.get("store.memory_hits").value == 1
    assert reg.get("store.kind.trace.hits").value == 1


def test_collect_twice_accumulates():
    """Adapters add into existing metrics; a snapshot keeps the old value."""
    from repro.exec.store import ArtifactStore

    store = ArtifactStore()
    store.get_or_compute("trace", {"x": 1}, lambda: "v")
    reg = MetricsRegistry()
    collect_store(reg, store)
    snap = reg.snapshot()
    collect_store(reg, store)
    assert snap["store.misses"] == 1
    assert reg.get("store.misses").value == 2


def test_collect_store_smoke_via_helper():
    from repro.exec.store import ArtifactStore
    reg = MetricsRegistry()
    collect_store(reg, ArtifactStore())
    assert reg.get("store.hit_rate").value == 0.0
