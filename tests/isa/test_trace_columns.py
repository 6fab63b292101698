"""Traces as columns: parity with the record objects, the stored form,
and a cold path that builds no record.

``execute`` writes a trace straight into its ``PackedTrace`` columns;
``Trace.records`` is a view built on first read. A stored trace is its
columns, each narrowed to the smallest typecode holding it, and loads
back to the in-memory typecodes without building a record.
"""

import pickle
from array import array
from itertools import cycle

import pytest

from repro.check.fuzz import FuzzSpec
from repro.exec.store import ArtifactStore
from repro.harness.runner import Runner
from repro.isa import opcodes as oc
from repro.isa.interp import (
    MachineState, PackedTrace, Trace, TraceRecord, execute,
)
from repro.minigraph.selectors import SlackProfileSelector, StructAll
from repro.minigraph.transform import fold_trace
from repro.pipeline import ckern
from repro.pipeline.core import OoOCore
from repro.workloads.suite import benchmark

from ..pipeline.test_batch_kernel import BENCHES, _full_stats

needs_kernel = pytest.mark.skipif(
    not ckern.available(),
    reason="compiled kernel unavailable (no C compiler or REPRO_PURE_PY)")

#: Every column and the typecode the kernel reads it at.
WIDE = {"kind": "b", "pc": "q", "op": "q", "opclass": "q", "latency": "q",
        "rd": "q", "addr": "q", "taken": "b", "next_pc": "q", "srcs": "q",
        "srcs_start": "q"}

FUZZ_MAX_INSTS = 20_000
PROGRAMS = [("bench", name) for name in BENCHES] + \
    [("fuzz", seed) for seed in range(50)]


def _program(source, key):
    if source == "bench":
        return benchmark(key).program("train"), 2_000_000
    return FuzzSpec.derive(key).build(), FUZZ_MAX_INSTS


def _fields(rec):
    return (rec.pc, rec.op, rec.opclass, rec.latency, rec.rd, rec.srcs,
            rec.addr, rec.taken, rec.next_pc)


def _assert_columns(packed, want):
    for name, code in WIDE.items():
        col = getattr(packed, name)
        assert col.typecode == code, name
        assert col == getattr(want, name), name


def _roundtrip(trace):
    return pickle.loads(pickle.dumps(trace, protocol=pickle.HIGHEST_PROTOCOL))


@pytest.mark.parametrize("source,key", PROGRAMS,
                         ids=[f"{s}-{k}" for s, k in PROGRAMS])
def test_columns_match_records(source, key):
    program, max_insts = _program(source, key)
    trace = execute(program, max_insts=max_insts)
    records = trace.records
    assert trace.records is records
    # The records are the ones the stepwise interpreter retires...
    assert [_fields(r) for r in records] == \
        [_fields(r) for r in MachineState(program).run(max_insts)]
    # ...and packing them gives back the columns execute() wrote.
    _assert_columns(trace.packed(), PackedTrace.from_records(list(records)))

    loaded = _roundtrip(trace)
    _assert_columns(loaded.packed(), trace.packed())
    assert loaded.packed()._objs is None
    assert [_fields(r) for r in loaded.records] == \
        [_fields(r) for r in records]

    counts = [0] * len(program)
    for rec in records:
        counts[rec.pc] += 1
    assert trace.dynamic_count_of() == counts
    assert loaded.dynamic_count_of() == counts


def test_stored_columns_widen_never_truncate(sum_loop):
    """Each column is stored in the narrowest typecode that holds all of
    its values, and loads back exactly."""
    records = [TraceRecord(pc, oc.LD, oc.OC_LOAD, 1, 3, (1, 2)[:pc % 3],
                           addr, pc % 2 == 1, pc + 100_000)
               for pc, addr in zip(range(200, 500),
                                   cycle([2 ** 31, -2 ** 31 - 1, 2 ** 40,
                                          -1]))]
    trace = Trace(sum_loop, records, "hand")
    stored = dict(zip(WIDE, trace.__getstate__()["columns"]))
    assert {name: col.typecode for name, col in stored.items()} == {
        "kind": "b", "pc": "h", "op": "b", "opclass": "b", "latency": "b",
        "rd": "b", "addr": "q", "taken": "b", "next_pc": "i", "srcs": "b",
        "srcs_start": "h"}
    loaded = _roundtrip(trace)
    _assert_columns(loaded.packed(), trace.packed())
    assert [_fields(r) for r in loaded.records] == \
        [_fields(r) for r in records]


def _pc_one_short(columns):
    columns["pc"] = columns["pc"][:-1]


def _srcs_start_past_srcs(columns):
    starts = array("q", columns["srcs_start"])
    starts[-1] = len(columns["srcs"]) + 1
    columns["srcs_start"] = starts


@pytest.mark.parametrize("corrupt", [_pc_one_short, _srcs_start_past_srcs])
def test_inconsistent_stored_trace_is_recomputed(tmp_path, monkeypatch,
                                                 corrupt):
    """Columns that disagree never reach the kernel: the load raises
    ValueError, the store drops the payload and the trace is rebuilt."""
    writer = Runner(store=ArtifactStore(tmp_path))
    trace = writer.trace("crc32")
    state = trace.__getstate__()
    columns = dict(zip(WIDE, state["columns"]))
    corrupt(columns)
    state["columns"] = tuple(columns.values())
    key = writer.store.key("trace", writer.trace_params("crc32", "train"))
    with monkeypatch.context() as patch:
        patch.setattr(Trace, "__getstate__", lambda self: state)
        writer.store.put(key, trace, kind="trace")
    with pytest.raises(ValueError):
        pickle.loads(writer.store.backend.read(key, "trace"))

    store = ArtifactStore(tmp_path)
    trace = Runner(store=store).trace("crc32")
    assert store.stats.corrupt_dropped == 1
    _assert_columns(trace.packed(),
                    execute(benchmark("crc32").program("train")).packed())


def test_execute_builds_no_records(sum_loop, record_objects):
    trace = execute(sum_loop)
    assert record_objects["TraceRecord"] == 0
    assert len(trace.records) == len(trace) > 0
    assert record_objects["TraceRecord"] == len(trace)


@needs_kernel
def test_store_loaded_trace_runs_without_records(tmp_path, reduced_cfg,
                                                 record_objects):
    """A trace loaded from disk drives a baseline, a slack profile, a
    plan and a kernel selector point without one record object."""
    Runner(store=ArtifactStore(tmp_path)).trace("crc32")
    runner = Runner(store=ArtifactStore(tmp_path))
    record_objects.update(TraceRecord=0, MGHandleRecord=0)
    trace = runner.trace("crc32")
    assert runner.store.stats.disk_hits == 1
    runner.baseline("crc32", reduced_cfg)
    runner.slack_profile("crc32", reduced_cfg)
    selector = SlackProfileSelector()
    assert runner.plan("crc32", selector).sites
    run = runner.run_selector("crc32", selector, reduced_cfg)
    assert run.stats.handles_committed > 0
    assert record_objects == {"TraceRecord": 0, "MGHandleRecord": 0}
    assert trace.packed()._objs is None


def test_python_loop_on_loaded_trace(tmp_path, monkeypatch, reduced_cfg):
    """The reference loop reads a loaded trace's record view: same stats
    as on the trace execute() returned, singleton and folded."""
    monkeypatch.setenv("REPRO_PURE_PY", "1")
    local = execute(benchmark("crc32").program("train"))
    Runner(store=ArtifactStore(tmp_path)).trace("crc32")
    loaded = Runner(store=ArtifactStore(tmp_path)).trace("crc32")
    assert loaded.packed()._objs is None
    plan = Runner().plan("crc32", StructAll())
    for stream in (lambda t: t.packed(), lambda t: fold_trace(t, plan)):
        want = OoOCore(reduced_cfg, stream(local), warm_caches=True)
        got = OoOCore(reduced_cfg, stream(loaded), warm_caches=True)
        assert got._ctrace is None
        assert _full_stats(got, got.run()) == _full_stats(want, want.run())
