"""Traces as columns: parity with the record objects, the stored form,
and a cold path that builds no record.

``execute`` writes a trace straight into its ``PackedTrace`` columns;
``Trace.records`` is a view built on first read. A stored trace is its
``pc``, ``addr`` and ``taken`` columns, each narrowed to the smallest
typecode holding it; loading widens them back and rebuilds the other
eight columns from the program, without building a record.
"""

import pickle
from array import array
from itertools import cycle

import pytest

from repro.check.fuzz import FuzzSpec
from repro.exec.store import ArtifactStore
from repro.harness.runner import Runner
from repro.isa import Assembler
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

#: Every in-memory column and the typecode the kernel reads it at.
WIDE = {"kind": "b", "pc": "q", "op": "q", "opclass": "q", "latency": "q",
        "rd": "q", "addr": "q", "taken": "b", "next_pc": "q", "srcs": "q",
        "srcs_start": "q"}

#: The columns a stored trace keeps, in its stored order; the program
#: fixes the rest of ``WIDE``.
STORED = ("pc", "addr", "taken")

FUZZ_MAX_INSTS = 20_000
PROGRAMS = [("bench", name) for name in BENCHES] + \
    [("fuzz", seed) for seed in range(50)] + [("halt", "only"),
                                               ("cmov", "loop")]


def _program(source, key):
    if source == "bench":
        return benchmark(key).program("train"), 2_000_000
    if source == "halt":
        # One record: the halt, which is its own next pc.
        a = Assembler("halt-only")
        a.halt()
        return a.build(), 1
    if source == "cmov":
        # CMOVZ/CMOVN read three sources, the most an instruction has;
        # no benchmark or fuzz program uses them.
        a = Assembler("cmov-loop")
        a.li("r1", 5)
        a.label("loop")
        a.andi("r2", "r1", 1)
        a.cmovz("r3", "r1", "r2")
        a.cmovn("r4", "r1", "r2")
        a.addi("r1", "r1", -1)
        a.bne("r1", "r0", "loop")
        a.halt()
        return a.build(), 1_000
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


def _long_loop(n_filler=200):
    """A loop behind ``n_filler`` straight-line instructions, so its pcs
    need an ``h`` column, with loads, stores and a taken back edge."""
    a = Assembler("longloop")
    buf = a.data_words(list(range(8)), label="buf")
    a.li("r1", buf)
    a.li("r2", 8)
    for i in range(n_filler):
        a.addi("r3", "r3", i % 5)
    a.label("loop")
    a.ld("r4", "r1", 0)
    a.add("r3", "r3", "r4")
    a.st("r3", "r1", 0)
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "loop")
    a.halt()
    return a.build()


def test_stored_columns_widen_never_truncate():
    """Each stored column is in the narrowest typecode that holds all of
    its values, and all eleven columns load back exactly."""
    program = _long_loop()
    # addr is not derived from the program, so the execution's records
    # with addresses patched to each width's extremes still round-trip.
    records = [TraceRecord(rec.pc, rec.op, rec.opclass, rec.latency,
                           rec.rd, rec.srcs, addr, rec.taken, rec.next_pc)
               for rec, addr in zip(execute(program).records,
                                    cycle([2 ** 31, -2 ** 31 - 1, 2 ** 40,
                                           -1]))]
    trace = Trace(program, records, "hand")
    assert max(trace.packed().pc) > 127 and any(trace.packed().taken)
    stored = dict(zip(STORED, trace.__getstate__()["columns"]))
    assert {name: col.typecode for name, col in stored.items()} == {
        "pc": "h", "addr": "q", "taken": "b"}
    loaded = _roundtrip(trace)
    _assert_columns(loaded.packed(), trace.packed())
    assert [_fields(r) for r in loaded.records] == \
        [_fields(r) for r in records]


class _StateOnly:
    """Stands in for ``Trace`` when unpickling: keeps the stored state."""

    def __setstate__(self, state):
        self.state = state


class _StateUnpickler(pickle.Unpickler):
    def find_class(self, module, name):
        if (module, name) == ("repro.isa.interp", "Trace"):
            return _StateOnly
        return super().find_class(module, name)


def test_stored_trace_holds_only_what_execution_decided(tmp_path):
    """The store's trace payload is the program, input name, final
    memory and the narrowed pc/addr/taken columns, nothing derived."""
    trace = Runner(store=ArtifactStore(tmp_path)).trace("crc32")
    (path,) = tmp_path.glob("??/*.trace.pkl")
    with open(path, "rb") as f:
        state = _StateUnpickler(f).load().state
    assert set(state) == {"program", "input_name", "final_memory",
                          "columns"}
    assert state["input_name"] == "train"
    assert len(state["columns"]) == len(STORED)
    packed = trace.packed()
    for name, col in zip(STORED, state["columns"]):
        assert col.tolist() == getattr(packed, name).tolist(), name


def _pc_one_short(columns, program):
    columns["pc"] = columns["pc"][:-1]


def _pc_negative(columns, program):
    pcs = array("q", columns["pc"])
    pcs[-1] = -1
    columns["pc"] = pcs


def _pc_past_program(columns, program):
    pcs = array("q", columns["pc"])
    pcs[-1] = len(program)
    columns["pc"] = pcs


@pytest.mark.parametrize("corrupt",
                         [_pc_one_short, _pc_negative, _pc_past_program])
def test_inconsistent_stored_trace_is_recomputed(tmp_path, monkeypatch,
                                                 corrupt):
    """Columns that cannot be an execution of the program never reach
    the rebuild or the kernel: the load raises ValueError, the store
    drops the payload and the trace is recomputed."""
    writer = Runner(store=ArtifactStore(tmp_path))
    trace = writer.trace("crc32")
    state = trace.__getstate__()
    columns = dict(zip(STORED, state["columns"]))
    corrupt(columns, trace.program)
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
