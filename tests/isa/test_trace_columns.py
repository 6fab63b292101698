"""Traces as columns: parity with the record objects, the stored form,
a cold path that builds no record, and the kernel against the Python
interpreter.

``execute`` writes a trace straight into its ``PackedTrace`` columns;
``Trace.records`` is a view built on first read. A stored trace is its
``pc``, ``addr`` and ``taken`` columns, each narrowed to the smallest
typecode holding it; loading widens them back and rebuilds the other
eight columns from the program, without building a record. The
compiled kernel executes and gathers the columns where it can; the
Python interpreter is its reference on every program of the population
and on random programs.
"""

import pickle
import random
from array import array
from collections import Counter
from itertools import cycle

import pytest

from repro.check.fuzz import FuzzSpec
from repro.exec.store import ArtifactStore
from repro.harness.runner import Runner
from repro.isa import Assembler
from repro.isa import opcodes as oc
from repro.isa.instruction import Instruction
from repro.isa.interp import (
    MachineState, PackedTrace, Trace, TraceRecord, execute,
)
from repro.isa.program import Program
from repro.minigraph.selectors import SlackProfileSelector, StructAll
from repro.minigraph.transform import fold_trace
from repro.pipeline import ckern
from repro.pipeline.core import OoOCore
from repro.workloads.suite import all_benchmarks, benchmark

from ..pipeline.test_batch_kernel import BENCHES, _full_stats
from .test_interp import outcome, pure_python

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


def _pickled(trace):
    return pickle.dumps(trace, protocol=pickle.HIGHEST_PROTOCOL)


@pytest.mark.parametrize("bench", [b.name for b in all_benchmarks()])
def test_population_kernel_matches_reference(bench):
    """Every program/input pair of the population (157) runs in the
    kernel without a decline and gives the Python interpreter's columns
    and final memory, before and after a pickle round trip, and the same
    pickled bytes. Eight programs start with negative data words, so the
    kernel computes with values outside [0, 2**64) here."""
    for input_name in benchmark(bench).inputs:
        program = benchmark(bench).program(input_name)
        before = ckern.counters["execute_fallbacks"]
        native, got = outcome(program, capture_memory=True)
        if ckern.available():
            assert ckern.counters["execute_fallbacks"] == before
        with pure_python():
            reference, want = outcome(program, capture_memory=True)
            stored = _pickled(reference)
        assert got == want
        assert _pickled(native) == stored
        _assert_columns(pickle.loads(stored).packed(), native.packed())


#: Random programs in :func:`test_random_programs_match_reference`.
RANDOM_PROGRAMS = 1200
RANDOM_LENGTH = 40

#: Every opcode a source program may hold (all but the handle).
SOURCE_OPS = [op for op, info in enumerate(oc.OP_INFO)
              if info.opclass != oc.OC_MGH]


def _random_word(rng):
    """A data word, register or immediate value: small, an edge of the
    int64 and double ranges, any int64, and rarely one beyond int64."""
    roll = rng.random()
    if roll < 0.4:
        return rng.randint(-8, 8)
    if roll < 0.6:
        return rng.choice([-(1 << 63), (1 << 63) - 1, -1, 1 << 53,
                           -(1 << 53), (1 << 53) + 1, 1 << 32, -(1 << 31)])
    if roll < 0.997:
        return rng.randint(-(1 << 63), (1 << 63) - 1)
    return rng.randint(1 << 63, (1 << 64) - 1)


def _random_program(rng):
    """A 40-instruction program over every source opcode and registers
    r0-r7: mostly forward branch and jump targets, mostly in-bounds
    memory accesses off r0, and a few ``jr``s, wild targets, wild
    addresses and out-of-int64 values, so that runs end in a halt, a
    fault, the instruction limit or a kernel decline."""
    data = [_random_word(rng) for _ in range(rng.randint(0, 12))]
    words = len(data) + rng.randint(1, 8)
    insts = []
    for pc in range(RANDOM_LENGTH):
        op = rng.choice(SOURCE_OPS)
        info = oc.OP_INFO[op]
        roll = rng.random()
        if op == oc.JR and roll < 0.9:
            insts.append(Instruction(oc.NOP))
            continue
        srcs = [rng.randint(0, 7) for _ in range(info.n_src)]
        if info.opclass in (oc.OC_BRANCH, oc.OC_JUMP):
            imm = rng.randint(pc + 1, RANDOM_LENGTH) if roll < 0.9 \
                else rng.randint(-2, RANDOM_LENGTH + 2)
        elif info.opclass in (oc.OC_LOAD, oc.OC_STORE):
            if roll < 0.8:
                srcs[0] = 0
            imm = rng.randint(0, words) if roll < 0.9 \
                else rng.randint(-(1 << 63), (1 << 63) - 1)
        elif roll < 0.6:
            imm = rng.randint(-70, 70)
        elif roll < 0.998:
            imm = _random_word(rng)
        else:
            imm = rng.choice([1 << 63, -(1 << 63) - 1])
        insts.append(Instruction(op, rng.randint(0, 7) if info.writes_reg
                                 else None, tuple(srcs),
                                 imm if info.has_imm else 0))
    insts.append(Instruction(oc.HALT))
    regs = [_random_word(rng) for _ in range(32)] \
        if rng.random() < 0.5 else None
    return Program("random", insts, data, memory_words=words), regs


def test_random_programs_match_reference():
    """Seeded random programs: the kernel gives the Python interpreter's
    columns and final memory, or both raise the same exception with the
    same text; most run in the kernel, the rest decline."""
    rng = random.Random(20061209)
    kinds = Counter()
    for _ in range(RANDOM_PROGRAMS):
        program, regs = _random_program(rng)
        before = ckern.counters["execute_fallbacks"]
        native, got = outcome(program, max_insts=300, regs_init=regs,
                              capture_memory=True)
        kinds[type(native).__name__,
              ckern.counters["execute_fallbacks"] - before] += 1
        with pure_python():
            _reference, want = outcome(program, max_insts=300,
                                       regs_init=regs, capture_memory=True)
        assert got == want, program.listing()
    if ckern.available():
        assert kinds["Trace", 0] > RANDOM_PROGRAMS / 2
        assert kinds["Trace", 1] and kinds["MemoryFault", 1] and \
            kinds["ExecutionLimitExceeded", 1]
