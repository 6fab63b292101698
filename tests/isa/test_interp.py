"""Functional interpreter: semantics, traces, and guards.

Every program here runs twice, through :func:`execute_both`: on the
compiled kernel (``ckern.execute``) and under ``REPRO_PURE_PY``, on the
Python loop it mirrors. Both must give the same trace and final memory,
or raise the same exception with the same text.
"""

import os
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import Assembler
from repro.isa import opcodes as oc
from repro.isa.instruction import Instruction
from repro.isa.interp import (
    ExecutionLimitExceeded, MemoryFault, execute, to_signed, to_unsigned,
)
from repro.isa.program import Program
from repro.pipeline import ckern

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
S32 = st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1)

needs_kernel = pytest.mark.skipif(
    not ckern.available(),
    reason="compiled kernel unavailable (no C compiler or REPRO_PURE_PY)")

#: Every column of a trace, in ``PackedTrace`` order.
COLUMNS = ("kind", "pc", "op", "opclass", "latency", "rd", "addr", "taken",
           "next_pc", "srcs", "srcs_start")


@contextmanager
def pure_python():
    """Run the block on the Python reference (``REPRO_PURE_PY=1``)."""
    saved = os.environ.get("REPRO_PURE_PY")
    os.environ["REPRO_PURE_PY"] = "1"
    try:
        yield
    finally:
        if saved is None:
            del os.environ["REPRO_PURE_PY"]
        else:
            os.environ["REPRO_PURE_PY"] = saved


def outcome(program, **kwargs):
    """``(trace or exception, comparable outcome)`` of one execution:
    every column with its typecode and the final memory, or the
    exception's type and text."""
    try:
        trace = execute(program, **kwargs)
    except (MemoryFault, ExecutionLimitExceeded, NotImplementedError,
            IndexError) as exc:
        return exc, (type(exc), str(exc))
    packed = trace.packed()
    return trace, (tuple((getattr(packed, name).typecode,
                          getattr(packed, name).tolist())
                         for name in COLUMNS), trace.final_memory)


def execute_both(program, declines=0, **kwargs):
    """``execute(program, **kwargs)`` on the kernel and on the Python
    reference, asserting equal outcomes; returns the kernel's trace or
    raises its exception. Where the kernel is available it must decline
    ``declines`` times (``ckern.counters["execute_fallbacks"]``)."""
    before = ckern.counters["execute_fallbacks"]
    native, got = outcome(program, **kwargs)
    if ckern.available():
        assert ckern.counters["execute_fallbacks"] - before == declines
    with pure_python():
        _reference, want = outcome(program, **kwargs)
    assert got == want
    if isinstance(native, Exception):
        raise native
    return native


class TestArithmetic:
    """Semantics via dedicated store-and-verify programs."""

    def _value_via_branch(self, emit, expected):
        """Assert an ALU result equals `expected` using a beq check:
        the program halts at PC 'ok' if equal (trace ends without fault)."""
        a = Assembler("t")
        a.data_zeros(1, label="out")
        emit(a)
        a.li("r10", to_signed(to_unsigned(expected)))
        a.bne("r3", "r10", "bad")
        a.li("r11", 1)
        a.st("r11", "r0", 0)
        a.halt()
        a.label("bad")
        a.st("r0", "r0", 0)
        a.halt()
        trace = execute_both(a.build())
        store = [r for r in trace.records if r.is_store][-1]
        # The success path stores from r11 (value 1) — encoded in srcs.
        return store

    @given(a_val=U64, b_val=U64)
    @settings(max_examples=60, deadline=None)
    def test_add_matches_python(self, a_val, b_val):
        expected = (a_val + b_val) & ((1 << 64) - 1)

        def emit(a):
            a.li("r1", to_signed(a_val))
            a.li("r2", to_signed(b_val))
            a.add("r3", "r1", "r2")

        store = self._value_via_branch(emit, expected)
        assert store.srcs[1] == 11, "add result mismatch"

    @given(a_val=U64, b_val=U64)
    @settings(max_examples=60, deadline=None)
    def test_sub_xor_and_or(self, a_val, b_val):
        mask = (1 << 64) - 1
        cases = [
            ("sub", (a_val - b_val) & mask),
            ("xor", a_val ^ b_val),
            ("and_", a_val & b_val),
            ("or_", a_val | b_val),
        ]
        for name, expected in cases:
            def emit(a, name=name):
                a.li("r1", to_signed(a_val))
                a.li("r2", to_signed(b_val))
                getattr(a, name)("r3", "r1", "r2")

            store = self._value_via_branch(emit, expected)
            assert store.srcs[1] == 11, f"{name} mismatch"

    @given(a_val=U64, shift=st.integers(min_value=0, max_value=63))
    @settings(max_examples=40, deadline=None)
    def test_shifts(self, a_val, shift):
        mask = (1 << 64) - 1
        cases = [
            ("slli", (a_val << shift) & mask),
            ("srli", a_val >> shift),
            ("srai", to_unsigned(to_signed(a_val) >> shift)),
        ]
        for name, expected in cases:
            def emit(a, name=name):
                a.li("r1", to_signed(a_val))
                getattr(a, name)("r3", "r1", shift)

            store = self._value_via_branch(emit, expected)
            assert store.srcs[1] == 11, f"{name} mismatch"

    @given(a_val=S32, b_val=S32)
    @settings(max_examples=40, deadline=None)
    def test_comparisons(self, a_val, b_val):
        cases = [
            ("slt", int(a_val < b_val)),
            ("seq", int(a_val == b_val)),
            ("sltu", int(to_unsigned(a_val) < to_unsigned(b_val))),
        ]
        for name, expected in cases:
            def emit(a, name=name):
                a.li("r1", a_val)
                a.li("r2", b_val)
                getattr(a, name)("r3", "r1", "r2")

            store = self._value_via_branch(emit, expected)
            assert store.srcs[1] == 11, f"{name} mismatch"

    @given(a_val=S32, b_val=S32)
    @settings(max_examples=40, deadline=None)
    def test_mul_div_rem(self, a_val, b_val):
        mask = (1 << 64) - 1
        if b_val == 0:
            div_expected = rem_expected = 0
        else:
            quotient = int(a_val / b_val)  # C-style truncation
            div_expected = to_unsigned(quotient)
            rem_expected = to_unsigned(a_val - quotient * b_val)
        cases = [
            ("mul", (to_unsigned(a_val) * to_unsigned(b_val)) & mask),
            ("div", div_expected),
            ("rem", rem_expected),
        ]
        for name, expected in cases:
            def emit(a, name=name):
                a.li("r1", a_val)
                a.li("r2", b_val)
                getattr(a, name)("r3", "r1", "r2")

            store = self._value_via_branch(emit, expected)
            assert store.srcs[1] == 11, f"{name} mismatch"


class TestControlAndMemory:

    def test_r0_is_hardwired_zero(self):
        a = Assembler("t")
        a.data_zeros(2)
        a.li("r0", 99)
        a.st("r0", "r0", 1)
        a.halt()
        trace = execute_both(a.build())
        store = [r for r in trace.records if r.is_store][0]
        assert store.addr == 1

    def test_branch_outcomes_recorded(self):
        a = Assembler("t")
        a.li("r1", 2)
        a.label("top")
        a.addi("r1", "r1", -1)
        a.bne("r1", "r0", "top")
        a.halt()
        trace = execute_both(a.build())
        branches = [r for r in trace.records if r.opclass == oc.OC_BRANCH]
        assert [b.taken for b in branches] == [True, False]
        assert branches[0].next_pc == 1
        assert branches[1].next_pc == 3

    def test_call_and_return(self):
        a = Assembler("t")
        a.data_zeros(1)
        a.jal("callee")
        a.st("r2", "r0", 0)
        a.halt()
        a.label("callee")
        a.li("r2", 42)
        a.ret()
        trace = execute_both(a.build())
        pcs = [r.pc for r in trace.records]
        assert pcs == [0, 3, 4, 1, 2]

    def test_load_store_roundtrip(self):
        a = Assembler("t")
        a.data_zeros(4)
        a.li("r1", 1234)
        a.st("r1", "r0", 2)
        a.ld("r2", "r0", 2)
        a.li("r3", 1234)
        a.bne("r2", "r3", "fail")
        a.halt()
        a.label("fail")
        a.nop()
        a.halt()
        trace = execute_both(a.build())
        assert trace.records[-1].pc != 6  # did not reach the fail nop

    def test_memory_fault_on_wild_store(self):
        a = Assembler("t", memory_words=16)
        a.li("r1", 1 << 20)
        a.st("r1", "r1", 0)
        a.halt()
        with pytest.raises(MemoryFault):
            execute_both(a.build(), declines=1)

    def test_execution_limit(self):
        a = Assembler("t")
        a.label("spin")
        a.jmp("spin")
        with pytest.raises(ExecutionLimitExceeded):
            execute_both(a.build(), declines=1, max_insts=100)

    def test_dynamic_counts(self):
        a = Assembler("t")
        a.li("r1", 3)
        a.label("top")
        a.addi("r1", "r1", -1)
        a.bne("r1", "r0", "top")
        a.halt()
        trace = execute_both(a.build())
        counts = trace.dynamic_count_of()
        assert counts == [1, 3, 3, 1]

    def test_cmov_semantics(self):
        a = Assembler("t")
        a.li("r2", 5)    # candidate
        a.li("r3", 0)    # condition (zero)
        a.li("r4", 9)    # old dest
        a.cmovz("r4", "r2", "r3")
        a.li("r5", 5)
        a.bne("r4", "r5", "fail")
        a.halt()
        a.label("fail")
        a.nop()
        a.halt()
        trace = execute_both(a.build())
        assert trace.records[-1].pc != 7


class TestMemoryCapture:

    def test_capture_memory_returns_final_image(self):
        a = Assembler("t")
        a.data_words([7, 8, 9])
        a.li("r1", 42)
        a.st("r1", "r0", 1)
        a.halt()
        trace = execute_both(a.build(), capture_memory=True)
        assert trace.final_memory[:3] == [7, 42, 9]
        assert len(trace.final_memory) == a.build().memory_words

    def test_capture_off_by_default(self):
        a = Assembler("t")
        a.halt()
        trace = execute_both(a.build())
        assert trace.final_memory is None


def _program(instructions, data=(), memory_words=16, name="t"):
    return Program(name, list(instructions) + [Instruction(oc.HALT)],
                   data, memory_words=memory_words)


def _ld(rd, base, imm):
    return Instruction(oc.LD, rd, (base,), imm)


def _st(value, base, imm):
    return Instruction(oc.ST, None, (base, value), imm)


def _li(rd, imm):
    return Instruction(oc.LI, rd, (), imm)


def _op(name, rd, *srcs):
    return Instruction(oc.OP_BY_NAME[name], rd, srcs)


@needs_kernel
class TestKernelDeclines:
    """Each program the kernel declines runs on the Python loop, which
    computes or raises what it always did; each decline is counted once
    in ``ckern.counters["execute_fallbacks"]``."""

    def test_control_leaves_the_program(self):
        program = _program([Instruction(oc.JMP, None, (), 99)])
        with pytest.raises(MemoryFault, match="control left program at "
                                              "PC 99"):
            execute_both(program, declines=1)

    def test_indirect_jump_to_a_negative_value(self):
        # JR jumps to the register's exact value: -1, not 2**64 - 1.
        program = _program([_ld(1, 0, 0), Instruction(oc.JR, None, (1,))],
                           data=[-1])
        with pytest.raises(MemoryFault, match="at PC -1$"):
            execute_both(program, declines=1)

    @pytest.mark.parametrize("access", [_ld(1, 0, 16), _st(0, 0, 16),
                                        _ld(1, 0, -1)],
                             ids=["load", "store", "wrapped-load"])
    def test_memory_access_beyond_memory_words(self, access):
        with pytest.raises(MemoryFault, match="(load from|store to) "):
            execute_both(_program([access]), declines=1)

    def test_instruction_limit(self):
        program = _program([_li(1, 1)] * 10)
        with pytest.raises(ExecutionLimitExceeded,
                           match="exceeded 10 dynamic instructions"):
            execute_both(program, declines=1, max_insts=10)
        # Ten instructions and the halt fit a budget of eleven.
        assert len(execute_both(program, max_insts=11)) == 11

    @pytest.mark.parametrize("name", ["mulh", "fmul"])
    @pytest.mark.parametrize("word", [-5, -(1 << 63)])
    def test_product_of_an_operand_outside_u64(self, name, word):
        # A negative data word is an operand outside [0, 2**64): its
        # to_signed is below -2**64 and the product can pass 2**127.
        program = _program([_ld(1, 0, 0), _li(2, -3), _op(name, 3, 1, 2),
                            _op(name, 4, 2, 1), _st(3, 0, 1), _st(4, 0, 2)],
                           data=[word])
        trace = execute_both(program, declines=1, capture_memory=True)
        assert trace.final_memory[0] == word

    @pytest.mark.parametrize("name", ["mulh", "fmul"])
    def test_product_of_u64_operands_runs_natively(self, name):
        program = _program([_li(1, -(1 << 63)), _li(2, -1),
                            _op(name, 3, 1, 2), _op(name, 4, 1, 1),
                            _st(3, 0, 0), _st(4, 0, 1)])
        execute_both(program, capture_memory=True)

    @pytest.mark.parametrize("name", ["div", "rem"])
    @pytest.mark.parametrize("a,b", [((1 << 53) + 1, 3), (7, (1 << 53) + 1),
                                     (-(1 << 53) - 1, -2)])
    def test_division_beyond_double_precision(self, name, a, b):
        program = _program([_li(1, a), _li(2, b), _op(name, 3, 1, 2),
                            _st(3, 0, 0)])
        execute_both(program, declines=1, capture_memory=True)

    @pytest.mark.parametrize("name", ["div", "rem"])
    @pytest.mark.parametrize("a,b", [(1 << 53, 3), (-(1 << 53), 1 << 53),
                                     ((1 << 53) - 1, -7), (1 << 62, 0)])
    def test_division_within_double_precision_runs_natively(self, name, a,
                                                             b):
        # A zero divisor gives 0 whatever the dividend.
        program = _program([_li(1, a), _li(2, b), _op(name, 3, 1, 2),
                            _st(3, 0, 0)])
        execute_both(program, capture_memory=True)

    @pytest.mark.parametrize("imm", [1 << 63, -(1 << 63) - 1])
    def test_immediate_outside_int64(self, imm):
        program = _program([_li(1, imm), _st(1, 0, 0)])
        trace = execute_both(program, declines=1, capture_memory=True)
        assert trace.final_memory[0] == to_unsigned(imm)

    @pytest.mark.parametrize("word", [1 << 63, (1 << 64) - 1,
                                      -(1 << 63) - 1])
    def test_data_word_outside_int64(self, word):
        program = _program([_ld(1, 0, 0), _op("add", 2, 1, 1),
                            _st(2, 0, 1)], data=[word])
        trace = execute_both(program, declines=1, capture_memory=True)
        assert trace.final_memory[:2] == [word, to_unsigned(2 * word)]

    def test_data_word_that_is_not_an_int(self):
        program = _program([_ld(1, 0, 0), _st(1, 0, 1)], data=[1.5])
        trace = execute_both(program, declines=1, capture_memory=True)
        assert trace.final_memory[:2] == [1.5, 1.5]

    def test_regs_init_outside_int64(self):
        program = _program([_op("xor", 2, 1, 1), _st(1, 0, 0)])
        regs = [0] * 32
        regs[1] = (1 << 64) - 1
        trace = execute_both(program, declines=1, regs_init=regs,
                             capture_memory=True)
        assert trace.final_memory[0] == (1 << 64) - 1

    def test_short_regs_init(self):
        program = _program([_op("add", 1, 2, 3)])
        with pytest.raises(IndexError):
            execute_both(program, declines=1, regs_init=[0] * 3)

    def test_negative_regs_init_runs_natively(self):
        program = _program([_op("xor", 3, 1, 2), _st(3, 0, 0)])
        regs = [0] * 32
        regs[1], regs[2] = -2, 5
        trace = execute_both(program, regs_init=regs, capture_memory=True)
        assert trace.final_memory[0] == -2 ^ 5

    def test_minigraph_handle_opcode(self):
        program = _program([Instruction(oc.MGH, 1, ())])
        with pytest.raises(NotImplementedError, match="mgh"):
            execute_both(program, declines=1)

    def test_unexecuted_handle_runs_natively(self):
        program = _program([Instruction(oc.JMP, None, (), 2),
                            Instruction(oc.MGH, 1, ())])
        assert len(execute_both(program)) == 2


@needs_kernel
def test_native_execution_is_counted_and_exported():
    """Both entries are timed per call and a decline is counted, and
    collect_ckern exports all three."""
    from repro.obs.metrics import MetricsRegistry, collect_ckern
    before = dict(ckern.counters)
    execute_both(_program([_li(1, 7)]))
    with pytest.raises(MemoryFault):
        execute_both(_program([_ld(1, 1, 99)]), declines=1)
    for entry in ("execute", "gather"):
        assert ckern.counters[f"{entry}_calls"] > before[f"{entry}_calls"]
        assert ckern.counters[f"{entry}_ns"] > before[f"{entry}_ns"]
    registry = MetricsRegistry()
    collect_ckern(registry)
    values = registry.snapshot()
    assert values["ckern.execute_fallbacks"] == \
        ckern.counters["execute_fallbacks"] > before["execute_fallbacks"]
    for entry in ("execute", "gather"):
        assert values[f"ckern.{entry}.calls"] == \
            ckern.counters[f"{entry}_calls"]


@needs_kernel
def test_toolchain_without_int128_executes_in_python(tmp_path, monkeypatch):
    """A kernel built without ``__int128`` lacks ``repro_execute`` but
    keeps every other entry: execution runs on the Python loop, which is
    no decline, and the gather stays native."""
    import subprocess
    library = tmp_path / "ckern-no-int128.so"
    subprocess.run([ckern._find_compiler(), "-O0", "-fPIC", "-shared",
                    "-U__SIZEOF_INT128__", "-o", str(library),
                    ckern._SOURCE], check=True, capture_output=True)
    monkeypatch.setattr(ckern, "_lib", None)
    monkeypatch.setattr(ckern, "_build", lambda: str(library))
    assert ckern.available()
    assert not hasattr(ckern._lib, "repro_execute")
    before = dict(ckern.counters)
    trace = execute_both(_program([_li(1, -2), _op("xor", 2, 1, 1)]))
    assert len(trace) == 3
    assert ckern.counters["execute_calls"] == before["execute_calls"]
    assert ckern.counters["gather_calls"] == before["gather_calls"] + 1
