"""Functional execution: architectural interpreter and dynamic traces.

The reproduction uses trace-driven timing simulation (see DESIGN.md §5):
this module executes a program *architecturally*, producing a dynamic
instruction trace with resolved branch outcomes and memory addresses. The
cycle-level core in :mod:`repro.pipeline.core` then replays the trace
against its own branch predictors and caches.

Values are 64-bit; registers hold the unsigned representation and signed
operations reinterpret as needed. Register ``r0`` is hardwired to zero.
Registers and memory hold Python ints, though, and a program may load a
negative data word: bitwise operations then leave values outside
``[0, 2**64)`` (always within ``[-2**64, 2**64)``), which later
operations read as they are. The compiled kernel holds the same exact
values (:func:`execute`).
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import List, Optional

from . import opcodes as oc
from .program import Program

_MASK = (1 << 64) - 1
_SIGN = 1 << 63


def to_signed(value: int) -> int:
    """Reinterpret a 64-bit unsigned value as signed."""
    return value - (1 << 64) if value & _SIGN else value


def to_unsigned(value: int) -> int:
    """Truncate a Python int to its 64-bit unsigned representation."""
    return value & _MASK


class TraceRecord:
    """One dynamic instruction instance.

    ``kind`` is 0 for singletons; mini-graph handle records (kind 1) are
    defined in :mod:`repro.minigraph.transform` and share this interface.
    """

    __slots__ = ("pc", "op", "opclass", "latency", "rd", "srcs",
                 "addr", "taken", "next_pc")
    kind = 0

    def __init__(self, pc: int, op: int, opclass: int, latency: int,
                 rd: int, srcs: tuple, addr: int, taken: bool, next_pc: int):
        self.pc = pc
        self.op = op
        self.opclass = opclass
        self.latency = latency
        self.rd = rd              # -1 if no register output
        self.srcs = srcs          # architectural source registers
        self.addr = addr          # -1 if not a memory operation
        self.taken = taken        # control transfers only
        self.next_pc = next_pc

    @property
    def is_load(self) -> bool:
        return self.opclass == oc.OC_LOAD

    @property
    def is_store(self) -> bool:
        return self.opclass == oc.OC_STORE

    @property
    def is_control(self) -> bool:
        return self.opclass in (oc.OC_BRANCH, oc.OC_JUMP)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TraceRecord pc={self.pc} {oc.op_name(self.op)} "
                f"addr={self.addr} next={self.next_pc}>")


class PackedTrace:
    """Struct-of-arrays form of a dynamic record stream.

    The timing core's hot loops (fetch grouping, cache warm-up) and the
    compiled kernel read one field from thousands of records per call,
    so the scalar fields live in parallel typed columns (``array('q')``,
    with ``array('b')`` for the two flags). For a functional trace the
    columns are the trace itself: :func:`execute` writes them directly,
    and a stored :class:`Trace` is its narrowed ``pc``, ``addr`` and
    ``taken`` columns, from which the program fixes the rest.

    ``objs`` is the record-object view, a drop-in sequence of records
    for consumers that want objects (the Python cycle loop, mini-graph
    constituents, lockstep checking, the pipeline tracer, tests). A
    ``PackedTrace`` packed from records keeps those records; one built
    from columns alone creates its :class:`TraceRecord` objects on the
    first read of ``objs`` and caches the list.

    Ragged ``srcs`` tuples are flattened into ``srcs`` with a CSR-style
    ``srcs_start`` offset column (record ``i`` owns
    ``srcs[srcs_start[i]:srcs_start[i+1]]``).

    Mini-graph handle records (``kind == 1``) have no opcode; their
    ``op``/``opclass``/``latency`` columns hold ``-1``/``OC_MGH``/``0``.
    Handle rows exist only in a stream packed from record objects.
    """

    __slots__ = ("_objs", "n", "kind", "pc", "op", "opclass", "latency",
                 "rd", "addr", "taken", "next_pc", "srcs", "srcs_start",
                 "__weakref__")

    def __init__(self, objs, kind, pc, op, opclass, latency, rd, addr,
                 taken, next_pc, srcs, srcs_start):
        self._objs = objs
        self.n = len(pc)
        self.kind = kind
        self.pc = pc
        self.op = op
        self.opclass = opclass
        self.latency = latency
        self.rd = rd
        self.addr = addr
        self.taken = taken
        self.next_pc = next_pc
        self.srcs = srcs
        self.srcs_start = srcs_start

    @classmethod
    def from_records(cls, records) -> "PackedTrace":
        """Pack a record sequence (no-op copy if already packed; a
        :class:`Trace` or a folded trace hands over its own ``packed()``
        view)."""
        if isinstance(records, cls):
            return records
        packed = getattr(records, "packed", None)
        if packed is not None:
            return packed()
        objs = list(records)
        kind = array("b")
        pc = array("q")
        op = array("q")
        opclass = array("q")
        latency = array("q")
        rd = array("q")
        addr = array("q")
        taken = array("b")
        next_pc = array("q")
        srcs = array("q")
        srcs_start = array("q", [0])
        for rec in objs:
            if rec.kind == 1:
                kind.append(1)
                op.append(-1)
                opclass.append(oc.OC_MGH)
                latency.append(0)
            else:
                kind.append(0)
                op.append(rec.op)
                opclass.append(rec.opclass)
                latency.append(rec.latency)
            pc.append(rec.pc)
            rd.append(rec.rd)
            addr.append(rec.addr)
            taken.append(1 if rec.taken else 0)
            next_pc.append(rec.next_pc)
            srcs.extend(rec.srcs)
            srcs_start.append(len(srcs))
        return cls(objs, kind, pc, op, opclass, latency, rd, addr, taken,
                   next_pc, srcs, srcs_start)

    @property
    def objs(self) -> list:
        """The record objects, built from the columns on first read."""
        objs = self._objs
        if objs is None:
            srcs_of = self.srcs_of
            objs = [TraceRecord(pc, op, opclass, latency, rd, srcs_of(i),
                                addr, taken != 0, next_pc)
                    for i, (pc, op, opclass, latency, rd, addr, taken,
                            next_pc)
                    in enumerate(zip(self.pc, self.op, self.opclass,
                                     self.latency, self.rd, self.addr,
                                     self.taken, self.next_pc))]
            self._objs = objs
        return objs

    def srcs_of(self, i: int) -> tuple:
        """The source-register tuple of record ``i`` (columnar view)."""
        return tuple(self.srcs[self.srcs_start[i]:self.srcs_start[i + 1]])

    # -- sequence protocol: drop-in for the plain record list ----------

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, index):
        return self.objs[index]

    def __iter__(self):
        return iter(self.objs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PackedTrace n={self.n}>"


#: The columns execution decides and their in-memory typecodes, in the
#: order a stored :class:`Trace` lists them; :func:`_gather` derives
#: every other column from the program.
_COLUMNS = (("pc", "q"), ("addr", "q"), ("taken", "b"))

#: Stored typecodes from narrowest to widest; a column is stored in the
#: first that holds all of its values.
_NARROW = "bhiq"


def _narrow(col: array) -> array:
    """``col`` in the narrowest of :data:`_NARROW` holding its values
    (``array`` raises OverflowError on a value its type cannot hold)."""
    values = col.tolist()
    for code in _NARROW[:_NARROW.index(col.typecode)]:
        try:
            return array(code, values)
        except OverflowError:
            pass
    return col


def _widen(name: str, code: str, col) -> array:
    """A stored column back at its in-memory typecode ``code``."""
    if not isinstance(col, array) or \
            col.typecode not in _NARROW[:_NARROW.index(code) + 1]:
        raise ValueError(f"trace column {name!r}: unknown stored form")
    return col if col.typecode == code else array(code, col.tolist())


class Trace:
    """A complete dynamic execution of a program.

    The trace is its :class:`PackedTrace` columns (``records`` may be
    those columns or a record sequence, packed here); the ``records``
    attribute is their record-object view, built on first read. A trace
    pickles as its program, input name, final memory and the ``pc``,
    ``addr`` and ``taken`` columns, each narrowed to the smallest
    integer typecode that holds it. It unpickles straight back to the
    in-memory columns without building a record: :func:`_gather`
    rebuilds the other columns from the program, as :func:`execute` does.
    So ``Trace(program, records)`` round-trips only when its records are
    the ones :func:`execute` would write for ``program``.
    """

    def __init__(self, program: Program, records,
                 input_name: str = "default",
                 final_memory: Optional[List[int]] = None):
        self.program = program
        self.input_name = input_name
        #: Final memory image, present when executed with capture_memory.
        self.final_memory = final_memory
        self._packed = records if isinstance(records, PackedTrace) \
            else PackedTrace.from_records(records)

    def packed(self) -> PackedTrace:
        """The trace's columns."""
        return self._packed

    @property
    def records(self) -> List[TraceRecord]:
        """The record objects (built once, on first read)."""
        return self._packed.objs

    def __getstate__(self):
        # The record view, the counts and every column the program fixes
        # are derived; only what execution decided is stored, each column
        # at its narrowest width.
        packed = self._packed
        return {"program": self.program, "input_name": self.input_name,
                "final_memory": self.final_memory,
                "columns": tuple(_narrow(getattr(packed, name))
                                 for name, _code in _COLUMNS)}

    def __setstate__(self, state) -> None:
        """Restore a stored trace, rebuilding its derived columns.

        The rebuild indexes the program's instructions by ``pc`` and the
        compiled kernel indexes the columns without bounds checks, so
        columns that cannot be an execution of the program raise
        :class:`ValueError` here (the store then drops the payload and
        recomputes the trace).
        """
        stored = state["columns"]
        if len(stored) != len(_COLUMNS):
            raise ValueError(f"trace has {len(stored)} columns, "
                             f"expected {len(_COLUMNS)}")
        pc, addr, taken = (_widen(name, code, col)
                           for (name, code), col in zip(_COLUMNS, stored))
        n = len(pc)
        if not n or len(addr) != n or len(taken) != n:
            raise ValueError(f"trace columns have {n}, {len(addr)} and "
                             f"{len(taken)} entries")
        program = state["program"]
        if min(pc) < 0 or max(pc) >= len(program):
            raise ValueError(f"trace pc outside its {len(program)}-"
                             f"instruction program")
        self.program = program
        self.input_name = state["input_name"]
        self.final_memory = state["final_memory"]
        self._packed = _gather(program.instructions, pc, addr, taken)

    def __len__(self) -> int:
        return self._packed.n

    def dynamic_count_of(self) -> List[int]:
        """Per-static-PC dynamic execution counts (computed once per
        trace; the list is shared, so callers must not mutate it)."""
        counts = getattr(self, "_counts", None)
        if counts is None:
            counts = [0] * len(self.program)
            for pc in self._packed.pc:
                counts[pc] += 1
            self._counts = counts
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Trace {self.program.name!r}/{self.input_name}: "
                f"{len(self)} dynamic insts>")


class ExecutionLimitExceeded(RuntimeError):
    """The interpreter hit its dynamic instruction budget (likely a loop bug)."""


class MemoryFault(RuntimeError):
    """A load or store accessed an address outside program memory."""


# --------------------------------------------------------------------------
# Stepwise interpreter (the lockstep / differential-checking substrate)
# --------------------------------------------------------------------------
#
# MachineState implements the ISA a second time, structured differently from
# execute()'s fused dispatch loop: per-opcode lambdas in dispatch tables, one
# instruction per step() call, with the architectural state (registers,
# memory, PC) exposed between steps. repro.check uses it as the oracle for
# differential lockstep checking, and the test-suite cross-checks the two
# implementations record-for-record — a bug in either shows up as a
# disagreement rather than silently corrupting results in both.

_ALU_EVAL = {
    oc.ADD: lambda r, s, i: (r[s[0]] + r[s[1]]) & _MASK,
    oc.ADDI: lambda r, s, i: (r[s[0]] + i) & _MASK,
    oc.SUB: lambda r, s, i: (r[s[0]] - r[s[1]]) & _MASK,
    oc.AND: lambda r, s, i: r[s[0]] & r[s[1]],
    oc.OR: lambda r, s, i: r[s[0]] | r[s[1]],
    oc.XOR: lambda r, s, i: r[s[0]] ^ r[s[1]],
    oc.NOR: lambda r, s, i: ~(r[s[0]] | r[s[1]]) & _MASK,
    oc.SLL: lambda r, s, i: (r[s[0]] << (r[s[1]] & 63)) & _MASK,
    oc.SRL: lambda r, s, i: r[s[0]] >> (r[s[1]] & 63),
    oc.SRA: lambda r, s, i: to_unsigned(to_signed(r[s[0]]) >> (r[s[1]] & 63)),
    oc.SLT: lambda r, s, i: int(to_signed(r[s[0]]) < to_signed(r[s[1]])),
    oc.SLTU: lambda r, s, i: int(r[s[0]] < r[s[1]]),
    oc.SEQ: lambda r, s, i: int(r[s[0]] == r[s[1]]),
    oc.ANDI: lambda r, s, i: r[s[0]] & to_unsigned(i),
    oc.ORI: lambda r, s, i: r[s[0]] | to_unsigned(i),
    oc.XORI: lambda r, s, i: r[s[0]] ^ to_unsigned(i),
    oc.SLLI: lambda r, s, i: (r[s[0]] << (i & 63)) & _MASK,
    oc.SRLI: lambda r, s, i: r[s[0]] >> (i & 63),
    oc.SRAI: lambda r, s, i: to_unsigned(to_signed(r[s[0]]) >> (i & 63)),
    oc.SLTI: lambda r, s, i: int(to_signed(r[s[0]]) < i),
    oc.SEQI: lambda r, s, i: int(to_signed(r[s[0]]) == i),
    oc.LI: lambda r, s, i: to_unsigned(i),
    oc.CMOVZ: lambda r, s, i: r[s[0]] if r[s[1]] == 0 else r[s[2]],
    oc.CMOVN: lambda r, s, i: r[s[0]] if r[s[1]] != 0 else r[s[2]],
    oc.MUL: lambda r, s, i: (r[s[0]] * r[s[1]]) & _MASK,
    oc.MULH: lambda r, s, i: to_unsigned(
        (to_signed(r[s[0]]) * to_signed(r[s[1]])) >> 64),
    oc.DIV: lambda r, s, i: 0 if to_signed(r[s[1]]) == 0 else to_unsigned(
        int(to_signed(r[s[0]]) / to_signed(r[s[1]]))),
    oc.REM: lambda r, s, i: 0 if to_signed(r[s[1]]) == 0 else to_unsigned(
        to_signed(r[s[0]]) - int(to_signed(r[s[0]]) / to_signed(r[s[1]]))
        * to_signed(r[s[1]])),
    oc.FADD: lambda r, s, i: (r[s[0]] + r[s[1]]) & _MASK,
    oc.FMUL: lambda r, s, i: to_unsigned(
        (to_signed(r[s[0]]) * to_signed(r[s[1]])) >> 16),
}

_BRANCH_EVAL = {
    oc.BEQ: lambda a, b: a == b,
    oc.BNE: lambda a, b: a != b,
    oc.BLT: lambda a, b: to_signed(a) < to_signed(b),
    oc.BGE: lambda a, b: to_signed(a) >= to_signed(b),
    oc.BLTU: lambda a, b: a < b,
    oc.BGEU: lambda a, b: a >= b,
}


class MachineState:
    """Architectural machine state with a one-instruction ``step()``.

    State starts exactly as :func:`execute` starts it: PC 0, zeroed
    registers (unless ``regs_init`` is given), data segment loaded at
    address 0, the rest of memory zeroed.
    """

    __slots__ = ("program", "regs", "memory", "pc", "retired", "halted")

    def __init__(self, program: Program,
                 regs_init: Optional[List[int]] = None):
        self.program = program
        self.memory = list(program.data) + [0] * (program.memory_words
                                                  - len(program.data))
        self.regs = list(regs_init) if regs_init is not None else [0] * 32
        self.regs[0] = 0
        self.pc = 0
        self.retired = 0
        self.halted = False

    def step(self) -> TraceRecord:
        """Execute the instruction at the current PC; return its record."""
        if self.halted:
            raise RuntimeError(f"{self.program.name}: stepped past halt")
        pc = self.pc
        insts = self.program.instructions
        if not 0 <= pc < len(insts):
            raise MemoryFault(f"{self.program.name}: control left program "
                              f"at PC {pc}")
        inst = insts[pc]
        op = inst.op
        opclass = inst.opclass
        srcs = inst.srcs
        regs = self.regs
        addr = -1
        taken = False
        next_pc = pc + 1
        value = None

        if op in _ALU_EVAL:
            value = _ALU_EVAL[op](regs, srcs, inst.imm)
        elif opclass == oc.OC_LOAD:
            addr = (regs[srcs[0]] + inst.imm) & _MASK
            if addr >= len(self.memory):
                raise MemoryFault(
                    f"{self.program.name}: load from {addr} at PC {pc}")
            value = self.memory[addr]
        elif opclass == oc.OC_STORE:
            addr = (regs[srcs[0]] + inst.imm) & _MASK
            if addr >= len(self.memory):
                raise MemoryFault(
                    f"{self.program.name}: store to {addr} at PC {pc}")
            self.memory[addr] = regs[srcs[1]]
        elif opclass == oc.OC_BRANCH:
            taken = _BRANCH_EVAL[op](regs[srcs[0]], regs[srcs[1]])
            if taken:
                next_pc = inst.imm
        elif opclass == oc.OC_JUMP:
            taken = True
            if op == oc.JMP:
                next_pc = inst.imm
            elif op == oc.JAL:
                value = pc + 1
                next_pc = inst.imm
            else:  # JR
                next_pc = regs[srcs[0]]
        elif opclass == oc.OC_NOP:
            pass
        elif opclass == oc.OC_HALT:
            self.halted = True
            return TraceRecord(pc, op, opclass, inst.latency, -1, srcs,
                               -1, False, pc)
        else:  # pragma: no cover - MGH never appears in source programs
            raise NotImplementedError(oc.op_name(op))

        rd = inst.rd
        if value is not None and rd is not None and rd != 0:
            regs[rd] = value
        self.retired += 1
        self.pc = next_pc
        return TraceRecord(pc, op, opclass, inst.latency,
                           rd if (rd is not None and rd != 0
                                  and inst.writes_reg) else -1,
                           srcs, addr, taken, next_pc)

    def run(self, max_insts: int = 2_000_000) -> List[TraceRecord]:
        """Step to halt (or the budget); returns the record list."""
        records: List[TraceRecord] = []
        while not self.halted:
            if self.retired >= max_insts:
                raise ExecutionLimitExceeded(
                    f"{self.program.name}: exceeded {max_insts} dynamic "
                    f"instructions")
            records.append(self.step())
        return records


def execute(program: Program, max_insts: int = 2_000_000,
            input_name: str = "default",
            regs_init: Optional[List[int]] = None,
            capture_memory: bool = False) -> Trace:
    """Architecturally execute ``program`` and return its dynamic trace.

    Execution starts at PC 0 with zeroed registers (unless ``regs_init``
    is given) and runs until a ``halt`` or until ``max_insts`` dynamic
    instructions have retired, whichever comes first; exceeding the budget
    raises :class:`ExecutionLimitExceeded`. With ``capture_memory`` the
    final memory image is attached to the trace (used by transformation
    passes to verify semantics preservation).

    The compiled kernel runs the program when it can
    (:func:`repro.pipeline.ckern.execute`, which holds the same Python
    ints this loop holds); the loop below is its reference and runs
    whenever the kernel is unavailable or declines.
    """
    from ..pipeline import ckern
    native = ckern.execute(program, max_insts, regs_init, capture_memory)
    if native is not None:
        pcs, addrs, takens, final_memory = native
        return Trace(program, _gather(program.instructions, pcs, addrs,
                                      takens),
                     input_name=input_name, final_memory=final_memory)
    insts = program.instructions
    n_insts = len(insts)
    memory = list(program.data) + [0] * (program.memory_words
                                         - len(program.data))
    regs = list(regs_init) if regs_init is not None else [0] * 32
    regs[0] = 0
    # Per retired instruction, only the fields that vary between
    # instances of one static instruction; _gather adds the rest.
    pcs = array("q")
    addrs = array("q")
    takens = array("b")
    pc_append = pcs.append
    addr_append = addrs.append
    taken_append = takens.append
    pc = 0
    retired = 0

    while True:
        if retired >= max_insts:
            raise ExecutionLimitExceeded(
                f"{program.name}: exceeded {max_insts} dynamic instructions")
        if not 0 <= pc < n_insts:
            raise MemoryFault(f"{program.name}: control left program at "
                              f"PC {pc}")
        inst = insts[pc]
        op = inst.op
        opclass = inst.opclass
        srcs = inst.srcs
        rd = inst.rd
        imm = inst.imm
        addr = -1
        taken = False
        next_pc = pc + 1
        value = None

        if opclass == oc.OC_SIMPLE:
            if op == oc.ADD:
                value = (regs[srcs[0]] + regs[srcs[1]]) & _MASK
            elif op == oc.ADDI:
                value = (regs[srcs[0]] + imm) & _MASK
            elif op == oc.SUB:
                value = (regs[srcs[0]] - regs[srcs[1]]) & _MASK
            elif op == oc.AND:
                value = regs[srcs[0]] & regs[srcs[1]]
            elif op == oc.OR:
                value = regs[srcs[0]] | regs[srcs[1]]
            elif op == oc.XOR:
                value = regs[srcs[0]] ^ regs[srcs[1]]
            elif op == oc.NOR:
                value = ~(regs[srcs[0]] | regs[srcs[1]]) & _MASK
            elif op == oc.SLL:
                value = (regs[srcs[0]] << (regs[srcs[1]] & 63)) & _MASK
            elif op == oc.SRL:
                value = regs[srcs[0]] >> (regs[srcs[1]] & 63)
            elif op == oc.SRA:
                value = to_unsigned(
                    to_signed(regs[srcs[0]]) >> (regs[srcs[1]] & 63))
            elif op == oc.SLT:
                value = int(to_signed(regs[srcs[0]])
                            < to_signed(regs[srcs[1]]))
            elif op == oc.SLTU:
                value = int(regs[srcs[0]] < regs[srcs[1]])
            elif op == oc.SEQ:
                value = int(regs[srcs[0]] == regs[srcs[1]])
            elif op == oc.ANDI:
                value = regs[srcs[0]] & to_unsigned(imm)
            elif op == oc.ORI:
                value = regs[srcs[0]] | to_unsigned(imm)
            elif op == oc.XORI:
                value = regs[srcs[0]] ^ to_unsigned(imm)
            elif op == oc.SLLI:
                value = (regs[srcs[0]] << (imm & 63)) & _MASK
            elif op == oc.SRLI:
                value = regs[srcs[0]] >> (imm & 63)
            elif op == oc.SRAI:
                value = to_unsigned(to_signed(regs[srcs[0]]) >> (imm & 63))
            elif op == oc.SLTI:
                value = int(to_signed(regs[srcs[0]]) < imm)
            elif op == oc.SEQI:
                value = int(to_signed(regs[srcs[0]]) == imm)
            elif op == oc.LI:
                value = to_unsigned(imm)
            elif op == oc.CMOVZ:
                value = regs[srcs[0]] if regs[srcs[1]] == 0 else regs[srcs[2]]
            elif op == oc.CMOVN:
                value = regs[srcs[0]] if regs[srcs[1]] != 0 else regs[srcs[2]]
            else:  # pragma: no cover - exhaustive above
                raise NotImplementedError(oc.op_name(op))
        elif opclass == oc.OC_COMPLEX:
            a, b = regs[srcs[0]], regs[srcs[1]]
            if op == oc.MUL:
                value = (a * b) & _MASK
            elif op == oc.MULH:
                value = to_unsigned((to_signed(a) * to_signed(b)) >> 64)
            elif op == oc.DIV:
                sb = to_signed(b)
                value = 0 if sb == 0 else to_unsigned(
                    int(to_signed(a) / sb))
            elif op == oc.REM:
                sb = to_signed(b)
                sa = to_signed(a)
                value = 0 if sb == 0 else to_unsigned(
                    sa - int(sa / sb) * sb)
            elif op == oc.FADD:
                value = (a + b) & _MASK
            elif op == oc.FMUL:
                value = to_unsigned((to_signed(a) * to_signed(b)) >> 16)
            else:  # pragma: no cover - exhaustive above
                raise NotImplementedError(oc.op_name(op))
        elif opclass == oc.OC_LOAD:
            addr = (regs[srcs[0]] + imm) & _MASK
            if addr >= len(memory):
                raise MemoryFault(
                    f"{program.name}: load from {addr} at PC {pc}")
            value = memory[addr]
        elif opclass == oc.OC_STORE:
            addr = (regs[srcs[0]] + imm) & _MASK
            if addr >= len(memory):
                raise MemoryFault(
                    f"{program.name}: store to {addr} at PC {pc}")
            memory[addr] = regs[srcs[1]]
        elif opclass == oc.OC_BRANCH:
            a, b = regs[srcs[0]], regs[srcs[1]]
            if op == oc.BEQ:
                taken = a == b
            elif op == oc.BNE:
                taken = a != b
            elif op == oc.BLT:
                taken = to_signed(a) < to_signed(b)
            elif op == oc.BGE:
                taken = to_signed(a) >= to_signed(b)
            elif op == oc.BLTU:
                taken = a < b
            elif op == oc.BGEU:
                taken = a >= b
            else:  # pragma: no cover - exhaustive above
                raise NotImplementedError(oc.op_name(op))
            if taken:
                next_pc = imm
        elif opclass == oc.OC_JUMP:
            taken = True
            if op == oc.JMP:
                next_pc = imm
            elif op == oc.JAL:
                value = pc + 1
                next_pc = imm
            else:  # JR
                next_pc = regs[srcs[0]]
        elif opclass == oc.OC_NOP:
            pass
        elif opclass == oc.OC_HALT:
            break
        else:  # pragma: no cover - MGH never appears in source programs
            raise NotImplementedError(oc.op_name(op))

        if value is not None and rd is not None and rd != 0:
            regs[rd] = value
        pc_append(pc)
        addr_append(addr)
        taken_append(taken)
        retired += 1
        pc = next_pc

    # The halt retires too: no address, not taken.
    pc_append(pc)
    addr_append(-1)
    taken_append(0)
    return Trace(program, _gather(insts, pcs, addrs, takens),
                 input_name=input_name,
                 final_memory=memory if capture_memory else None)


def _gather(insts, pc: array, addr: array, taken: array) -> PackedTrace:
    """The complete columns of an executed trace: the kernel's gather
    (:func:`repro.pipeline.ckern.gather`), else :func:`_pack_execution`,
    its reference."""
    from ..pipeline import ckern
    fixed = ckern.gather(insts, pc)
    if fixed is None:
        return _pack_execution(insts, pc, addr, taken)
    op, opclass, latency, rd, next_pc, srcs, srcs_start = fixed
    return PackedTrace(None, array("b", bytes(len(pc))), pc, op, opclass,
                       latency, rd, addr, taken, next_pc, srcs, srcs_start)


def _pack_execution(insts, pc: array, addr: array,
                    taken: array) -> PackedTrace:
    """The complete columns of an executed trace.

    Every field but ``addr`` and ``taken`` is either fixed by the static
    instruction at ``pc`` or, for ``next_pc``, the pc that retired next
    (the halt names itself). Each instruction's fixed fields are one
    row of bytes, and so are its sources: the rows of the executed pcs
    are joined and split back into columns in C, with no Python step
    per record.
    """
    rows = [array("q", (inst.op, inst.opclass, inst.latency,
                        inst.rd if inst.writes_reg else -1,
                        len(inst.srcs))).tobytes() for inst in insts]
    fixed = array("q")
    fixed.frombytes(b"".join(map(rows.__getitem__, pc)))
    src_rows = [array("q", inst.srcs).tobytes() for inst in insts]
    srcs = array("q")
    srcs.frombytes(b"".join(map(src_rows.__getitem__, pc)))
    next_pc = pc[1:]
    next_pc.append(pc[-1])
    return PackedTrace(
        None, array("b", bytes(len(pc))), pc,
        fixed[0::5], fixed[1::5], fixed[2::5], fixed[3::5],
        addr, taken, next_pc, srcs,
        array("q", list(accumulate(fixed[4::5], initial=0))))
