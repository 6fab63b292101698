"""Mini-graph-aware instruction scheduling (in-block code motion).

The candidate enumerator works on *contiguous* instruction windows; the
original mini-graphs work allowed dependence-preserving code motion within
a basic block to bring profitable groups together. This pass restores that
capability: each basic block is list-scheduled so that single-consumer
dataflow chains become adjacent, which both exposes more candidates and
biases them toward the serialization-safe chain shape (all external inputs
into the first constituent).

Legality is purely structural:

* register dataflow (RAW/WAR/WAW) is preserved;
* stores are barriers for all memory operations (no alias analysis);
* loads may reorder freely between stores;
* a block-terminating control transfer stays last.

``reschedule`` rewrites a whole program; block boundaries and branch
targets are unchanged (only the interior order of each block moves), so
labels and the CFG survive untouched. Use
:func:`verify_equivalence` to check architectural equivalence of the
rewritten binary on an input.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..isa import opcodes as oc
from ..isa.instruction import Instruction
from ..isa.interp import Trace, execute
from ..isa.program import Program


class SchedulingError(RuntimeError):
    """The rewritten program failed its architectural equivalence check."""


def _block_dag(program: Program, start: int, end: int) -> List[Set[int]]:
    """Predecessor sets (by block offset) for instructions ``[start, end)``."""
    size = end - start
    preds: List[Set[int]] = [set() for _ in range(size)]
    last_writer: Dict[int, int] = {}
    readers_since_write: Dict[int, List[int]] = {}
    last_store: Optional[int] = None
    mem_since_store: List[int] = []
    for offset in range(size):
        inst = program.instructions[start + offset]
        # Register dependences.
        for src in inst.srcs:
            if src == 0:
                continue
            if src in last_writer:
                preds[offset].add(last_writer[src])        # RAW
            readers_since_write.setdefault(src, []).append(offset)
        if inst.writes_reg:
            rd = inst.rd
            if rd in last_writer:
                preds[offset].add(last_writer[rd])          # WAW
            for reader in readers_since_write.get(rd, ()):
                if reader != offset:
                    preds[offset].add(reader)               # WAR
            last_writer[rd] = offset
            readers_since_write[rd] = []
        # Memory dependences: stores are barriers.
        if inst.is_store:
            if last_store is not None:
                preds[offset].add(last_store)
            for mem in mem_since_store:
                preds[offset].add(mem)
            last_store = offset
            mem_since_store = []
        elif inst.is_load:
            if last_store is not None:
                preds[offset].add(last_store)
            mem_since_store.append(offset)
        # Control transfers (and halt) are scheduling barriers at the end.
        if inst.is_control or inst.opclass == oc.OC_HALT:
            for other in range(size):
                if other != offset:
                    preds[offset].add(other)
    return preds


def schedule_block(program: Program, start: int, end: int) -> List[int]:
    """A dependence-preserving order (absolute PCs) for one block.

    Greedy list scheduling with a chain-affinity heuristic: after emitting
    an instruction, prefer a ready instruction that consumes its result
    (forming a contiguous dataflow chain); otherwise take the oldest ready
    instruction (stability).
    """
    size = end - start
    if size <= 2:
        return list(range(start, end))
    preds = _block_dag(program, start, end)
    remaining_preds = [set(p) for p in preds]
    succs: List[Set[int]] = [set() for _ in range(size)]
    for offset, pset in enumerate(preds):
        for pred in pset:
            succs[pred].add(offset)

    scheduled: List[int] = []
    emitted: Set[int] = set()
    ready = sorted(offset for offset in range(size)
                   if not remaining_preds[offset])
    while ready:
        choice = None
        if scheduled:
            last = scheduled[-1]
            last_inst = program.instructions[start + last]
            if last_inst.writes_reg:
                rd = last_inst.rd
                for offset in ready:
                    inst = program.instructions[start + offset]
                    if rd in inst.srcs:
                        choice = offset
                        break
        if choice is None:
            choice = ready[0]
        ready.remove(choice)
        scheduled.append(choice)
        emitted.add(choice)
        for succ in sorted(succs[choice]):
            remaining_preds[succ].discard(choice)
            if not remaining_preds[succ] and succ not in emitted \
                    and succ not in ready:
                ready.append(succ)
                ready.sort()
    assert len(scheduled) == size, "scheduling lost instructions"
    return [start + offset for offset in scheduled]


def reschedule(program: Program, verify: bool = False,
               max_insts: int = 2_000_000) -> Program:
    """Apply chain-affinity scheduling to every basic block.

    Returns a new :class:`Program` (the input is untouched). With
    ``verify`` the rewritten binary is architecturally compared against
    the original (final memory image and store sequence) and a
    :class:`SchedulingError` is raised on divergence.
    """
    order: List[int] = []
    for block in program.basic_blocks():
        order.extend(schedule_block(program, block.start, block.end))
    new_instructions = []
    for pc in order:
        inst = program.instructions[pc]
        clone = Instruction(inst.op, inst.rd, inst.srcs, inst.imm,
                            inst.target_label)
        new_instructions.append(clone)
    rewritten = Program(f"{program.name}", new_instructions,
                        data=program.data, labels=dict(program.labels),
                        memory_words=program.memory_words)
    # Branch targets are block starts; block starts did not move, and
    # control transfers stayed last, so immediates remain valid.
    if verify:
        verify_equivalence(program, rewritten, max_insts=max_insts)
    return rewritten


def _store_addrs(trace: Trace) -> List[int]:
    """The trace's store addresses in retirement order."""
    packed = trace.packed()
    return [addr for addr, opclass in zip(packed.addr, packed.opclass)
            if opclass == oc.OC_STORE]


def verify_equivalence(original: Program, rewritten: Program,
                       max_insts: int = 2_000_000) -> None:
    """Architectural equivalence check: same final memory and same store
    sequence (stores are barriers, so their order is an invariant)."""
    trace_a = execute(original, max_insts=max_insts, capture_memory=True)
    trace_b = execute(rewritten, max_insts=max_insts, capture_memory=True)
    if trace_a.final_memory != trace_b.final_memory:
        raise SchedulingError(
            f"{original.name}: rescheduling changed the final memory image")
    if _store_addrs(trace_a) != _store_addrs(trace_b):
        raise SchedulingError(
            f"{original.name}: rescheduling changed the store sequence")
    if len(trace_a) != len(trace_b):
        raise SchedulingError(
            f"{original.name}: rescheduling changed the dynamic length")
