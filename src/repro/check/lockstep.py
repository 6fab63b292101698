"""Differential lockstep checking of the mini-graph transform.

The paper's premise is that a mini-graph has "the external interface of a
RISC singleton": outlining a program must be architecturally invisible.
This module checks that property *dynamically* by co-executing two
machines over the transformed trace:

* the **reference** machine steps the original program instruction by
  instruction (:class:`~repro.isa.interp.MachineState` — a second,
  independently structured ISA implementation);
* the **subject** machine replays the folded record stream the timing
  core would consume, committing only each record's *declared external
  interface*: a mini-graph handle commits its single register output, its
  single memory operation, and its control transfer — interior register
  writes are discarded, exactly as mini-graph hardware never allocates
  them physical registers.

At every original-instruction boundary the checker compares source
operand values, memory writes (address and value), and control flow
between the two machines, and verifies the handle's declared interface
(``rd``/``srcs``/``addr``/``taken``/``next_pc``, post-outlining PCs)
against what actually happened. Registers whose subject-side value went
stale because a handle hid an interior write are *tainted*; reading a
tainted register is the signature of a selection bug (a live value
treated as interior) and produces a targeted diagnostic. The first
divergence is reported with full context: the folded-record window, the
static code around the fault, and the differing architectural state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..isa.interp import MachineState, Trace, execute
from ..isa.opcodes import OC_BRANCH, OC_STORE, op_name
from ..isa.program import Program
from ..minigraph.selection import MiniGraphPlan
from ..minigraph.transform import TransformedBinary, fold_records

DEFAULT_MAX_INSTS = 2_000_000
_CONTEXT_RECORDS = 4


@dataclass(frozen=True)
class Divergence:
    """The first point where the transformed stream left the original
    program's architectural behaviour."""

    index: int          # position in the folded record stream (-1: global)
    orig_pc: int        # original-program PC of the fault (-1 if n/a)
    field: str          # what disagreed (e.g. "r15", "addr", "next_pc")
    expected: object    # reference-side value
    actual: object      # subject-side / declared value
    message: str
    context: str = ""

    def summary(self) -> str:
        return (f"{self.message} [record {self.index}, pc {self.orig_pc}, "
                f"{self.field}: expected {self.expected!r}, "
                f"got {self.actual!r}]")

    def render(self) -> str:
        lines = [self.summary()]
        if self.context:
            lines.append(self.context)
        return "\n".join(lines)


class LockstepError(RuntimeError):
    """Raised by :func:`assert_lockstep` on the first divergence."""

    def __init__(self, divergence: Divergence):
        self.divergence = divergence
        super().__init__(divergence.summary())


@dataclass
class LockstepReport:
    """Outcome of one lockstep run."""

    program: str
    selector: str = ""
    records: int = 0           # folded records walked
    handles: int = 0
    singletons: int = 0
    stores_checked: int = 0
    operands_checked: int = 0
    divergence: Optional[Divergence] = None

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def render(self) -> str:
        head = (f"lockstep {self.program}"
                + (f"/{self.selector}" if self.selector else ""))
        if self.ok:
            return (f"{head}: OK ({self.records} records, "
                    f"{self.handles} handles, {self.stores_checked} stores, "
                    f"{self.operands_checked} operand reads)")
        return f"{head}: DIVERGED\n{self.divergence.render()}"


@dataclass
class _Walk:
    """Mutable cursor shared by the comparison helpers."""

    program: Program
    folded: List
    pc_map: List[int]
    index: int = 0
    tainted: Set[int] = field(default_factory=set)


def _render_context(walk: _Walk, ref: MachineState,
                    sub: MachineState) -> str:
    """Folded-record window, static listing, and differing state."""
    lines = ["-- folded records --"]
    lo = max(0, walk.index - _CONTEXT_RECORDS)
    hi = min(len(walk.folded), walk.index + 2)
    for i in range(lo, hi):
        rec = walk.folded[i]
        marker = ">>" if i == walk.index else "  "
        if rec.kind == 1:
            lines.append(f"{marker} [{i}] mg-handle pc={rec.pc} "
                         f"site#{rec.site.id} "
                         f"[{rec.site.start},{rec.site.end}) rd={rec.rd} "
                         f"srcs={rec.srcs} addr={rec.addr} "
                         f"taken={rec.taken} next={rec.next_pc}")
        else:
            lines.append(f"{marker} [{i}] {op_name(rec.op):6s} pc={rec.pc} "
                         f"rd={rec.rd} addr={rec.addr} next={rec.next_pc}")
    pc = min(max(ref.pc, 0), len(walk.program) - 1)
    lines.append("-- static code around the fault --")
    for p in range(max(0, pc - 2), min(len(walk.program), pc + 3)):
        marker = ">>" if p == pc else "  "
        lines.append(f"{marker} {p:5d}  "
                     f"{walk.program.instructions[p].render()}")
    diffs = [(r, ref.regs[r], sub.regs[r]) for r in range(32)
             if ref.regs[r] != sub.regs[r]]
    if diffs:
        lines.append("-- differing registers (reference vs subject) --")
        for reg, a, b in diffs[:8]:
            taint = " [tainted: hidden by an earlier mini-graph]" \
                if reg in walk.tainted else ""
            lines.append(f"   r{reg}: {a} vs {b}{taint}")
        if len(diffs) > 8:
            lines.append(f"   ... {len(diffs) - 8} more")
    return "\n".join(lines)


def _diverge(report: LockstepReport, walk: _Walk, ref: MachineState,
             sub: MachineState, orig_pc: int, field_name: str,
             expected, actual, message: str) -> LockstepReport:
    report.divergence = Divergence(
        walk.index, orig_pc, field_name, expected, actual, message,
        _render_context(walk, ref, sub))
    return report


def _check_operands(report, walk, ref, sub, inst, orig_pc,
                    internal: Optional[Set[int]] = None,
                    declared: Optional[Set[int]] = None):
    """Source-operand agreement between the machines, plus interface
    closure on handle constituents (external reads must be declared)."""
    for src in inst.srcs:
        if src == 0:
            continue
        report.operands_checked += 1
        if internal is not None and src not in internal \
                and declared is not None and src not in declared:
            return _diverge(
                report, walk, ref, sub, orig_pc, f"r{src}",
                "declared external input", "undeclared",
                f"mini-graph constituent at pc {orig_pc} reads r{src} "
                f"from outside the group, but the handle does not "
                f"declare it as an input")
        if internal is not None and src in internal:
            continue  # internally produced: equality follows from inputs
        if ref.regs[src] != sub.regs[src]:
            hidden = src in walk.tainted
            return _diverge(
                report, walk, ref, sub, orig_pc, f"r{src}",
                ref.regs[src], sub.regs[src],
                (f"instruction at pc {orig_pc} reads r{src} whose value "
                 f"was hidden inside an earlier mini-graph (interior "
                 f"write treated as dead)") if hidden else
                (f"instruction at pc {orig_pc} reads diverged register "
                 f"r{src}"))
    return None


def _step_pair(report, walk, ref, sub):
    """Step both machines one instruction; compare store effects."""
    inst = ref.program.instructions[ref.pc]
    ref_rec = ref.step()
    sub_rec = sub.step()
    if inst.opclass == OC_STORE:
        report.stores_checked += 1
        if ref_rec.addr != sub_rec.addr:
            return None, _diverge(
                report, walk, ref, sub, ref_rec.pc, "store-addr",
                ref_rec.addr, sub_rec.addr,
                f"store at pc {ref_rec.pc} computed different addresses")
        if ref.memory[ref_rec.addr] != sub.memory[sub_rec.addr]:
            return None, _diverge(
                report, walk, ref, sub, ref_rec.pc, "store-value",
                ref.memory[ref_rec.addr], sub.memory[sub_rec.addr],
                f"store at pc {ref_rec.pc} wrote different values")
    if ref_rec.next_pc != sub_rec.next_pc:
        return None, _diverge(
            report, walk, ref, sub, ref_rec.pc, "control",
            ref_rec.next_pc, sub_rec.next_pc,
            f"control flow diverged after pc {ref_rec.pc}")
    return ref_rec, None


def lockstep_check(program: Program, plan: MiniGraphPlan,
                   trace: Optional[Trace] = None,
                   selector: str = "",
                   max_insts: int = DEFAULT_MAX_INSTS) -> LockstepReport:
    """Co-execute ``program`` and its transform under ``plan``.

    Returns a :class:`LockstepReport`; ``report.divergence`` carries the
    first divergence (or ``None``). Pass a precomputed ``trace`` to avoid
    re-executing the program.
    """
    report = LockstepReport(program.name, selector=selector)
    if trace is None:
        trace = execute(program, max_insts=max_insts)
    try:
        # The reference fold: its records are what lockstep walks.
        folded = fold_records(trace, plan)
    except AssertionError as error:
        report.divergence = Divergence(
            -1, -1, "transform", "foldable trace", "assertion",
            f"fold_trace rejected the plan: {error}")
        return report
    binary = TransformedBinary(program, plan)
    pc_map = binary.pc_map
    n_pc = len(pc_map)
    walk = _Walk(program, folded, pc_map)
    ref = MachineState(program)
    sub = MachineState(program)

    def mapped(orig: int) -> int:
        return pc_map[orig] if orig < n_pc else orig

    for index, rec in enumerate(folded):
        walk.index = index
        report.records += 1
        if rec.kind == 0:
            report.singletons += 1
            orig_pc = ref.pc
            if rec.pc != mapped(orig_pc):
                return _diverge(
                    report, walk, ref, sub, orig_pc, "pc",
                    mapped(orig_pc), rec.pc,
                    f"folded record carries pc {rec.pc} but the rewritten "
                    f"binary places pc {orig_pc} at {mapped(orig_pc)}")
            inst = program.instructions[orig_pc]
            fault = _check_operands(report, walk, ref, sub, inst, orig_pc)
            if fault is not None:
                return fault
            ref_rec, fault = _step_pair(report, walk, ref, sub)
            if fault is not None:
                return fault
            for field_name, expect, got in (
                    ("rd", ref_rec.rd, rec.rd),
                    ("addr", ref_rec.addr, rec.addr),
                    ("taken", ref_rec.taken, rec.taken),
                    ("next_pc", mapped(ref_rec.next_pc), rec.next_pc)):
                if expect != got:
                    return _diverge(
                        report, walk, ref, sub, orig_pc, field_name,
                        expect, got,
                        f"singleton record at pc {orig_pc} misdeclares "
                        f"its {field_name}")
            if rec.rd >= 0:
                walk.tainted.discard(rec.rd)
            continue

        # -- mini-graph handle ------------------------------------------
        report.handles += 1
        site = rec.site
        size = site.end - site.start
        orig_pc = ref.pc
        if orig_pc != site.start:
            return _diverge(
                report, walk, ref, sub, orig_pc, "control",
                orig_pc, site.start,
                f"handle for site #{site.id} appears while execution is "
                f"at pc {orig_pc}, not the site start {site.start}")
        if rec.pc != site.handle_pc:
            return _diverge(
                report, walk, ref, sub, orig_pc, "pc",
                site.handle_pc, rec.pc,
                f"handle record carries pc {rec.pc}, not the site's "
                f"assigned handle slot {site.handle_pc}")
        if len(rec.constituents) != size:
            return _diverge(
                report, walk, ref, sub, orig_pc, "constituents",
                size, len(rec.constituents),
                f"handle for site #{site.id} carries "
                f"{len(rec.constituents)} constituents for a "
                f"{size}-instruction site")
        declared = set(rec.srcs)
        internal: Set[int] = set()
        saved: Dict[int, int] = {}
        mem_addr = -1
        mem_ops = 0
        branch_taken = False
        for offset in range(size):
            pc_now = sub.pc
            if pc_now != site.start + offset:
                return _diverge(
                    report, walk, ref, sub, pc_now, "control",
                    site.start + offset, pc_now,
                    f"mini-graph body did not execute straight-line "
                    f"through site #{site.id}")
            inst = program.instructions[pc_now]
            if inst.is_control and offset != size - 1:
                return _diverge(
                    report, walk, ref, sub, pc_now, "control-position",
                    "final constituent", f"offset {offset}",
                    f"site #{site.id} embeds a control transfer before "
                    f"its final constituent")
            fault = _check_operands(report, walk, ref, sub, inst, pc_now,
                                    internal=internal, declared=declared)
            if fault is not None:
                return fault
            if inst.writes_reg and inst.rd not in saved:
                saved[inst.rd] = sub.regs[inst.rd]
            ref_rec, fault = _step_pair(report, walk, ref, sub)
            if fault is not None:
                return fault
            if inst.writes_reg:
                internal.add(inst.rd)
            if ref_rec.addr >= 0:
                mem_ops += 1
                mem_addr = ref_rec.addr
            if ref_rec.opclass == OC_BRANCH:
                branch_taken = ref_rec.taken
        if mem_ops > 1:
            return _diverge(
                report, walk, ref, sub, site.start, "memory-ops",
                "at most 1", mem_ops,
                f"site #{site.id} performed {mem_ops} memory operations")
        if rec.rd >= 0 and rec.rd not in internal:
            return _diverge(
                report, walk, ref, sub, site.start, "rd",
                f"a register written by site #{site.id}", f"r{rec.rd}",
                f"handle declares output r{rec.rd} which no constituent "
                f"writes")
        # Commit only the declared interface: interior writes roll back.
        for reg, old in saved.items():
            if reg != rec.rd:
                sub.regs[reg] = old
                if sub.regs[reg] != ref.regs[reg]:
                    walk.tainted.add(reg)
        if rec.rd >= 0:
            walk.tainted.discard(rec.rd)
        for field_name, expect, got in (
                ("addr", mem_addr, rec.addr),
                ("taken", branch_taken, rec.taken),
                ("next_pc", mapped(ref.pc), rec.next_pc)):
            if expect != got:
                return _diverge(
                    report, walk, ref, sub, site.start, field_name,
                    expect, got,
                    f"handle for site #{site.id} misdeclares its "
                    f"{field_name}")

    walk.index = len(folded) - 1
    if not ref.halted or not sub.halted:
        return _diverge(
            report, walk, ref, sub, ref.pc, "termination",
            "halted", f"pc {ref.pc}",
            "folded stream ended before the program halted")
    if ref.memory != sub.memory:
        delta = next(a for a in range(len(ref.memory))
                     if ref.memory[a] != sub.memory[a])
        return _diverge(
            report, walk, ref, sub, -1, f"mem[{delta}]",
            ref.memory[delta], sub.memory[delta],
            "final memory images differ")
    for reg in range(32):
        if reg not in walk.tainted and ref.regs[reg] != sub.regs[reg]:
            return _diverge(
                report, walk, ref, sub, -1, f"r{reg}",
                ref.regs[reg], sub.regs[reg],
                f"final value of r{reg} differs (and r{reg} was never "
                f"hidden by a mini-graph)")
    return report


def assert_lockstep(program: Program, plan: MiniGraphPlan,
                    trace: Optional[Trace] = None,
                    selector: str = "") -> LockstepReport:
    """:func:`lockstep_check`, raising :class:`LockstepError` on failure."""
    report = lockstep_check(program, plan, trace=trace, selector=selector)
    if report.divergence is not None:
        raise LockstepError(report.divergence)
    return report
