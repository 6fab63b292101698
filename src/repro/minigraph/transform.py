"""Outlining transform: binary rewriting and trace folding.

Implements the encoding of §2 (Figure 2): selected mini-graph bodies are
removed from the program main line and replaced by a one-slot *handle*;
bodies live in the MGT on a mini-graph processor, or out-of-line behind a
pair of jumps on a processor with the mini-graph disabled.

Because the timing model is trace-driven, the transform operates on the
dynamic trace: it assigns post-outlining PCs to every static instruction
(so that fetch-group and I$ behaviour reflect the compacted binary),
allocates per-site outlined locations past the end of the binary (used
when Slack-Dynamic disables a site), and folds each dynamic instance of a
selected site into a single :class:`MGHandleRecord` carrying its
constituents.

:func:`fold_trace` folds in the compiled kernel (``repro_fold``) when it
can: the result carries the kernel's arena and builds those record
objects only when something reads them. :func:`fold_records` is the
Python reference fold; it is also the fallback.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

from ..isa.interp import PackedTrace, Trace, TraceRecord
from ..isa.opcodes import OC_BRANCH
from ..isa.program import Program
from ..pipeline import ckern
from .selection import MiniGraphPlan
from .templates import MGSite

_OUTLINE_GAP = 8  # I$ padding between the main line and outlined bodies


class MGHandleRecord:
    """A dynamic mini-graph instance: one slot everywhere but execute."""

    __slots__ = ("pc", "rd", "srcs", "addr", "taken", "next_pc",
                 "site", "template", "constituents")
    kind = 1

    def __init__(self, pc: int, rd: int, srcs: Tuple[int, ...], addr: int,
                 taken: bool, next_pc: int, site: MGSite,
                 constituents: List[TraceRecord]):
        self.pc = pc
        self.rd = rd
        self.srcs = srcs
        self.addr = addr
        self.taken = taken
        self.next_pc = next_pc
        self.site = site
        self.template = site.template
        self.constituents = constituents

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MGHandleRecord pc={self.pc} site={self.site.id} "
                f"n={len(self.constituents)}>")


class TransformedBinary:
    """Static outcome of applying a plan to a program."""

    def __init__(self, program: Program, plan: MiniGraphPlan):
        self.program = program
        self.plan = plan
        self.pc_map: List[int] = [0] * len(program)
        self.new_length = 0
        self._layout()

    def _layout(self) -> None:
        """Assign post-outlining PCs (binary compaction + outlined bodies).

        ``site.handle_pc`` / ``site.outlined_pc`` are reassigned on
        every fold before anything reads them — the contract that lets
        the runner and fuzz paths hoist one site list across the
        per-selector plan loop (and ``MGSite.__getstate__`` normalize
        the scratch pcs away when plans are pickled).
        """
        new_pc = 0
        site_iter = iter(self.plan.sites)
        site = next(site_iter, None)
        pc = 0
        n = len(self.program)
        while pc < n:
            if site is not None and pc == site.start:
                site.handle_pc = new_pc
                for offset in range(site.end - site.start):
                    self.pc_map[pc + offset] = new_pc
                pc = site.end
                new_pc += 1
                site = next(site_iter, None)
            else:
                self.pc_map[pc] = new_pc
                pc += 1
                new_pc += 1
        self.new_length = new_pc
        outlined = new_pc + _OUTLINE_GAP
        for site in self.plan.sites:
            site.outlined_pc = outlined
            # jump-in slot is at the handle site; body + back-jump out of line
            outlined += (site.end - site.start) + 1


class FoldedTrace:
    """A folded record stream: the kernel's arena now, records on demand.

    ``arena`` is the :class:`~repro.pipeline.ckern.MarshalledTrace` that
    ``repro_fold`` built, or None when the fold ran in Python. The
    record view — iteration, indexing, :meth:`packed` — comes from the
    reference :func:`fold_records`, run at most once and only when read
    (the Python cycle loop, record-reading observers, tests), so a
    kernel-path timing point never builds a record object.
    """

    __slots__ = ("trace", "plan", "arena", "n", "_packed")

    def __init__(self, trace: Trace, plan: MiniGraphPlan,
                 arena=None, packed: Optional[PackedTrace] = None):
        self.trace = trace
        self.plan = plan
        self.arena = arena
        self._packed = packed
        self.n = arena.struct.n if arena is not None else packed.n

    def packed(self) -> PackedTrace:
        """The folded records as a PackedTrace (reference fold, cached)."""
        if self._packed is None:
            ckern.counters["fold_fallbacks"] += 1
            self._packed = fold_records(self.trace, self.plan)
        return self._packed

    # -- sequence protocol: drop-in for the record list ----------------

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, index):
        return self.packed().objs[index]

    def __iter__(self):
        return iter(self.packed().objs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FoldedTrace n={self.n} native={self.arena is not None}>"


def _site_table(binary: TransformedBinary) -> Tuple[array, array]:
    """``repro_fold``'s per-site table and its source/consumer words."""
    sites = array("q")
    ext = array("q")
    for site in binary.plan.sites:
        template = site.template
        candidate = site.candidate
        regs = [reg for reg, _, _ in candidate.ext_inputs]
        consumers = site.input_consumer_ix
        src_off = len(ext)
        ext.extend(regs)
        cons_off = len(ext)
        for reg, consumer in consumers.items():
            ext.append(reg)
            ext.append(consumer)
        sites.extend((
            site.start, site.end, site.handle_pc, template.id,
            template.nominal_out_latency, template.out_producer_ix,
            (1 if template.has_branch else 0) |
            (2 if template.has_load else 0) |
            (4 if template.has_store else 0),
            site.mem_pc, candidate.out_reg, src_off, len(regs), cons_off,
            len(consumers), site.outlined_pc, site.id))
    return sites, ext


def fold_trace(trace: Trace, plan: MiniGraphPlan) -> FoldedTrace:
    """Fold a singleton trace into its mini-graph form under ``plan``.

    Returns the record stream for the timing core as a
    :class:`FoldedTrace` (a drop-in sequence of records): singleton
    records carry rewritten PCs; dynamic instances of selected sites
    become :class:`MGHandleRecord` aggregates. With the compiled kernel
    the fold runs in C and the records are built only if read; without
    it, or when the C fold declines, :func:`fold_records` runs here —
    raising, as it always has, on a trace off the plan's site layout.
    """
    binary = TransformedBinary(trace.program, plan)
    if ckern.available():
        sites, ext = _site_table(binary)
        arena = ckern.fold(trace.packed(), array("q", binary.pc_map),
                           sites, ext)
        if arena is not None:
            return FoldedTrace(trace, plan, arena)
        ckern.counters["fold_fallbacks"] += 1
    return FoldedTrace(trace, plan, packed=fold_records(trace, plan,
                                                        binary))


def fold_records(trace: Trace, plan: MiniGraphPlan,
                 binary: Optional[TransformedBinary] = None) -> PackedTrace:
    """The reference fold: one record object per folded instruction.

    ``binary`` reuses a layout just computed for ``plan``; by default the
    layout is redone, since the per-site pcs it assigns are scratch
    state shared by every fold over the same sites.
    """
    if binary is None:
        binary = TransformedBinary(trace.program, plan)
    pc_map = binary.pc_map
    site_at: Dict[int, MGSite] = {site.start: site for site in plan.sites}
    records = trace.records
    out: List = []
    append = out.append
    i = 0
    n = len(records)
    while i < n:
        rec = records[i]
        site = site_at.get(rec.pc)
        if site is None:
            append(TraceRecord(pc_map[rec.pc], rec.op, rec.opclass,
                               rec.latency, rec.rd, rec.srcs, rec.addr,
                               rec.taken,
                               pc_map[rec.next_pc]
                               if rec.next_pc < len(pc_map) else rec.next_pc))
            i += 1
            continue
        size = site.end - site.start
        constituents = records[i:i + size]
        assert len(constituents) == size and \
            constituents[-1].pc == site.end - 1, \
            "trace does not follow the static site layout"
        candidate = site.candidate
        addr = -1
        taken = False
        for constituent in constituents:
            if constituent.addr >= 0:
                addr = constituent.addr
            if constituent.opclass == OC_BRANCH:
                taken = constituent.taken
        last = constituents[-1]
        next_pc = (pc_map[last.next_pc] if last.next_pc < len(pc_map)
                   else last.next_pc)
        append(MGHandleRecord(
            site.handle_pc, candidate.out_reg,
            tuple(reg for reg, _, _ in candidate.ext_inputs),
            addr, taken, next_pc, site, list(constituents)))
        i += size
    return PackedTrace.from_records(out)

