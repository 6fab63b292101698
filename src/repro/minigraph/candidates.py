"""Mini-graph candidate enumeration.

Candidates are contiguous instruction groups within a basic block that
satisfy the singleton interface of §2: at most four instructions, at most
three external register inputs, at most one live register output, at most
one memory operation, and at most one control transfer (which must be the
final constituent). Constituents are simple-ALU operations plus the
optional memory/branch operation; complex (multiply/divide class)
operations execute on the dedicated complex port and are not aggregated.

The contiguity requirement is a simplification relative to the original
mini-graphs work (which permitted in-block code motion); it affects
absolute coverage but not the serialization phenomena under study.
"""

from __future__ import annotations

import weakref
from array import array
from collections.abc import Sequence
from typing import FrozenSet, List, Optional, Tuple

from ..isa import opcodes as oc
from ..isa.program import Program
from ..pipeline import ckern as _ckern
from .dataflow import group_interface, internal_edges, liveness
from .serialization import SerializationClass, classify

MAX_MG_SIZE = 4
MAX_EXT_INPUTS = 3


class Candidate:
    """One static mini-graph candidate: instructions ``[start, end)``."""

    __slots__ = ("program", "start", "end", "ext_inputs", "output",
                 "edges", "serialization", "has_load", "has_store",
                 "has_branch", "latencies")

    def __init__(self, program: Program, start: int, end: int,
                 ext_inputs: List[Tuple[int, int, int]],
                 output: Optional[Tuple[int, int]],
                 edges: List[Tuple[int, int]],
                 serialization: SerializationClass):
        self.program = program
        self.start = start
        self.end = end
        self.ext_inputs = ext_inputs
        self.output = output  # (reg, producer_offset) or None
        self.edges = edges
        self.serialization = serialization
        insts = program.instructions[start:end]
        self.has_load = any(i.is_load for i in insts)
        self.has_store = any(i.is_store for i in insts)
        self.has_branch = any(i.is_branch for i in insts)
        self.latencies = tuple(i.latency for i in insts)

    # -- derived properties --------------------------------------------------

    @property
    def size(self) -> int:
        return self.end - self.start

    @property
    def pcs(self) -> range:
        return range(self.start, self.end)

    @property
    def out_reg(self) -> int:
        return self.output[0] if self.output else -1

    @property
    def out_producer_ix(self) -> int:
        return self.output[1] if self.output else -1

    @property
    def is_potentially_serializing(self) -> bool:
        return self.serialization is not SerializationClass.NONE

    @property
    def total_latency(self) -> int:
        """Nominal serial execution latency of the whole aggregate."""
        return sum(self.latencies)

    @property
    def nominal_out_latency(self) -> int:
        """Issue-to-output latency assuming L1 hits (rule #2 chain)."""
        if self.output is None:
            return self.total_latency
        producer = self.output[1]
        return sum(self.latencies[:producer + 1])

    def instructions(self):
        """The constituent instructions, in program order."""
        return self.program.instructions[self.start:self.end]

    def overlaps(self, other: "Candidate") -> bool:
        """True if the two candidates share any static instruction."""
        return self.start < other.end and other.start < self.end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Candidate [{self.start},{self.end}) "
                f"{self.serialization.value} out={self.output}>")


_AGGREGABLE = (oc.OC_SIMPLE, oc.OC_LOAD, oc.OC_STORE, oc.OC_BRANCH)

#: Index order must match the SER_* codes emitted by
#: ``repro_enumerate_candidates`` in ``_ckern.c``.
_SER_CLASSES = (SerializationClass.NONE, SerializationClass.BOUNDED,
                SerializationClass.UNBOUNDED)


class _StaticColumns:
    """Flat int64 columns of a program's static listing (native input)."""

    __slots__ = ("opclass", "latency", "rd_eff", "srcs3", "live_mask",
                 "block_start", "block_end")


#: Each live Program's static columns, shared by its enumerations and
#: scoring calls. Kept off the Program itself, so nothing leaks into
#: pickled artifacts; the entry goes with its program.
_static = weakref.WeakKeyDictionary()


def _static_columns(program: Program) -> _StaticColumns:
    cols = _static.get(program)
    if cols is not None:
        return cols
    insts = program.instructions
    n = len(insts)
    cols = _StaticColumns()
    cols.opclass = array("q", (i.opclass for i in insts))
    cols.latency = array("q", (i.latency for i in insts))
    cols.rd_eff = array("q", (i.rd if i.writes_reg else -1 for i in insts))
    srcs3 = array("q", [-1]) * (3 * n)
    for pc, inst in enumerate(insts):
        for position, src in enumerate(inst.srcs):
            srcs3[3 * pc + position] = src
    cols.srcs3 = srcs3
    live_out_sets = liveness(program)
    cols.live_mask = array("q", (sum(1 << r for r in live)
                                 for live in live_out_sets))
    blocks = program.basic_blocks()
    cols.block_start = array("q", (b.start for b in blocks))
    cols.block_end = array("q", (b.end for b in blocks))
    _static[program] = cols
    return cols


class PackedCandidateSet(Sequence):
    """Candidates from the native enumerator, rehydrated lazily.

    Holds the packed ``(start, end, ext, out, edges, ser)`` columns
    returned by ``repro_enumerate_candidates`` and materializes a
    :class:`Candidate` (with exactly the field values the Python loop
    would build) only when an element is actually touched. Pickles as a
    plain list so stored artifacts are byte-identical on both paths.
    """

    __slots__ = ("program", "n", "c_start", "c_end", "c_ext", "c_out",
                 "c_edges", "c_ser", "_items")

    def __init__(self, program: Program, n: int, c_start, c_end, c_ext,
                 c_out, c_edges, c_ser):
        self.program = program
        self.n = n
        self.c_start = c_start
        self.c_end = c_end
        self.c_ext = c_ext
        self.c_out = c_out
        self.c_edges = c_edges
        self.c_ser = c_ser
        self._items: List[Optional[Candidate]] = [None] * n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self.n))]
        if index < 0:
            index += self.n
        item = self._items[index]
        if item is None:
            item = self._items[index] = self._rehydrate(index)
        return item

    def _rehydrate(self, i: int) -> Candidate:
        # Bit layouts documented alongside repro_enumerate_candidates in
        # _ckern.c; they must stay in lockstep with this decode.
        ext_word = self.c_ext[i]
        ext_inputs = []
        for k in range(ext_word & 3):
            entry = (ext_word >> (2 + 9 * k)) & 0x1FF
            ext_inputs.append(
                (entry & 31, (entry >> 5) & 3, (entry >> 7) & 3))
        out_word = self.c_out[i]
        output = None if out_word < 0 else (out_word >> 2, out_word & 3)
        edge_word = self.c_edges[i]
        edges = []
        for k in range(edge_word & 7):
            packed = (edge_word >> (3 + 4 * k)) & 15
            edges.append((packed >> 2, packed & 3))
        return Candidate(self.program, self.c_start[i], self.c_end[i],
                         ext_inputs, output, edges,
                         _SER_CLASSES[self.c_ser[i]])

    def __reduce__(self):
        return (list, (list(self),))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PackedCandidateSet n={self.n} of {self.program.name!r}>"


def candidate_columns(candidates) -> Optional[tuple]:
    """``(n, start, end, ext, out, ser)`` columns for the native scorer
    (:func:`~repro.minigraph.delay_model.assess_batch`).

    Free for a :class:`PackedCandidateSet` (its columns are the native
    enumerator's output); a plain list — e.g. a warm load from the
    artifact store — is packed on every call. Returns None when any
    candidate exceeds the packed format (the scorer then declines, and
    its caller assesses per candidate in Python).
    """
    if isinstance(candidates, PackedCandidateSet):
        return (candidates.n, candidates.c_start, candidates.c_end,
                candidates.c_ext, candidates.c_out, candidates.c_ser)
    return _pack_candidate_list(candidates)


def _pack_candidate_list(candidates) -> Optional[tuple]:
    n = len(candidates)
    c_start = array("q", bytes(8 * n))
    c_end = array("q", bytes(8 * n))
    c_ext = array("q", bytes(8 * n))
    c_out = array("q", bytes(8 * n))
    c_ser = array("q", bytes(8 * n))
    for i, cand in enumerate(candidates):
        size = cand.end - cand.start
        if not 2 <= size <= 4 or len(cand.ext_inputs) > 3:
            return None
        ext_word = len(cand.ext_inputs)
        for k, (reg, consumer_off, position) in enumerate(cand.ext_inputs):
            if not (0 <= reg < 32 and 0 <= consumer_off <= 3
                    and 0 <= position <= 3):
                return None
            ext_word |= (reg | (consumer_off << 5)
                         | (position << 7)) << (2 + 9 * k)
        if cand.output is None:
            out_word = -1
        else:
            reg, producer_off = cand.output
            if not (0 <= reg < 32 and 0 <= producer_off <= 3):
                return None
            out_word = (reg << 2) | producer_off
        c_start[i] = cand.start
        c_end[i] = cand.end
        c_ext[i] = ext_word
        c_out[i] = out_word
        c_ser[i] = _SER_CLASSES.index(cand.serialization)
    return (n, c_start, c_end, c_ext, c_out, c_ser)


def enumerate_candidates(program: Program,
                         max_size: int = MAX_MG_SIZE,
                         max_ext_inputs: int = MAX_EXT_INPUTS,
                         live_out_sets: Optional[List[FrozenSet[int]]] = None
                         ) -> Sequence:
    """All legal mini-graph candidates of ``program``.

    Candidates of every legal size (2..``max_size``) and position are
    returned, including overlapping ones; the selection stage resolves
    overlap. The result is ordered by ``(start, end)``.

    When the compiled kernel is available (and the bounds fit its packed
    format) the scan runs natively over flat static-listing columns and
    returns a lazily-rehydrating :class:`PackedCandidateSet`; otherwise
    this reference loop returns a plain list. Both produce identical
    candidates in identical order.
    """
    if (live_out_sets is None and _ckern.available()
            and 2 <= max_size <= 4 and 0 <= max_ext_inputs <= 3):
        cols = _static_columns(program)
        packed = _ckern.plan_enumerate(
            cols.opclass, cols.rd_eff, cols.srcs3, cols.live_mask,
            cols.block_start, cols.block_end, max_size, max_ext_inputs)
        if packed is not None:
            n_cand, c_start, c_end, c_ext, c_out, c_edges, c_ser = packed
            return PackedCandidateSet(program, n_cand, c_start, c_end,
                                      c_ext, c_out, c_edges, c_ser)
    if live_out_sets is None:
        live_out_sets = liveness(program)
    insts = program.instructions
    candidates: List[Candidate] = []
    for block in program.basic_blocks():
        for start in range(block.start, block.end - 1):
            max_end = min(block.end, start + max_size)
            mem_ops = 0
            for end in range(start + 1, max_end + 1):
                inst = insts[end - 1]
                cls = inst.opclass
                if cls not in _AGGREGABLE:
                    break
                if cls in (oc.OC_LOAD, oc.OC_STORE):
                    mem_ops += 1
                    if mem_ops > 1:
                        break
                size = end - start
                if size >= 2:
                    ext_inputs, outputs = group_interface(
                        program, start, end, live_out_sets)
                    if len(ext_inputs) > max_ext_inputs:
                        break  # external inputs only grow with the window
                    if len(outputs) <= 1:
                        edges = internal_edges(program, start, end)
                        output = outputs[0] if outputs else None
                        serialization = classify(
                            size, ext_inputs, edges,
                            output[1] if output else None)
                        candidates.append(Candidate(
                            program, start, end, ext_inputs, output, edges,
                            serialization))
                if cls == oc.OC_BRANCH:
                    break  # a control transfer must be the last constituent
    return candidates
