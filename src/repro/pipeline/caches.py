"""Cache hierarchy: L1 instruction/data caches, unified L2, TLBs, memory.

Matches Table 1: 32KB 2-way 3-cycle L1s, 1MB 4-way 12-cycle L2, 200-cycle
main memory, 64-entry 4-way TLBs. Caches are set-associative with true-LRU
replacement and write-allocate stores; the model returns access *latency*
only (the functional interpreter already resolved values).

Address conventions: instruction addresses are PC indices (4 bytes per
instruction); data addresses are word indices (8 bytes per word).
"""

from __future__ import annotations

from typing import Tuple

from .config import CacheConfig, MachineConfig
from .prefetch import NextLinePrefetcher, StridePrefetcher

INST_BYTES = 4
DATA_WORD_BYTES = 8
PAGE_BYTES = 4096
_PAGE_SHIFT = PAGE_BYTES.bit_length() - 1
TLB_MISS_PENALTY = 30


class LazyTables:
    """Tables that only the Python cycle loop reads, built on first use.

    A core whose run takes the compiled kernel never touches them, so it
    never pays for them (a reduced machine's L2 alone is 4,096 lists).
    A subclass names its tables in ``_LAZY`` and assigns every one of
    them in ``_build``; the first read of any builds them all, and later
    reads are plain attribute hits. Counters are ordinary attributes.
    """

    _LAZY: Tuple[str, ...] = ()

    def __getattr__(self, name: str):
        if name not in self._LAZY:
            raise AttributeError(name)
        self._build()
        return self.__dict__[name]


class LazySets(LazyTables):
    """Set-associative storage: ``_n_sets`` MRU-first lists in ``_sets``."""

    _LAZY = ("_sets",)
    _n_sets: int

    def _build(self) -> None:
        self._sets = [[] for _ in range(self._n_sets)]


class Cache(LazySets):
    """One set-associative cache level with true-LRU replacement."""

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.name = name
        self.latency = config.latency
        self.line_bytes = config.line_bytes
        self._n_sets = config.n_sets
        self._assoc = config.assoc
        self.accesses = 0
        self.misses = 0
        # Floor-dividing by a power of two is an arithmetic shift; the
        # line split is on every fetch/load path, so precompute it.
        lb = config.line_bytes
        self._line_shift = lb.bit_length() - 1 if lb & (lb - 1) == 0 else -1

    def line_of(self, byte_addr: int) -> int:
        """The line index holding ``byte_addr``."""
        shift = self._line_shift
        if shift >= 0:
            return byte_addr >> shift
        return byte_addr // self.line_bytes

    def probe(self, byte_addr: int) -> bool:
        """True if the line holding ``byte_addr`` is resident (no update)."""
        line = self.line_of(byte_addr)
        return line in self._sets[line % self._n_sets]

    def access(self, byte_addr: int) -> bool:
        """Access the line holding ``byte_addr``; returns hit?, updates LRU."""
        shift = self._line_shift
        if shift >= 0:
            line = byte_addr >> shift
        else:
            line = byte_addr // self.line_bytes
        entry_set = self._sets[line % self._n_sets]
        self.accesses += 1
        try:
            entry_set.remove(line)
        except ValueError:
            self.misses += 1
            entry_set.insert(0, line)
            if len(entry_set) > self._assoc:
                entry_set.pop()
            return False
        entry_set.insert(0, line)
        return True

    def fill(self, byte_addr: int) -> None:
        """Insert the line holding ``byte_addr`` without touching stats
        (prefetch fills)."""
        line = self.line_of(byte_addr)
        entry_set = self._sets[line % self._n_sets]
        if line in entry_set:
            return
        entry_set.insert(0, line)
        if len(entry_set) > self._assoc:
            entry_set.pop()

    def invalidate(self, byte_addr: int) -> None:
        """Drop the line holding ``byte_addr`` if resident."""
        line = self.line_of(byte_addr)
        entry_set = self._sets[line % self._n_sets]
        try:
            entry_set.remove(line)
        except ValueError:
            pass


class Tlb(LazySets):
    """Set-associative TLB; misses add a fixed fill penalty."""

    def __init__(self, entries: int = 64, assoc: int = 4):
        self._n_sets = entries // assoc
        self._assoc = assoc
        self.accesses = 0
        self.misses = 0

    def access(self, byte_addr: int) -> int:
        """Translation latency contribution: 0 on hit, the fill penalty on miss."""
        page = byte_addr >> _PAGE_SHIFT
        entry_set = self._sets[page % self._n_sets]
        self.accesses += 1
        try:
            entry_set.remove(page)
        except ValueError:
            self.misses += 1
            entry_set.insert(0, page)
            if len(entry_set) > self._assoc:
                entry_set.pop()
            return TLB_MISS_PENALTY
        entry_set.insert(0, page)
        return 0


class MemoryHierarchy:
    """The full hierarchy: split L1s and TLBs over a unified L2 and memory."""

    def __init__(self, config: MachineConfig):
        self.il1 = Cache(config.il1, "il1")
        self.dl1 = Cache(config.dl1, "dl1")
        self.l2 = Cache(config.l2, "l2")
        self.itlb = Tlb()
        self.dtlb = Tlb()
        self.mem_latency = config.mem_latency
        self.il1_prefetcher = NextLinePrefetcher() \
            if config.il1_next_line_prefetch else None
        self.dl1_prefetcher = StridePrefetcher() \
            if config.dl1_stride_prefetch else None

    def _miss_latency(self, byte_addr: int) -> int:
        """Latency beyond L1 for a missing line."""
        if self.l2.access(byte_addr):
            return self.l2.latency
        return self.l2.latency + self.mem_latency

    def fetch_latency(self, pc: int) -> int:
        """Latency of fetching the I$ line containing instruction ``pc``.

        Returns the L1 latency on a hit; the hit latency is pipelined into
        the front end, so the timing core treats only the *extra* cycles as
        a stall.
        """
        byte_addr = pc * INST_BYTES
        latency = self.il1.latency + self.itlb.access(byte_addr)
        if not self.il1.access(byte_addr):
            latency += self._miss_latency(byte_addr)
            if self.il1_prefetcher is not None:
                next_line = self.il1_prefetcher.on_miss(
                    self.il1.line_of(byte_addr))
                next_addr = next_line * self.il1.line_bytes
                self.il1.fill(next_addr)
                self.l2.fill(next_addr)
        return latency

    def ifetch_line(self, pc: int) -> int:
        """The I$ line index of instruction ``pc`` (fetch-group boundaries)."""
        return (pc * INST_BYTES) // self.il1.line_bytes

    def load_latency(self, word_addr: int, pc: int = -1) -> int:
        """Latency of a demand data load (``pc`` trains the prefetcher)."""
        byte_addr = word_addr * DATA_WORD_BYTES
        latency = self.dl1.latency + self.dtlb.access(byte_addr)
        if not self.dl1.access(byte_addr):
            latency += self._miss_latency(byte_addr)
        if self.dl1_prefetcher is not None and pc >= 0:
            target = self.dl1_prefetcher.observe(pc, word_addr)
            if target is not None:
                target_addr = target * DATA_WORD_BYTES
                self.dl1.fill(target_addr)
                self.l2.fill(target_addr)
        return latency

    def store_touch(self, word_addr: int) -> int:
        """Write-allocate a store; returns the fill latency (0 on L1 hit).

        Store misses do not stall commit in the model, but they do perturb
        cache state, which is what later loads observe.
        """
        byte_addr = word_addr * DATA_WORD_BYTES
        latency = self.dtlb.access(byte_addr)
        if not self.dl1.access(byte_addr):
            latency += self._miss_latency(byte_addr)
        return latency
