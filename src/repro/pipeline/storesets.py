"""StoreSets memory-dependence predictor (Chrysos & Emer style).

Loads are scheduled aggressively (Table 1): a load may issue before older
stores with unresolved addresses *unless* the predictor says it depends on
one. When aggressive scheduling turns out wrong (an older store to the same
address executes after the load issued), the pipeline is flushed and the
offending load/store pair is trained into a common store set.

The implementation keeps the two classic tables:

* SSIT — store-set ID table, indexed by instruction PC;
* LFST — last fetched store table, indexed by store-set ID, tracking the
  most recent in-flight store of the set.

The timing core consults :meth:`producer_store_for` at load rename time and
calls :meth:`train_violation` when ordering violations are detected.
"""

from __future__ import annotations

from typing import Dict, Optional

from .caches import LazyTables


class StoreSets(LazyTables):
    """Store-set memory dependence predictor."""

    INVALID = -1
    _LAZY = ("_ssit",)

    def __init__(self, n_sets: int = 1024):
        self._mask = n_sets - 1
        if n_sets & self._mask:
            raise ValueError("store-set table size must be a power of two")
        self._next_id = 0
        # store-set id -> sequence number of last renamed store in the set
        self._lfst: Dict[int, int] = {}
        self.violations = 0

    def _build(self) -> None:
        self._ssit = [self.INVALID] * (self._mask + 1)

    def _index(self, pc: int) -> int:
        return pc & self._mask

    # -- rename-time interface ------------------------------------------------

    def rename_store(self, pc: int, seq: int) -> Optional[int]:
        """Record an in-flight store; returns the store it must follow, if any.

        Stores within one set execute in order (the classic LFST chaining),
        which the timing core enforces as a dependence.
        """
        set_id = self._ssit[self._index(pc)]
        if set_id == self.INVALID:
            return None
        previous = self._lfst.get(set_id)
        self._lfst[set_id] = seq
        return previous

    def producer_store_for(self, pc: int) -> Optional[int]:
        """Sequence number of the in-flight store a load must wait for."""
        set_id = self._ssit[self._index(pc)]
        if set_id == self.INVALID:
            return None
        return self._lfst.get(set_id)

    def retire_store(self, pc: int, seq: int) -> None:
        """Clear the LFST entry when the tracked store leaves the window."""
        set_id = self._ssit[self._index(pc)]
        if set_id != self.INVALID and self._lfst.get(set_id) == seq:
            del self._lfst[set_id]

    # -- violation training ----------------------------------------------------

    def train_violation(self, load_pc: int, store_pc: int) -> None:
        """Merge the violating load and store into a common store set."""
        self.violations += 1
        load_ix = self._index(load_pc)
        store_ix = self._index(store_pc)
        load_id = self._ssit[load_ix]
        store_id = self._ssit[store_ix]
        if load_id == self.INVALID and store_id == self.INVALID:
            new_id = self._next_id
            self._next_id += 1
            self._ssit[load_ix] = new_id
            self._ssit[store_ix] = new_id
        elif load_id == self.INVALID:
            self._ssit[load_ix] = store_id
        elif store_id == self.INVALID:
            self._ssit[store_ix] = load_id
        else:
            # Both assigned: merge into the smaller ID (declawed version of
            # the paper's "merge into one set" rule).
            winner = min(load_id, store_id)
            self._ssit[load_ix] = winner
            self._ssit[store_ix] = winner

    def flush(self) -> None:
        """Pipeline flush: no stores remain in flight."""
        self._lfst.clear()
