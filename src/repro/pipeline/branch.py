"""Branch prediction: hybrid bimodal/gshare direction predictor, BTB, RAS.

Matches the Table 1 configuration: a 24Kb hybrid bimodal/gshare direction
predictor (three 4K-entry 2-bit tables: bimodal, gshare, chooser), a
2K-entry 4-way associative BTB for indirect-target prediction, and a
32-entry return address stack.

PCs in the repro ISA are instruction indices; the predictors hash them
directly (there are no low alignment bits to strip).
"""

from __future__ import annotations

from typing import List

from .caches import LazySets, LazyTables
from .config import MachineConfig


class DirectionPredictor(LazyTables):
    """Hybrid bimodal/gshare conditional-branch direction predictor."""

    _LAZY = ("_bimodal", "_gshare", "_chooser")

    def __init__(self, config: MachineConfig):
        self._bim_mask = (1 << config.bimodal_bits) - 1
        self._gsh_mask = (1 << config.gshare_bits) - 1
        self._cho_mask = (1 << config.chooser_bits) - 1
        self._history = 0

    def _build(self) -> None:
        self._bimodal: List[int] = [2] * (self._bim_mask + 1)
        self._gshare: List[int] = [2] * (self._gsh_mask + 1)
        self._chooser: List[int] = [2] * (self._cho_mask + 1)

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""
        bim = self._bimodal[pc & self._bim_mask] >= 2
        gsh = self._gshare[(pc ^ self._history) & self._gsh_mask] >= 2
        use_gshare = self._chooser[pc & self._cho_mask] >= 2
        return gsh if use_gshare else bim

    def update(self, pc: int, taken: bool) -> None:
        """Train all tables with the resolved outcome and shift history."""
        bim_ix = pc & self._bim_mask
        gsh_ix = (pc ^ self._history) & self._gsh_mask
        cho_ix = pc & self._cho_mask
        bim_correct = (self._bimodal[bim_ix] >= 2) == taken
        gsh_correct = (self._gshare[gsh_ix] >= 2) == taken
        if gsh_correct != bim_correct:
            counter = self._chooser[cho_ix]
            self._chooser[cho_ix] = (min(counter + 1, 3) if gsh_correct
                                     else max(counter - 1, 0))
        for table, ix in ((self._bimodal, bim_ix), (self._gshare, gsh_ix)):
            counter = table[ix]
            table[ix] = min(counter + 1, 3) if taken else max(counter - 1, 0)
        self._history = ((self._history << 1) | int(taken)) & self._gsh_mask


class BranchTargetBuffer(LazySets):
    """Set-associative BTB with true-LRU replacement."""

    def __init__(self, config: MachineConfig):
        # Each set is an ordered list of (tag, target); front = MRU.
        self._n_sets = config.btb_entries // config.btb_assoc
        self._assoc = config.btb_assoc

    def lookup(self, pc: int) -> int:
        """Predicted target for ``pc``, or ``-1`` on a BTB miss."""
        entry_set = self._sets[pc % self._n_sets]
        for i, (tag, target) in enumerate(entry_set):
            if tag == pc:
                if i:
                    entry_set.insert(0, entry_set.pop(i))
                return target
        return -1

    def update(self, pc: int, target: int) -> None:
        """Install/refresh the target for ``pc``."""
        entry_set = self._sets[pc % self._n_sets]
        for i, (tag, _) in enumerate(entry_set):
            if tag == pc:
                entry_set.pop(i)
                break
        entry_set.insert(0, (pc, target))
        if len(entry_set) > self._assoc:
            entry_set.pop()


class ReturnAddressStack:
    """Bounded return address stack (overflow discards the oldest entry)."""

    def __init__(self, config: MachineConfig):
        self._capacity = config.ras_entries
        self._stack: List[int] = []

    def push(self, return_pc: int) -> None:
        """Record a call's return address."""
        self._stack.append(return_pc)
        if len(self._stack) > self._capacity:
            self._stack.pop(0)

    def pop(self) -> int:
        """Predicted return target, or ``-1`` if the stack is empty."""
        return self._stack.pop() if self._stack else -1


class BranchUnit:
    """Front-end branch prediction state, queried by the timing core.

    The timing core is trace-driven: it knows each control transfer's
    actual outcome and asks this unit whether the front-end would have
    predicted it. ``predict_and_train`` returns ``True`` when the
    prediction matches reality (no redirect) and trains all structures.
    """

    def __init__(self, config: MachineConfig):
        self.direction = DirectionPredictor(config)
        self.btb = BranchTargetBuffer(config)
        self.ras = ReturnAddressStack(config)
        self.cond_predictions = 0
        self.cond_mispredictions = 0
        self.indirect_predictions = 0
        self.indirect_mispredictions = 0

    def predict_and_train(self, pc: int, is_cond: bool, is_call: bool,
                          is_return: bool, taken: bool,
                          target: int) -> bool:
        """Predict the control transfer at ``pc`` and train; True = correct."""
        if is_cond:
            self.cond_predictions += 1
            predicted_taken = self.direction.predict(pc)
            self.direction.update(pc, taken)
            correct = predicted_taken == taken
            if correct and taken:
                # Direction right; the target of a direct branch still
                # needs a BTB hit to redirect fetch without penalty.
                correct = self.btb.lookup(pc) == target
            self.btb.update(pc, target)
            if not correct:
                self.cond_mispredictions += 1
            return correct
        if is_return:
            self.indirect_predictions += 1
            correct = self.ras.pop() == target
            if not correct:
                self.indirect_mispredictions += 1
            return correct
        # Direct jump or call: predicted via BTB at fetch.
        self.indirect_predictions += 1
        correct = self.btb.lookup(pc) == target
        self.btb.update(pc, target)
        if is_call:
            self.ras.push(pc + 1)
        if not correct:
            self.indirect_mispredictions += 1
        return correct
