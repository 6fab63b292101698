"""Search strategies: which trials run, in what order, at what length.

Three strategies, all deterministic functions of (space, seed):

* ``grid`` — exhaustive: every enumerated trial, in enumeration order.
* ``random`` — a seeded sample without replacement; ``n`` caps the
  trial count (a larger ``n`` keeps the smaller sample as its prefix,
  so raising ``--trials`` only *adds* work on a warm store).
* ``halving`` — successive halving: all trials start on a short trace
  (a fraction of ``max_insts``); each rung promotes the top ``1/eta``
  by relative IPC to a longer trace until the survivors get the full
  evaluation. Cheap rungs prune the space before expensive ones.

Strategies only *plan*; the tuner owns evaluation.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from .space import Trial

STRATEGIES = ("grid", "random", "halving")


def plan_grid(trials: Sequence[Trial]) -> List[Trial]:
    """Exhaustive search: everything, in enumeration order."""
    return list(trials)


def plan_random(trials: Sequence[Trial], seed: int,
                n: int) -> List[Trial]:
    """Seeded sample of ``n`` trials without replacement.

    The sample is *incremental in n*: a shuffled order is drawn once
    from the seed and ``n`` takes its prefix, so ``--trials 4`` and
    ``--trials 8`` on the same seed agree on the first four.
    """
    if n < 1:
        raise ValueError(f"random strategy needs trials >= 1, got {n}")
    order = sorted(trials, key=lambda t: t.trial_id)
    random.Random(seed).shuffle(order)
    return order[:min(n, len(order))]


def halving_rungs(max_insts: int, eta: int = 2,
                  min_insts: int = 50_000) -> List[int]:
    """Geometric ``max_insts`` schedule ending at the full budget.

    ``[max_insts / eta^k, ..., max_insts / eta, max_insts]`` with the
    first rung clamped to ``min_insts`` — short traces are only worth
    scheduling while they stay meaningfully cheaper than the full one.
    """
    if eta < 2:
        raise ValueError(f"halving eta must be >= 2, got {eta}")
    rungs = [max_insts]
    while rungs[0] // eta >= max(1, min_insts):
        rungs.insert(0, rungs[0] // eta)
    return rungs


def survivors(ranked: Sequence[Trial], eta: int) -> List[Trial]:
    """The top ``ceil(n / eta)`` of an already-ranked rung population."""
    keep = max(1, -(-len(ranked) // eta))
    return list(ranked[:keep])
