"""Pareto reduction: dominated-point pruning over trial objectives.

The tuner's result is not one winner but a frontier: the set of trials
no other trial beats on *every* objective. Objectives carry a sense —
coverage and relative IPC are maximized, read-port demand is minimized
— and a trial dominates another when it is at least as good everywhere
and strictly better somewhere. The frontier is exactly the undominated
set, so by construction it can contain no dominated point (the property
the test suite checks directly).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

#: ``(attribute, sense)`` pairs over :class:`~repro.tune.evaluate.TrialEval`.
OBJECTIVES: Tuple[Tuple[str, str], ...] = (
    ("coverage", "max"),
    ("ipc_norm", "max"),
    ("read_ports", "min"),
)


def _vector(entry, objectives) -> Tuple[float, ...]:
    """Objective values oriented so that *larger is always better*."""
    values = []
    for name, sense in objectives:
        value = getattr(entry, name) if hasattr(entry, name) \
            else entry[name]
        values.append(value if sense == "max" else -value)
    return tuple(values)


def dominates(a, b, objectives: Sequence[Tuple[str, str]] = OBJECTIVES
              ) -> bool:
    """Whether ``a`` Pareto-dominates ``b``."""
    va, vb = _vector(a, objectives), _vector(b, objectives)
    return all(x >= y for x, y in zip(va, vb)) and va != vb


def pareto_front(entries: Sequence,
                 objectives: Sequence[Tuple[str, str]] = OBJECTIVES
                 ) -> Tuple[List, List]:
    """Split entries into ``(frontier, dominated)``.

    Entries with identical objective vectors all stay on the frontier
    (they are genuinely interchangeable, and dropping one would make
    the output depend on input order). Both lists preserve input order.
    """
    frontier, dominated = [], []
    for entry in entries:
        if any(dominates(other, entry, objectives)
               for other in entries if other is not entry):
            dominated.append(entry)
        else:
            frontier.append(entry)
    return frontier, dominated


def crowding_order(frontier: Sequence,
                   objectives: Sequence[Tuple[str, str]] = OBJECTIVES
                   ) -> List:
    """Frontier sorted for reporting: best relative IPC first.

    Ties broken by coverage, then read-port demand, then trial id, so
    tables are stable across runs and platforms.
    """
    def key(entry):
        vec = _vector(entry, objectives)
        names = [name for name, _ in objectives]
        ipc = vec[names.index("ipc_norm")] if "ipc_norm" in names else 0.0
        return (-ipc, tuple(-v for v in vec),
                getattr(entry, "trial_id", ""))
    return sorted(frontier, key=key)

