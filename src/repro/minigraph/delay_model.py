"""The Slack-Profile delay model: rules #1–#4 (Figure 5 of the paper).

Given a singleton execution schedule (the slack profile) the model
computes, for a candidate mini-graph, the issue delay aggregation would
induce on each constituent, and whether the delay on any of the
mini-graph's outputs (register value, store, branch) exceeds that output's
local slack — in which case forming the mini-graph is predicted to degrade
performance.

Rules (verbatim from the paper):

1. *External serialization*:
   ``Issue_MG(0) = MAX over i in mg-inputs (Ready(i), Issue(0))``
2. *Internal serialization*:
   ``Issue_MG(n) = Issue_MG(n-1) + Ex-Lat(n-1)``
3. *Instruction delay*:
   ``Delay_MG(n) = Issue_MG(n) - Issue(n)``
4. *Performance degradation*:
   ``Degrade_MG = OR over i in mg-outputs (Delay_MG(i) > Slack(i))``

Latencies are the optimistic nominal ones (loads assumed to hit), as in the
paper (see the *mcf* footnote in §5.1).
"""

from __future__ import annotations

from array import array
from typing import List, Optional

from ..pipeline import ckern as _ckern
from ..pipeline.ckern import PLAN_MAX_SRC as _PLAN_MAX_SRC
from .candidates import Candidate, _static_columns, candidate_columns
from .slack import SlackProfile

_NEG_INF = float("-inf")

#: Verdict bitmask layout returned by :func:`assess_batch` (must match
#: the bits written by ``repro_score_candidates`` in ``_ckern.c``).
VERDICT_PROFILED = 1
VERDICT_DEGRADES = 2
VERDICT_DELAY_ONLY = 4
VERDICT_SIAL = 8


class DelayAssessment:
    """Outcome of applying the model to one candidate site."""

    __slots__ = ("candidate", "issue_singleton", "issue_mg", "delays",
                 "output_indices", "degrades", "degrades_delay_only",
                 "degrades_sial", "profiled")

    def __init__(self, candidate: Candidate, issue_singleton: List[float],
                 issue_mg: List[float], delays: List[float],
                 output_indices: List[int], degrades: bool,
                 degrades_delay_only: bool, degrades_sial: bool,
                 profiled: bool):
        self.candidate = candidate
        self.issue_singleton = issue_singleton
        self.issue_mg = issue_mg
        self.delays = delays
        self.output_indices = output_indices
        self.degrades = degrades
        self.degrades_delay_only = degrades_delay_only
        self.degrades_sial = degrades_sial
        self.profiled = profiled

    @property
    def max_output_delay(self) -> float:
        if not self.output_indices:
            return 0.0
        return max(self.delays[i] for i in self.output_indices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DelayAssessment [{self.candidate.start},"
                f"{self.candidate.end}) degrade={self.degrades}>")


def assess(candidate: Candidate, profile: SlackProfile,
           delay_tolerance: float = 0.0,
           measured_latencies: bool = False) -> Optional[DelayAssessment]:
    """Apply rules #1–#4 to ``candidate`` under ``profile``.

    Returns ``None`` when the profile does not cover the candidate (its
    code never executed during profiling) — the caller decides how to treat
    unprofiled candidates. ``delay_tolerance`` loosens rule #4: an output
    delay must exceed ``slack + tolerance`` to be flagged.

    ``measured_latencies`` enables the extension the paper leaves as
    future work (the *mcf* footnote of §5.1): rule #2 uses each
    constituent's *profiled* average latency (``out_ready − issue``, which
    includes cache misses) instead of the optimistic nominal latency.
    """
    pcs = list(candidate.pcs)
    if not profile.covers(pcs):
        return None
    entries = [profile.get(pc) for pc in pcs]
    size = candidate.size

    latencies = list(candidate.latencies)
    if measured_latencies:
        for k, entry in enumerate(entries):
            if entry.out_ready is not None:
                observed = entry.out_ready - entry.rel_issue
                if observed > latencies[k]:
                    latencies[k] = observed

    issue_singleton = [entry.rel_issue for entry in entries]

    # Rule #1: the handle waits for every external input.
    ready_values: List[float] = []
    serializing_ready: List[float] = []
    for _, consumer_ix, position in candidate.ext_inputs:
        ready = entries[consumer_ix].src_ready[position]
        value = _NEG_INF if ready is None else ready
        ready_values.append(value)
        if consumer_ix > 0:
            serializing_ready.append(value)
    issue_0 = issue_singleton[0]
    if ready_values:
        issue_0 = max(issue_0, max(ready_values))

    # Rule #2: strictly serial internal execution.
    issue_mg = [0.0] * size
    issue_mg[0] = issue_0
    for n in range(1, size):
        issue_mg[n] = issue_mg[n - 1] + latencies[n - 1]

    # Rule #3: per-constituent induced delay.
    delays = [issue_mg[n] - issue_singleton[n] for n in range(size)]

    # Rule #4: outputs are the register output plus any store or branch.
    output_indices: List[int] = []
    if candidate.output is not None:
        output_indices.append(candidate.output[1])
    for offset, inst in enumerate(candidate.instructions()):
        if inst.is_store or inst.is_branch:
            if offset not in output_indices:
                output_indices.append(offset)
    degrades = False
    for index in output_indices:
        slack = entries[index].slack
        if delays[index] > slack + delay_tolerance:
            degrades = True
            break

    degrades_delay_only = any(delays[i] > delay_tolerance
                              for i in output_indices)

    # SIAL heuristic (Serial Input Arrives Last): reject when the last
    # arriving mg-input feeds a non-first constituent and actually arrives
    # after the first constituent could have issued.
    degrades_sial = False
    if serializing_ready and ready_values:
        last = max(ready_values)
        if last > issue_singleton[0] and max(serializing_ready) >= last:
            degrades_sial = True

    return DelayAssessment(candidate, issue_singleton, issue_mg, delays,
                           output_indices, degrades, degrades_delay_only,
                           degrades_sial, True)


# ---------------------------------------------------------------------
# Native whole-set scoring
# ---------------------------------------------------------------------

class _ProfileColumns:
    """Flat scoring columns of one :class:`SlackProfile` (native input)."""

    __slots__ = ("present", "rel_issue", "src_ready", "slack", "out_ready",
                 "has_out")


def _profile_columns(profile: SlackProfile,
                     n_static: int) -> Optional[_ProfileColumns]:
    cols = _ProfileColumns()
    cols.present = array("b", bytes(n_static))
    cols.rel_issue = array("d", bytes(8 * n_static))
    cols.src_ready = array("d", [_NEG_INF]) * (n_static * _PLAN_MAX_SRC)
    cols.slack = array("d", bytes(8 * n_static))
    cols.out_ready = array("d", bytes(8 * n_static))
    cols.has_out = array("b", bytes(n_static))
    for pc, entry in profile.entries.items():
        if pc >= n_static or len(entry.src_ready) > _PLAN_MAX_SRC:
            return None
        cols.present[pc] = 1
        cols.rel_issue[pc] = entry.rel_issue
        cols.slack[pc] = entry.slack
        if entry.out_ready is not None:
            cols.has_out[pc] = 1
            cols.out_ready[pc] = entry.out_ready
        base = pc * _PLAN_MAX_SRC
        for position, ready in enumerate(entry.src_ready):
            if ready is not None:
                cols.src_ready[base + position] = ready
    return cols


def assess_batch(candidates, profile: SlackProfile,
                 delay_tolerance: float = 0.0,
                 measured_latencies: bool = False) -> Optional[array]:
    """Rules #1–#4 verdicts for a whole candidate set in one C call.

    Returns an ``array('q')`` of per-candidate bitmasks
    (:data:`VERDICT_PROFILED` | :data:`VERDICT_DEGRADES` |
    :data:`VERDICT_DELAY_ONLY` | :data:`VERDICT_SIAL`; ``0`` means the
    profile does not cover the candidate, matching :func:`assess`
    returning None), or None when the kernel is unavailable or the set
    does not fit the packed format — callers then fall back to
    per-candidate :func:`assess`, which computes the identical booleans.
    """
    n = len(candidates)
    if n == 0 or not _ckern.available():
        return None
    cols = candidate_columns(candidates)
    if cols is None:
        return None
    n_cand, c_start, c_end, c_ext, c_out, _c_ser = cols
    program = getattr(candidates, "program", None)
    if program is None:
        program = candidates[0].program
    static = _static_columns(program)
    n_static = len(static.opclass)
    pcols = _profile_columns(profile, n_static)
    if pcols is None:
        return None
    return _ckern.plan_score(
        n_cand, c_start, c_end, c_ext, c_out,
        static.opclass, static.latency,
        pcols.present, pcols.rel_issue, pcols.src_ready, pcols.slack,
        pcols.out_ready, pcols.has_out,
        measured_latencies, delay_tolerance)
