"""Local slack profiling (§4.3 of the paper).

The profiler is the timing simulator itself: a singleton (no mini-graphs)
run on the profiling configuration, with a :class:`SlackCollector` attached
that observes issue times, operand-ready times, and consumer issue times.
Per-static-instruction averages are anchored to the issue time of the
first instruction of the enclosing basic block, exactly as described in
the paper ("a convenient fixed reference point").

*Local slack* of an instruction is the number of cycles its result could
be delayed without delaying any consumer: ``min over consumers of
(consumer issue time − value ready time)``. Correctly-predicted branches
and values with no consumers get the capped slack :data:`SLACK_CAP`;
mispredicted branches get zero slack (their resolution redirects fetch
immediately); stores earn slack through forwarding consumers and ordering
violations.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

from ..isa.program import Program
from ..pipeline import ckern as _ckern
from ..pipeline.ckern import (
    PLAN_MAX_SRC as _PLAN_MAX_SRC,
    TAP_CONSUME as _TAP_CONSUME,
    TAP_ISSUE as _TAP_ISSUE,
    TAP_REDIRECT as _TAP_REDIRECT,
)

SLACK_CAP = 64
NEVER_READY = None  # operand with no in-flight producer: ready long before


class ProfileEntry:
    """Aggregated timing profile of one static instruction."""

    __slots__ = ("pc", "count", "rel_issue", "src_ready", "out_ready",
                 "slack", "min_slack")

    def __init__(self, pc: int, count: int, rel_issue: float,
                 src_ready: Tuple[Optional[float], ...],
                 out_ready: Optional[float], slack: float, min_slack: int):
        self.pc = pc
        self.count = count
        self.rel_issue = rel_issue
        self.src_ready = src_ready
        self.out_ready = out_ready
        self.slack = slack
        self.min_slack = min_slack

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ProfileEntry pc={self.pc} n={self.count} "
                f"issue={self.rel_issue:.1f} slack={self.slack:.1f}>")


class SlackProfile:
    """Per-static-instruction profile for one (program, input, machine)."""

    def __init__(self, program_name: str, config_name: str, input_name: str,
                 entries: Dict[int, ProfileEntry]):
        self.program_name = program_name
        self.config_name = config_name
        self.input_name = input_name
        self.entries = entries

    def get(self, pc: int) -> Optional[ProfileEntry]:
        """The entry for static instruction ``pc``, or None."""
        return self.entries.get(pc)

    def covers(self, pcs) -> bool:
        """True when every pc in ``pcs`` was executed in the profile run."""
        return all(pc in self.entries for pc in pcs)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SlackProfile {self.program_name}@{self.config_name}"
                f"/{self.input_name}: {len(self.entries)} pcs>")


class _Accumulator:
    __slots__ = ("count", "issue_sum", "src_sum", "src_count", "out_sum",
                 "out_count", "slack_sum", "min_slack")

    def __init__(self, n_src: int):
        self.count = 0
        self.issue_sum = 0
        self.src_sum = [0] * n_src
        self.src_count = [0] * n_src
        self.out_sum = 0
        self.out_count = 0
        self.slack_sum = 0
        self.min_slack = SLACK_CAP


class SlackCollector:
    """Timing-core observer that builds a :class:`SlackProfile`.

    The core invokes :meth:`on_consume` whenever an instruction issues and
    consumes a producer's value (including store→load forwarding),
    :meth:`on_redirect` when a mispredicted control transfer redirects
    fetch, and :meth:`on_commit` for every committed singleton.

    Attaching a collector no longer forces the Python reference loop:
    ``supports_ckern_tap`` tells the core the same profile can be rebuilt
    post-hoc from the compiled kernel's packed event log via
    :meth:`ingest_ckern_tap`, bit-identical to the in-loop path (the
    parity suite in ``tests/pipeline/test_event_tap.py`` gates this).
    """

    #: The compiled kernel may run with the event tap instead of this
    #: collector's in-loop callbacks (see :meth:`ingest_ckern_tap`).
    supports_ckern_tap = True

    def __init__(self, program: Program, config_name: str = "",
                 input_name: str = "default"):
        self.program = program
        self.config_name = config_name
        self.input_name = input_name
        self._leaders = {block.start for block in program.basic_blocks()}
        self._anchor = 0
        self._acc: Dict[int, _Accumulator] = {}
        # Packed SoA accumulator from the native one-call profile build
        # (ckern.profile_build); exactly one of _acc / _packed_acc holds
        # data — profile() reads whichever path ran.
        self._packed_acc = None
        # Per-dynamic-producer minimum consumer slack, keyed by uop identity.
        self._pending_slack: Dict[int, int] = {}
        self._committed: List = []
        self._finished = False

    # -- core callbacks -----------------------------------------------------

    def on_consume(self, producer, consumer, cycle: int) -> None:
        """A consumer issued at ``cycle`` using ``producer``'s value."""
        ready = producer.out_actual_ready
        if ready >= (1 << 50):  # producer without a register value (store)
            ready = producer.store_resolve_cycle
        sample = cycle - ready
        key = id(producer)
        previous = self._pending_slack.get(key)
        if previous is None or sample < previous:
            self._pending_slack[key] = sample

    def on_redirect(self, uop, resolve_cycle: int) -> None:
        """A mispredicted transfer redirected fetch: zero slack."""
        # A mispredicted control transfer: any delay to its resolution
        # delays the redirect cycle-for-cycle — zero slack.
        self._pending_slack[id(uop)] = 0

    def on_commit(self, uop) -> None:
        """Aggregate issue/ready times for a committed singleton."""
        pc = uop.pc
        rec = uop.rec
        acc = self._acc.get(pc)
        if acc is None:
            acc = _Accumulator(len(rec.srcs))
            self._acc[pc] = acc
        anchor = self._anchor
        if pc in self._leaders:
            anchor = self._anchor = uop.issue_cycle
        acc.count += 1
        acc.issue_sum += uop.issue_cycle - anchor
        by_reg = {p.rec.rd: p for p in uop.producers}
        for position, src in enumerate(rec.srcs):
            producer = by_reg.get(src)
            if producer is not None:
                ready = producer.out_actual_ready
                if ready < (1 << 50):
                    acc.src_sum[position] += ready - anchor
                    acc.src_count[position] += 1
        if uop.writes:
            acc.out_sum += uop.out_actual_ready - anchor
            acc.out_count += 1
        self._committed.append(uop)

    def on_finish(self) -> None:
        """Finalize per-instance slack samples (min over consumers)."""
        if self._finished:
            return
        self._finished = True
        for uop in self._committed:
            sample = self._pending_slack.get(id(uop))
            if sample is None:
                sample = SLACK_CAP
            else:
                sample = max(0, min(sample, SLACK_CAP))
            acc = self._acc[uop.pc]
            acc.slack_sum += sample
            if sample < acc.min_slack:
                acc.min_slack = sample

    # -- post-hoc decode of the compiled kernel's event tap -----------------

    def ingest_ckern_tap(self, packed, events, n_words: int,
                         n_committed: int) -> None:
        """Rebuild the profile from the kernel's packed event log.

        ``events`` is a ``repro_run_batch`` point's tap ``array('q')``:
        ``n_words`` valid int64 words of ``(ix << 4) | tag, a, b``
        triples in simulation order. The decode mirrors the in-loop
        callbacks exactly:

        * an ISSUE event opens a fresh per-instance slack cell for its
          static record (re-issue after a squash orphans the old cell,
          just as a refetched ``Uop`` gets a fresh ``id()``);
        * CONSUME events fold ``cycle - ready`` samples into the
          producer's open cell (the kernel already applied the
          store-resolve fallback when computing the sample);
        * REDIRECT zeroes the cell (mispredicted transfers have no
          slack);
        * commit aggregation replays trace order over the committed
          prefix — commits retire in trace order, so the committed
          instances are exactly the last-issued instances of the first
          ``n_committed`` records — resolving each source position
          against the architecturally latest earlier writer, which is
          precisely what ``reg_map``-based producer links resolve to at
          the final rename of a committed instruction.

        Sums of ints and mins are order-independent, so the result is
        bit-identical to the Python observer path, profile for profile.
        :func:`~repro.pipeline.ckern.profile_build` runs the whole decode
        in one C call; when it declines, the pure-Python reference below
        runs both passes.
        """
        if self._finished:
            return
        self._finished = True
        if not self._acc:
            # Preferred path: one C call fuses the event fold with the
            # commit-prefix aggregation and hands back dense SoA columns
            # (bit-identical: int sums, same order, same clamps). Any
            # failure (REPRO_PURE_PY, no compiler, unsupported shape,
            # RC_NOMEM) returns None and the reference decode below runs
            # instead.
            n_static = len(self.program)
            is_leader = array("b", bytes(n_static))
            for pc in self._leaders:
                if 0 <= pc < n_static:
                    is_leader[pc] = 1
            native = _ckern.profile_build(
                events, n_words, n_committed, packed, is_leader,
                n_static, self._anchor, SLACK_CAP)
            if native is not None:
                self._packed_acc = native
                self._anchor = native.anchor
                return
        n = packed.n
        none = 1 << 62
        cells = array("q", [none]) * n
        issue_cycle = array("q", bytes(8 * n))
        out_ready = array("q", [1 << 60]) * n
        i = 0
        while i < n_words:
            w0 = events[i]
            a = events[i + 1]
            b = events[i + 2]
            i += 3
            tag = w0 & 15
            ix = w0 >> 4
            if tag == _TAP_CONSUME:
                if a < cells[ix]:
                    cells[ix] = a
            elif tag == _TAP_ISSUE:
                cells[ix] = none
                issue_cycle[ix] = a
                out_ready[ix] = b
            elif tag == _TAP_REDIRECT:
                cells[ix] = 0
            # HANDLE / CDELAY events belong to the attribution decode.

        kinds = packed.kind
        pcs = packed.pc
        rds = packed.rd
        srcs = packed.srcs
        starts = packed.srcs_start
        leaders = self._leaders
        acc_map = self._acc
        anchor = self._anchor
        last_writer = [-1] * 32
        cap = SLACK_CAP
        big = 1 << 50
        for ix in range(n_committed):
            rd = rds[ix]
            if kinds[ix]:
                # Committed handles update the architectural last-writer
                # map but are profiled by the attribution decode, not
                # here (on_commit only ever saw singletons).
                if rd >= 0:
                    last_writer[rd] = ix
                continue
            pc = pcs[ix]
            s0 = starts[ix]
            s1 = starts[ix + 1]
            acc = acc_map.get(pc)
            if acc is None:
                acc = _Accumulator(s1 - s0)
                acc_map[pc] = acc
            if pc in leaders:
                anchor = issue_cycle[ix]
            acc.count += 1
            acc.issue_sum += issue_cycle[ix] - anchor
            src_sum = acc.src_sum
            src_count = acc.src_count
            for position in range(s1 - s0):
                src = srcs[s0 + position]
                if src == 0:
                    continue
                writer = last_writer[src]
                if writer < 0:
                    continue
                ready = out_ready[writer]
                if ready < big:
                    src_sum[position] += ready - anchor
                    src_count[position] += 1
            if rd >= 0:
                acc.out_sum += out_ready[ix] - anchor
                acc.out_count += 1
                last_writer[rd] = ix
            # on_finish, inline: clamp this instance's slack sample.
            sample = cells[ix]
            if sample == none:
                sample = cap
            elif sample < 0:
                sample = 0
            elif sample > cap:
                sample = cap
            acc.slack_sum += sample
            if sample < acc.min_slack:
                acc.min_slack = sample
        self._anchor = anchor

    # -- output ---------------------------------------------------------------

    def profile(self) -> SlackProfile:
        """The aggregated slack profile (requires the run to have finished)."""
        if not self._finished:
            self.on_finish()
        entries: Dict[int, ProfileEntry] = {}
        pk = self._packed_acc
        if pk is not None:
            # Rehydrate from the native SoA columns. `order` lists pcs
            # in first-commit order — the same iteration order as the
            # reference `_acc` dict — and every division below is the
            # identical single int/int division the reference performs,
            # so the resulting profile pickles byte-for-byte the same.
            stride = _PLAN_MAX_SRC
            for k in range(pk.n_order):
                pc = pk.order[k]
                count = pk.count[pc]
                base = pc * stride
                src_ready = tuple(
                    (pk.src_sum[base + i] / pk.src_count[base + i])
                    if pk.src_count[base + i] else NEVER_READY
                    for i in range(pk.n_src[pc]))
                out_ready = (pk.out_sum[pc] / pk.out_count[pc]
                             if pk.out_count[pc] else None)
                entries[pc] = ProfileEntry(
                    pc, count, pk.issue_sum[pc] / count, src_ready,
                    out_ready, pk.slack_sum[pc] / count, pk.min_slack[pc])
            return SlackProfile(self.program.name, self.config_name,
                                self.input_name, entries)
        for pc, acc in self._acc.items():
            count = acc.count
            src_ready = tuple(
                (acc.src_sum[i] / acc.src_count[i])
                if acc.src_count[i] else NEVER_READY
                for i in range(len(acc.src_sum)))
            out_ready = (acc.out_sum / acc.out_count
                         if acc.out_count else None)
            entries[pc] = ProfileEntry(
                pc, count, acc.issue_sum / count, src_ready, out_ready,
                acc.slack_sum / count, acc.min_slack)
        return SlackProfile(self.program.name, self.config_name,
                            self.input_name, entries)
