"""Serialization-delay attribution: predicted vs. observed induced delay.

The Slack-Profile selector *predicts*, via delay-model rules #1–#4
(:mod:`repro.minigraph.delay_model`), how many cycles aggregation will
delay each mini-graph's outputs — but nothing in the pipeline measured
what each admitted mini-graph actually cost. This module closes that
loop. An :class:`AttributionCollector` attached to the timing core
receives one event per
issued handle with the observed external-serialization delay — the
issue-time delta between the aggregate (which waits for *all* external
inputs, rule #1) and its first constituent's singleton estimate (which
waits only for its own inputs) — plus the propagated consumer-delay
events the core already detects.

Observed delays are aggregated per site and per template and joined
against the delay model's predictions for the same sites, so ``repro
attribution`` can print a predicted-vs-observed table for every selector
(all five: struct-all, struct-none, struct-bounded, slack-profile,
slack-dynamic). A selector that admits serializing mini-graphs
(Struct-All) should show observed serialization the model predicted;
Slack-Profile, which rejects predicted-degrading candidates, should show
the residue the profile could not see.

Attaching the collector no longer forces the Python reference loop: it
advertises ``supports_ckern_tap``, so the compiled kernel records packed
HANDLE/CDELAY events and :meth:`AttributionCollector.ingest_ckern_tap`
rebuilds the same per-site tallies post-hoc, bit-identical to the
in-loop path. Attached next to a run-time policy (Slack-Dynamic, as
:func:`attribute_point` does) it keeps the Python loop: the kernel runs
a policy only with no observer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..minigraph.delay_model import assess
from ..pipeline.ckern import TAP_CDELAY as _TAP_CDELAY, \
    TAP_HANDLE as _TAP_HANDLE

#: The five paper selectors the attribution table covers.
ATTRIBUTION_SELECTORS = ("struct-all", "struct-none", "struct-bounded",
                         "slack-profile", "slack-dynamic")


class _SiteCounts:
    """Observed per-site tallies (internal to the collector)."""

    __slots__ = ("site", "instances", "serialized", "ext_delay_cycles",
                 "consumer_delays")

    def __init__(self, site):
        self.site = site
        self.instances = 0
        self.serialized = 0
        self.ext_delay_cycles = 0
        self.consumer_delays = 0


class AttributionCollector:
    """Receives per-handle issue events from the timing core.

    Attach via ``OoOCore(config, records, attribution=collector)``. The
    collector only *reads* — it never perturbs the simulated schedule —
    and it supports the compiled kernel's event tap, so attribution runs
    stay on the fast path: the kernel logs one HANDLE event per issued
    handle (plus CDELAY events) and :meth:`ingest_ckern_tap` replays
    them into the exact tallies the in-loop callbacks would produce.
    """

    #: The compiled kernel may run with the event tap instead of this
    #: collector's in-loop callbacks (see :meth:`ingest_ckern_tap`).
    supports_ckern_tap = True

    def __init__(self):
        self.by_site: Dict[int, _SiteCounts] = {}
        self.handles_issued = 0

    def _counts(self, site) -> _SiteCounts:
        entry = self.by_site.get(site.id)
        if entry is None:
            entry = self.by_site[site.id] = _SiteCounts(site)
        return entry

    def on_handle_issue(self, site, cycle: int, first_ready: int,
                        last_arrival: int, serialized: bool,
                        sial: bool) -> None:
        """One handle issued.

        ``first_ready`` is when the first constituent's own external
        inputs were ready (its singleton issue estimate); ``last_arrival``
        is when the last external input of the whole mini-graph arrived
        (rule #1's aggregate bound). When the handle is input-bound
        (``serialized``), the difference is the observed induced delay.
        """
        entry = self._counts(site)
        entry.instances += 1
        self.handles_issued += 1
        if serialized:
            entry.serialized += 1
            entry.ext_delay_cycles += max(0, last_arrival - first_ready)

    def on_consumer_delay(self, site) -> None:
        """A serialized handle's output arrival delayed a consumer."""
        self._counts(site).consumer_delays += 1

    def ingest_ckern_tap(self, packed, events, n_words: int,
                         n_committed: int) -> None:
        """Replay HANDLE/CDELAY events from the kernel's packed log.

        The kernel emits one HANDLE event per issued handle instance
        (``a = serialized | sial << 1``, ``b = last_arrival -
        first_ready``) at the exact point ``_execute_handle`` would have
        called :meth:`on_handle_issue`, and one CDELAY event per
        detected consumer delay, carrying the serialized producer
        handle's record index. Tallies are order-independent sums, so
        the result is bit-identical to the in-loop path.
        """
        objs = packed.objs
        handle, cdelay = _TAP_HANDLE, _TAP_CDELAY
        i = 0
        while i < n_words:
            w0 = events[i]
            tag = w0 & 15
            if tag == handle:
                site = objs[w0 >> 4].site
                entry = self._counts(site)
                entry.instances += 1
                self.handles_issued += 1
                if events[i + 1] & 1:  # serialized
                    entry.serialized += 1
                    delta = events[i + 2]
                    if delta > 0:
                        entry.ext_delay_cycles += delta
            elif tag == cdelay:
                self._counts(objs[w0 >> 4].site).consumer_delays += 1
            i += 3


@dataclass
class SiteAttribution:
    """Predicted-vs-observed join for one selected mini-graph site."""

    site_id: int
    template_id: int
    size: int
    frequency: int
    predicted_delay: Optional[float]   # max output delay (rule #3), cycles
    predicted_degrades: Optional[bool]  # rule #4 verdict
    predicted_sial: Optional[bool]      # SIAL heuristic verdict
    instances: int = 0
    serialized: int = 0
    ext_delay_cycles: int = 0
    consumer_delays: int = 0

    @property
    def profiled(self) -> bool:
        """Whether the delay model could assess this site."""
        return self.predicted_delay is not None


@dataclass
class PointAttribution:
    """Attribution result for one (selector, benchmark, config) run."""

    selector: str
    bench: str
    config: str
    cycles: int
    handles_issued: int
    sites: List[SiteAttribution] = field(default_factory=list)

    # -- aggregates -----------------------------------------------------------

    @property
    def instances(self) -> int:
        return sum(s.instances for s in self.sites)

    @property
    def serialized(self) -> int:
        return sum(s.serialized for s in self.sites)

    @property
    def consumer_delays(self) -> int:
        return sum(s.consumer_delays for s in self.sites)

    @property
    def observed_serialized_rate(self) -> float:
        """Fraction of issued handles that were input-serialized."""
        n = self.instances
        return self.serialized / n if n else 0.0

    @property
    def observed_delay_per_handle(self) -> float:
        """Mean observed external-serialization cycles per handle."""
        n = self.instances
        return (sum(s.ext_delay_cycles for s in self.sites) / n
                if n else 0.0)

    @property
    def predicted_serialized_rate(self) -> float:
        """Frequency-weighted share of instances at predicted-SIAL sites."""
        total = sum(s.frequency for s in self.sites if s.profiled)
        if not total:
            return 0.0
        hit = sum(s.frequency for s in self.sites
                  if s.profiled and s.predicted_sial)
        return hit / total

    @property
    def predicted_delay_per_handle(self) -> float:
        """Frequency-weighted mean predicted output delay (cycles)."""
        total = sum(s.frequency for s in self.sites if s.profiled)
        if not total:
            return 0.0
        weighted = sum(s.predicted_delay * s.frequency
                       for s in self.sites if s.profiled)
        return weighted / total

    @property
    def unprofiled_sites(self) -> int:
        return sum(1 for s in self.sites if not s.profiled)


def attribute_point(runner, bench: str, selector_name: str,
                    config) -> PointAttribution:
    """Run one attribution point and join predictions with observations.

    Uses the runner's memoized trace, profile and plan but performs
    the timing run directly (an attribution collector cannot ride a
    memoized result — the event stream is the product). The run is set
    up by :meth:`~repro.harness.runner.Runner.selector_prepared`, which
    gives a Slack-Dynamic point its default run-time policy.
    """
    from ..harness.runner import DEFAULT_INPUT, resolve_profiling
    from ..minigraph.selectors import selector_from_spec

    if selector_name not in ATTRIBUTION_SELECTORS:
        raise ValueError(
            f"unknown selector {selector_name!r} for attribution "
            f"(choose from {', '.join(ATTRIBUTION_SELECTORS)})")
    selector = selector_from_spec({"kind": selector_name})
    plan = runner.plan(bench, selector)
    profile_config, profile_input = resolve_profiling(DEFAULT_INPUT)
    profile = runner.slack_profile(bench, profile_config, profile_input)
    collector = AttributionCollector()
    core, _ = runner.selector_prepared(bench, selector, config,
                                       attribution=collector)
    stats = core.run()

    point = PointAttribution(selector=selector_name, bench=bench,
                             config=config.name, cycles=stats.cycles,
                             handles_issued=collector.handles_issued)
    for site in plan.sites:
        verdict = assess(site.candidate, profile)
        observed = collector.by_site.get(site.id)
        point.sites.append(SiteAttribution(
            site_id=site.id,
            template_id=site.template.id,
            size=site.candidate.size,
            frequency=site.frequency,
            predicted_delay=(verdict.max_output_delay
                             if verdict is not None else None),
            predicted_degrades=(verdict.degrades
                                if verdict is not None else None),
            predicted_sial=(verdict.degrades_sial
                            if verdict is not None else None),
            instances=observed.instances if observed else 0,
            serialized=observed.serialized if observed else 0,
            ext_delay_cycles=observed.ext_delay_cycles if observed else 0,
            consumer_delays=observed.consumer_delays if observed else 0,
        ))
    return point


def run_attribution(runner, benchmarks: Sequence[str],
                    selectors: Sequence[str] = ATTRIBUTION_SELECTORS,
                    config=None, log=None) -> List[PointAttribution]:
    """Attribution matrix over ``benchmarks`` × ``selectors``."""
    from ..pipeline.config import config_by_name
    if config is None:
        config = config_by_name("reduced")
    if not benchmarks:
        raise ValueError("attribution needs at least one benchmark")
    if not selectors:
        raise ValueError("attribution needs at least one selector")
    points = []
    for selector in selectors:
        for bench in benchmarks:
            point = attribute_point(runner, bench, selector, config)
            points.append(point)
            if log is not None:
                log(f"[attr] {selector}/{bench}: "
                    f"{point.instances} handles, "
                    f"{point.observed_serialized_rate:.1%} serialized")
    return points


def render_table(points: Sequence[PointAttribution],
                 per_template: bool = False) -> str:
    """The predicted-vs-observed serialization table.

    One row per (selector, benchmark) plus a per-selector TOTAL row;
    ``per_template`` appends a detail section listing the worst templates
    by observed external-serialization delay.
    """
    header = (f"{'selector':<15s} {'bench':<10s} {'sites':>5s} "
              f"{'handles':>8s} {'pred-ser%':>9s} {'obs-ser%':>9s} "
              f"{'pred-dly':>8s} {'obs-dly':>8s} {'cons-dly':>8s}")
    lines = [header, "-" * len(header)]
    by_selector: Dict[str, List[PointAttribution]] = {}
    for point in points:
        by_selector.setdefault(point.selector, []).append(point)
    for selector, group in by_selector.items():
        for p in group:
            lines.append(
                f"{p.selector:<15s} {p.bench:<10s} {len(p.sites):>5d} "
                f"{p.instances:>8d} {p.predicted_serialized_rate:>9.1%} "
                f"{p.observed_serialized_rate:>9.1%} "
                f"{p.predicted_delay_per_handle:>8.2f} "
                f"{p.observed_delay_per_handle:>8.2f} "
                f"{p.consumer_delays:>8d}")
        instances = sum(p.instances for p in group)
        serialized = sum(p.serialized for p in group)
        ext = sum(s.ext_delay_cycles for p in group for s in p.sites)
        cons = sum(p.consumer_delays for p in group)
        lines.append(
            f"{selector:<15s} {'TOTAL':<10s} "
            f"{sum(len(p.sites) for p in group):>5d} {instances:>8d} "
            f"{'':>9s} "
            f"{serialized / instances if instances else 0.0:>9.1%} "
            f"{'':>8s} {ext / instances if instances else 0.0:>8.2f} "
            f"{cons:>8d}")
        lines.append("")
    if per_template:
        lines.append("worst templates by observed serialization delay:")
        lines.append(f"{'selector':<15s} {'bench':<10s} {'tpl':>5s} "
                     f"{'size':>4s} {'handles':>8s} {'ser':>6s} "
                     f"{'delay':>7s} {'pred':>6s}")
        rows = []
        for p in points:
            by_template: Dict[int, List[SiteAttribution]] = {}
            for s in p.sites:
                by_template.setdefault(s.template_id, []).append(s)
            for tpl_id, sites in by_template.items():
                delay = sum(s.ext_delay_cycles for s in sites)
                if not delay:
                    continue
                pred = any(s.predicted_sial for s in sites if s.profiled)
                rows.append((delay, p.selector, p.bench, tpl_id,
                             sites[0].size,
                             sum(s.instances for s in sites),
                             sum(s.serialized for s in sites), pred))
        rows.sort(reverse=True)
        for delay, selector, bench, tpl, size, inst, ser, pred in rows[:20]:
            lines.append(f"{selector:<15s} {bench:<10s} {tpl:>5d} "
                         f"{size:>4d} {inst:>8d} {ser:>6d} {delay:>7d} "
                         f"{'yes' if pred else 'no':>6s}")
    return "\n".join(lines).rstrip()
