"""Figure 8: exhaustive limit study over 10 mini-graph candidates.

Mini-graph selection is non-decomposable, so a full limit study is
infeasible (§5.4); the paper instead takes the 10 most frequent
non-overlapping static mini-graph candidates of the ADPCM coder, evaluates
all 2^10 = 1024 subsets exhaustively on the reduced machine, and places
each selector's choice on the resulting coverage/performance scatter.

The sweep is evaluated, scheduled and stored in chunks of :data:`CHUNK`
consecutive masks: each chunk is one ``subset`` artifact and, on a
process pool, one task.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..minigraph.dynamic import SlackDynamicPolicy
from ..minigraph.selection import MiniGraphPlan
from ..minigraph.selectors import (
    FixedSetSelector, Selector, SlackProfileSelector, StructAll,
    StructBounded, StructNone, make_plan,
)
from ..minigraph.templates import MGSite
# Not called here, but benchmarks/e2e/spans.py patches this name.
from ..minigraph.templates import build_templates
from ..minigraph.transform import fold_trace
from ..pipeline.config import MachineConfig, reduced_config
from ..pipeline.core import OoOCore
from ..harness.runner import Runner

#: Masks per chunk of the sweep, each chunk one ``subset`` artifact and
#: one pool task: the full 2^10 sweep is 16 chunks.
CHUNK = 64


@dataclass
class SubsetPoint:
    """One evaluated mini-graph subset."""

    mask: int
    coverage: float
    relative_ipc: float

    def members(self) -> List[int]:
        """Candidate indices present in this subset's bitmask."""
        return [i for i in range(self.mask.bit_length())
                if self.mask >> i & 1]


@dataclass
class LimitStudyResult:
    """Scatter points plus each selector's position."""

    bench: str
    input_name: str
    candidate_sites: List[MGSite] = field(default_factory=list)
    points: List[SubsetPoint] = field(default_factory=list)
    selector_points: Dict[str, SubsetPoint] = field(default_factory=dict)

    @property
    def best(self) -> SubsetPoint:
        return max(self.points, key=lambda p: p.relative_ipc)

    @property
    def empty_set(self) -> SubsetPoint:
        return next(p for p in self.points if p.mask == 0)

    def render(self) -> str:
        """Text table: the exhaustive best plus each selector's point."""
        lines = [f"=== FIG8 limit study: {self.bench}/{self.input_name} ===",
                 f"{len(self.points)} subsets evaluated over "
                 f"{len(self.candidate_sites)} candidates",
                 f"{'set':>22s} {'mask':>12s} {'coverage':>9s} "
                 f"{'rel perf':>9s}"]
        best = self.best
        lines.append(f"{'exhaustive best':>22s} {best.members()!s:>12s} "
                     f"{best.coverage:9.3f} {best.relative_ipc:9.3f}")
        for name, point in self.selector_points.items():
            lines.append(f"{name:>22s} {point.members()!s:>12s} "
                         f"{point.coverage:9.3f} {point.relative_ipc:9.3f}")
        return "\n".join(lines)


def top_nonoverlapping_sites(runner: Runner, bench: str, input_name: str,
                             count: int = 10) -> List[MGSite]:
    """The ``count`` most frequent, mutually non-overlapping candidates,
    ranked from the runner's hoisted template sites, which every mask's
    plan shares (:func:`_mask_planner`)."""
    counts = runner.trace(bench, input_name).dynamic_count_of()
    candidates = runner.candidates(bench, input_name)
    hoisted = runner._hoisted_sites(runner._bench(bench).name, input_name,
                                    input_name, candidates, counts)
    sites = sorted(hoisted, key=lambda s: (-s.score_contribution, s.start))
    chosen: List[MGSite] = []
    for site in sites:
        if len(chosen) == count:
            break
        if any(site.start < c.end and c.start < site.end for c in chosen):
            continue
        if site.frequency == 0:
            continue
        chosen.append(site)
    chosen.sort(key=lambda s: s.start)
    return chosen


def _mask_planner(runner: Runner, bench: str, input_name: str,
                  sites: List[MGSite],
                  trace) -> Callable[[int], MiniGraphPlan]:
    """``plan(mask)``: the plan admitting exactly the ``mask`` subset of
    ``sites``, with the program, counts, candidates and hoisted sites
    looked up once for every mask it plans.

    Template grouping is mask-independent, so every subset plans over
    the runner's hoisted sites (``FixedSetSelector`` matches on
    ``site.id``, which hoisting keeps): the plan is bit-identical to
    one grouped afresh.
    """
    bench_obj = runner._bench(bench)
    program = bench_obj.program(input_name)
    counts = trace.dynamic_count_of()
    candidates = runner.candidates(bench, input_name)
    hoisted = runner._hoisted_sites(bench_obj.name, input_name, input_name,
                                    candidates, counts)

    def plan(mask: int) -> MiniGraphPlan:
        allowed = {site.id for i, site in enumerate(sites)
                   if mask >> i & 1}
        return make_plan(program, counts, FixedSetSelector(allowed),
                         budget=runner.budget, candidates=candidates,
                         sites=hoisted)

    return plan


def subset_plan(runner: Runner, bench: str, input_name: str,
                sites: List[MGSite], mask: int) -> MiniGraphPlan:
    """The plan admitting exactly the ``mask`` subset of ``sites``."""
    return _mask_planner(runner, bench, input_name, sites,
                         runner.trace(bench, input_name))(mask)


def _evaluate_masks(runner: Runner, bench: str, input_name: str,
                    config: MachineConfig, sites: List[MGSite],
                    masks: Iterable[int], baseline_ipc: float,
                    policy=None) -> List[SubsetPoint]:
    """Plan, fold and time each mask in turn, one core at a time."""
    trace = runner.trace(bench, input_name)
    plan = _mask_planner(runner, bench, input_name, sites, trace)
    points = []
    for mask in masks:
        records = fold_trace(trace, plan(mask))
        stats = OoOCore(config, records, policy=policy,
                        warm_caches=runner.warm_caches).run()
        points.append(SubsetPoint(mask, stats.coverage,
                                  stats.ipc / baseline_ipc))
    return points


def evaluate_chunk_cached(runner: Runner, bench: str, input_name: str,
                          config: MachineConfig, n_candidates: int,
                          first: int, count: int, baseline_ipc: float,
                          sites: Optional[List[MGSite]] = None
                          ) -> List[SubsetPoint]:
    """Store-backed evaluation of masks ``first`` to ``first + count - 1``:
    the durable form of one chunk of Figure 8 scatter points, in mask
    order.

    Keyed via :meth:`Runner.subset_params` (full machine sizing, chunk,
    candidate count, normalization baseline, runner knobs), so finished
    chunks survive process death: rerunning a killed study, or
    repeating a sweep, over the same cache directory recomputes none of
    them. ``sites`` skips the candidate ranking when the caller already
    holds it.
    """
    params = runner.subset_params(bench, input_name, config, n_candidates,
                                  first, count, baseline_ipc)

    def compute() -> List[SubsetPoint]:
        ranked = sites if sites is not None else top_nonoverlapping_sites(
            runner, bench, input_name, n_candidates)
        return _evaluate_masks(runner, bench, input_name, config, ranked,
                               range(first, first + count), baseline_ipc)

    return runner.store.get_or_compute("subset", params, compute)


def _selector_mask(plan_sites: List[MGSite], sites: List[MGSite]) -> int:
    chosen_ids = {site.id for site in plan_sites}
    mask = 0
    for i, site in enumerate(sites):
        if site.id in chosen_ids:
            mask |= 1 << i
    return mask


def _compute_missing_chunks(runner: Runner, bench: str, input_name: str,
                            config: MachineConfig, n_candidates: int,
                            chunks: List[Tuple[int, int]],
                            baseline_ipc: float, jobs: int) -> None:
    """Evaluate the chunks the store lacks on a pool of ``jobs`` workers.

    One ``run_subset`` task per missing chunk. Workers inherit through
    the fork the program the caller built in
    :func:`top_nonoverlapping_sites`, but not its runner: each worker's
    own runner computes the trace and candidates, once per worker
    process, and publishes each chunk to the persistent store. A chunk
    whose task failed stays missing, for the caller's read to
    recompute; a warm store starts no pool.
    """
    from ..exec import tasks as task_fns
    from ..exec.dag import Scheduler, Task

    base = task_fns.runner_params(runner)
    store = runner.store
    missing = []
    for first, count in chunks:
        params = runner.subset_params(bench, input_name, config,
                                      n_candidates, first, count,
                                      baseline_ipc)
        if store.contains(store.key("subset", params), "subset"):
            continue
        missing.append(Task(
            id=f"subset/{bench}/{input_name}/{first}+{count}",
            fn=task_fns.run_subset,
            args=(dict(base, bench=bench, input=input_name,
                       config=config.name, n_candidates=n_candidates,
                       first=first, count=count,
                       baseline_ipc=baseline_ipc),),
            stage="subset"))
    if missing:
        Scheduler(jobs=jobs).run(missing, raise_on_failure=False)


def run_limit_study(runner: Optional[Runner] = None, bench: str = "adpcm",
                    input_name: str = "tiny",
                    config: Optional[MachineConfig] = None,
                    n_candidates: int = 10,
                    subset_cap: Optional[int] = None,
                    jobs: int = 1) -> LimitStudyResult:
    """Exhaustively evaluate mini-graph subsets and place the selectors.

    ``subset_cap`` truncates the exhaustive sweep (tests use small caps);
    the full Figure 8 sweep needs ``2 ** n_candidates`` evaluations.
    A cap below 1 raises :class:`ValueError` before any work, and so
    does ``jobs > 1`` without a persistent artifact store on ``runner``
    (:func:`~repro.exec.grid.require_pool_store`).
    The sweep is read chunk by chunk through the store
    (:func:`evaluate_chunk_cached`). With ``jobs > 1`` and a *named*
    machine configuration the chunks the store lacks are first computed
    on worker processes; results are identical to the serial path.
    """
    from ..exec.grid import require_pool_store
    if subset_cap is not None and subset_cap < 1:
        raise ValueError(f"subset_cap must be >= 1, got {subset_cap}")
    runner = runner or Runner()
    require_pool_store(runner, jobs)
    config = config or reduced_config()
    sites = top_nonoverlapping_sites(runner, bench, input_name,
                                     n_candidates)
    result = LimitStudyResult(bench, input_name, candidate_sites=sites)

    # Normalize against the fully-provisioned machine without mini-graphs.
    from ..pipeline.config import NAMED_CONFIGS, full_config
    baseline_ipc = runner.baseline(bench, full_config(), input_name).ipc

    def chunk(first: int, count: int) -> List[SubsetPoint]:
        return evaluate_chunk_cached(runner, bench, input_name, config,
                                     n_candidates, first, count,
                                     baseline_ipc, sites=sites)

    n_subsets = 1 << len(sites)
    if subset_cap is not None:
        n_subsets = min(n_subsets, subset_cap)
    chunks = [(first, min(CHUNK, n_subsets - first))
              for first in range(0, n_subsets, CHUNK)]
    if jobs > 1 and config.name in NAMED_CONFIGS:
        _compute_missing_chunks(runner, bench, input_name, config,
                                n_candidates, chunks, baseline_ipc, jobs)
    for first, count in chunks:
        result.points.extend(chunk(first, count))

    # Place each static selector: its pool restricted to the 10 candidates.
    profile = runner.slack_profile(bench, config, input_name)
    static_selectors: List[Selector] = [
        StructAll(), StructNone(), StructBounded(), SlackProfileSelector()]
    by_mask = {p.mask: p for p in result.points}
    for selector in static_selectors:
        pool = selector.build_pool(sites, profile)
        mask = _selector_mask(pool, sites)
        point = by_mask.get(mask)
        if point is None:          # outside a capped sweep
            point, = chunk(mask, 1)
        result.selector_points[selector.name] = point

    # Slack-Dynamic starts from the full set and disables at run time.
    policy = SlackDynamicPolicy()
    full_mask = (1 << len(sites)) - 1
    dynamic_point, = _evaluate_masks(runner, bench, input_name, config,
                                     sites, [full_mask], baseline_ipc,
                                     policy=policy)
    enabled_mask = 0
    for i, site in enumerate(sites):
        if not policy.is_disabled(site):
            enabled_mask |= 1 << i
    result.selector_points["slack-dynamic"] = SubsetPoint(
        enabled_mask, dynamic_point.coverage, dynamic_point.relative_ipc)
    return result
