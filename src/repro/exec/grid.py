"""Experiment grids as deduplicated task DAGs.

A figure regeneration is a set of :class:`Point`\\ s — (benchmark ×
selector × machine) timing runs plus their baselines. Each point expands
into the pipeline chain ``trace → [profile] → candidates → plan →
timing``, but the upstream nodes are shared: every selector on a
benchmark reuses one trace and one candidate enumeration, every
slack selector on the same profiling machine reuses one profile, and the
full-machine baseline every figure normalizes against exists exactly
once. :func:`build_tasks` performs that deduplication by constructing
deterministic task ids from the parameters themselves.

:func:`run_points` schedules only the nodes whose output is missing and
needed (:func:`prune_cached`), executes them with a
:class:`~repro.exec.dag.Scheduler` in the caller's runner, and
afterwards the caller reads each point back with :func:`point_result`
and finds every artifact already present — parallelism without a second
code path, and bit-identical results for any ``--jobs`` value.

This module is the only code that turns a :class:`Point` into Runner
arguments: :func:`point_result` (the memoized run),
:func:`point_address` (its store address), :func:`point_prepared` (its
un-run core for batched dispatch), :func:`point_plan` and
:func:`plan_address` (a selector point's plan and its store address)
and :func:`build_tasks` share one resolution of the point's machine,
selector, profiling machine and input
(:func:`~repro.harness.runner.resolve_profiling`), and policy. Every
node that serves a point carries it in its spec: a baseline or timing
node under ``point``, a plan node under ``plan`` and a check node
under ``check``, so no two nodes' specs are equal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..harness.runner import resolve_profiling
from ..minigraph.selectors import selector_from_spec
from . import tasks as task_fns
from .dag import ExecReport, Scheduler, Task

Spec = Tuple[Tuple[str, Any], ...]


def parse_jobs(spec) -> Tuple[int, int]:
    """``--jobs`` value → ``(jobs, threads)``.

    ``"4"`` (or ``4``) is the classic process fan-out: ``(4, 0)``.
    ``"threads:8"`` selects batched native dispatch — ``(1, 8)``: the
    scheduler stays serial and in-process, but each wave of ready
    timing nodes becomes one ``repro_run_batch`` call over 8 C threads
    (see :mod:`repro.exec.batch`). Bare ``"threads"`` uses one thread
    per CPU.

    Zero, negative, and malformed values raise :class:`ValueError` with
    a message the CLIs print verbatim as their one-line error.
    """
    def _positive(text: str, what: str) -> int:
        try:
            count = int(text)
        except ValueError:
            raise ValueError(
                f"bad --jobs value {str(spec)!r}: {what} {text!r} is not "
                f"an integer (expected N, threads, or threads:N)") from None
        if count < 1:
            raise ValueError(f"bad --jobs value {str(spec)!r}: "
                             f"{what} must be >= 1")
        return count

    if isinstance(spec, int) and not isinstance(spec, bool):
        if spec < 1:
            raise ValueError(f"bad --jobs value {spec!r}: "
                             "job count must be >= 1")
        return spec, 0
    text = str(spec).strip()
    if text == "threads":
        import os
        return 1, max(1, os.cpu_count() or 1)
    if text.startswith("threads:"):
        return 1, _positive(text.split(":", 1)[1], "thread count")
    return _positive(text, "job count"), 0


def _freeze(spec: Optional[Dict[str, Any]]) -> Spec:
    return tuple(sorted((spec or {}).items(),
                        key=lambda item: item[0]))


def _sel_tag(selector: Dict[str, Any]) -> str:
    """Task-id fragment for a selector spec: readable *and* injective.

    :func:`build_tasks` deduplicates by task id, so two selectors that
    differ in any hyperparameter must map to distinct tags — otherwise
    one of their plan/check/timing nodes is silently dropped. The kind
    (plus variant, where present) keeps ids readable; a short digest of
    the full canonical spec covers every other knob (``unprofiled_ok``,
    the read-port hyperparameters, ``fixed-set`` site lists, ...).
    """
    import hashlib
    import json
    tag = selector["kind"] if "variant" not in selector \
        else f"{selector['kind']}-{selector['variant']}"
    extras = {key: value for key, value in selector.items()
              if key not in ("kind", "variant")}
    if not extras:
        return tag
    canonical = json.dumps(selector, sort_keys=True,
                           separators=(",", ":")).encode()
    return f"{tag}-{hashlib.sha1(canonical).hexdigest()[:8]}"


def _thaw(spec: Spec) -> Dict[str, Any]:
    return {key: value for key, value in spec}


@dataclass(frozen=True)
class Point:
    """One experiment grid point (hashable, JSON-friendly fields only)."""

    kind: str                      # "baseline" | "selector" | "slack-dynamic"
    bench: str
    config: str                    # named machine configuration
    input_name: str = "train"
    selector: Spec = ()            # Selector.spec() items
    profile_config: Optional[str] = None
    profile_input: Optional[str] = None
    global_slack: bool = False
    policy: Spec = ()              # slack-dynamic kwargs items


def baseline_point(bench: str, config: str,
                   input_name: str = "train") -> Point:
    """A singleton (no mini-graphs) timing run."""
    return Point("baseline", bench, config, input_name)


def selector_point(bench: str, selector, config: str,
                   input_name: str = "train",
                   profile_config: Optional[str] = None,
                   profile_input: Optional[str] = None,
                   global_slack: bool = False) -> Point:
    """``selector`` is a Selector instance, a spec dict, or a frozen spec."""
    if isinstance(selector, tuple):
        spec = selector
    elif isinstance(selector, dict):
        spec = _freeze(selector)
    else:
        spec = _freeze(selector.spec())
    return Point("selector", bench, config, input_name, spec,
                 profile_config, profile_input, global_slack)


def dynamic_point(bench: str, config: str, input_name: str = "train",
                  **policy_kwargs) -> Point:
    """A Slack-Dynamic run (Struct-All pool + run-time policy kwargs)."""
    return Point("slack-dynamic", bench, config, input_name,
                 policy=_freeze(policy_kwargs))


def point_id(point: Point) -> str:
    """Id of the DAG node :func:`build_tasks` gives ``point``'s own run.

    That node is the point's ``baseline`` or ``timing`` stage; a caller
    finds it in :attr:`ExecReport.pruned` when the store already held
    the point's result.
    """
    if point.kind == "baseline":
        return f"baseline/{point.bench}/{point.input_name}/{point.config}"
    prefix = f"timing/{point.bench}/{point.input_name}/{point.config}"
    if point.kind == "slack-dynamic":
        policy_tag = ",".join(f"{k}={v}" for k, v in point.policy) \
            or "default"
        return f"{prefix}/slack-dynamic/{policy_tag}"
    return (f"{prefix}/{_sel_tag(_thaw(point.selector))}"
            f"/{point.profile_config}/{point.profile_input}"
            f"/{point.global_slack}")


def point_selector(point: Point):
    """The :class:`~repro.minigraph.selectors.Selector` of a selector
    ``point``, rebuilt from its spec through the family registry."""
    return selector_from_spec(_thaw(point.selector))


def _runner_kwargs(point: Point) -> Dict[str, Any]:
    """``point`` resolved into the keyword arguments of its Runner entries.

    Resolved as :meth:`~repro.harness.runner.Runner.run_selector` keys:
    the profiling machine and input through
    :func:`~repro.harness.runner.resolve_profiling`, and a Slack-Dynamic
    policy defaults to ``mode="full"`` with the outlining penalty.
    """
    kwargs: Dict[str, Any] = {"config": task_fns._config(point.config),
                              "input_name": point.input_name}
    if point.kind == "selector":
        profile_config, profile_input = resolve_profiling(
            point.input_name,
            task_fns._config(point.profile_config)
            if point.profile_config else None,
            point.profile_input)
        kwargs.update(selector=point_selector(point),
                      profile_config=profile_config,
                      profile_input=profile_input,
                      global_slack=point.global_slack)
    elif point.kind == "slack-dynamic":
        kwargs.update(mode="full", outlining_penalty=True)
        kwargs.update(point.policy)
    return kwargs


#: Per point kind: the Runner's memoized run and its un-run set-up.
_ENTRIES = {"baseline": ("baseline", "baseline_prepared"),
            "selector": ("run_selector", "selector_prepared"),
            "slack-dynamic": ("run_slack_dynamic", "dynamic_prepared")}


def point_result(runner, point: Point):
    """``point``'s run through ``runner``'s store: the baseline's
    ``RunStats``, or the selector or Slack-Dynamic ``SelectorRun``."""
    entry = getattr(runner, _ENTRIES[point.kind][0])
    return entry(point.bench, **_runner_kwargs(point))


def point_prepared(runner, point: Point):
    """``(core, finalize)`` for ``point``'s run, for batched dispatch."""
    entry = getattr(runner, _ENTRIES[point.kind][1])
    return entry(point.bench, **_runner_kwargs(point))


def point_plan(runner, point: Point):
    """The plan a selector ``point``'s run folds, through ``runner``'s
    store."""
    kwargs = _runner_kwargs(point)
    del kwargs["config"]        # the timing machine: no plan reads it
    return runner.plan(point.bench, **kwargs)


def plan_address(runner, point: Point) -> Tuple[str, Dict]:
    """The ``(kind, params)`` store address of :func:`point_plan`."""
    kwargs = _runner_kwargs(point)
    return "plan", runner.plan_params(
        point.bench, kwargs["selector"].spec(), kwargs["input_name"],
        kwargs["profile_config"], kwargs["profile_input"],
        kwargs["global_slack"])


def point_address(runner, point: Point) -> Tuple[str, Dict]:
    """The ``(kind, params)`` store address of :func:`point_result`."""
    kwargs = _runner_kwargs(point)
    config, input_name = kwargs.pop("config"), kwargs.pop("input_name")
    if point.kind == "baseline":
        return "baseline", runner.baseline_params(point.bench, config,
                                                  input_name)
    if point.kind == "slack-dynamic":
        return "run-dynamic", runner.dynamic_params(
            point.bench, config, input_name, kwargs.pop("mode"),
            kwargs.pop("outlining_penalty"), kwargs)
    return "run", runner.run_params(
        point.bench, kwargs["selector"].spec(), config, input_name,
        kwargs["profile_config"], kwargs["profile_input"],
        kwargs["global_slack"], None)


def build_tasks(points: Sequence[Point], runner,
                check: bool = False) -> List[Task]:
    """Expand points into a deduplicated trace→profile→plan→timing DAG.

    With ``check`` every selector and slack-dynamic point also gets a
    validation node (stage ``check``, deduplicated per (program,
    selector, plan parameters)) that replays the plan through the
    lockstep engine and the invariant linter and fails the run on any
    divergence (:func:`repro.exec.tasks.run_check`). Check nodes depend
    only on the plan and trace, so they run concurrently with the timing
    runs they vouch for.
    """
    base = task_fns.runner_params(runner)
    table: Dict[str, Task] = {}

    def add(task: Task) -> str:
        table.setdefault(task.id, task)
        return task.id

    def trace_task(bench: str, input_name: str) -> str:
        spec = dict(base, bench=bench, input=input_name)
        return add(Task(id=f"trace/{bench}/{input_name}",
                        fn=task_fns.run_trace, args=(spec,), stage="trace"))

    def candidates_task(bench: str, input_name: str) -> str:
        spec = dict(base, bench=bench, input=input_name)
        return add(Task(
            id=f"candidates/{bench}/{input_name}/{runner.max_mg_size}",
            fn=task_fns.run_candidates, args=(spec,),
            deps=(trace_task(bench, input_name),), stage="candidates"))

    def profile_task(bench: str, input_name: str, config: str,
                     global_slack: bool) -> str:
        spec = dict(base, bench=bench, input=input_name, config=config,
                    global_slack=global_slack)
        return add(Task(
            id=f"profile/{bench}/{input_name}/{config}/{global_slack}",
            fn=task_fns.run_profile, args=(spec,),
            deps=(trace_task(bench, input_name),), stage="profile"))

    def plan_task(point: Point) -> str:
        kwargs = _runner_kwargs(point)
        profile_config = kwargs["profile_config"].name
        profile_input = kwargs["profile_input"]
        deps = [trace_task(point.bench, point.input_name),
                trace_task(point.bench, profile_input),
                candidates_task(point.bench, point.input_name)]
        if kwargs["selector"].needs_profile:
            deps.append(profile_task(point.bench, profile_input,
                                     profile_config, point.global_slack))
        return add(Task(
            id=f"plan/{point.bench}/{point.input_name}"
               f"/{_sel_tag(_thaw(point.selector))}"
               f"/{profile_config}/{profile_input}/{point.global_slack}",
            fn=task_fns.run_plan, args=(dict(base, plan=point),),
            deps=tuple(deps), stage="plan"))

    def check_task(point: Point) -> str:
        plan_id = plan_task(point)
        return add(Task(
            id=f"check/{plan_id.partition('/')[2]}",
            fn=task_fns.run_check, args=(dict(base, check=point),),
            deps=(plan_id, trace_task(point.bench, point.input_name)),
            stage="check", retries=0))

    for point in points:
        spec = dict(base, point=point)
        if point.kind == "baseline":
            add(Task(id=point_id(point),
                     fn=task_fns.run_baseline, args=(spec,),
                     deps=(trace_task(point.bench, point.input_name),),
                     stage="baseline"))
            continue
        # Slack-Dynamic folds the same Struct-All-pool plan as its
        # static selector point; its run-time policy never alters the
        # folded record stream, so one plan and one check cover both.
        plan_point = point if point.kind == "selector" else selector_point(
            point.bench, {"kind": "slack-dynamic"}, point.config,
            point.input_name)
        if check:
            check_task(plan_point)
        add(Task(id=point_id(point),
                 fn=task_fns.run_timing, args=(spec,),
                 deps=(plan_task(plan_point),
                       trace_task(point.bench, point.input_name)),
                 stage="timing"))
    return list(table.values())


def prune_cached(runner, tasks: Sequence[Task]
                 ) -> Tuple[List[Task], List[str]]:
    """Split a DAG into (nodes to schedule, ids of nodes dropped).

    A node is scheduled only when its output is both missing and
    needed. One pass over ``tasks`` in reverse topological order
    (``build_tasks`` emits dependencies before dependents) decides:

    - a node with dependents, none of which is scheduled, is dropped
      without a probe: nothing will read its artifact through the DAG;
    - any other node with a store address
      (:func:`~repro.exec.tasks.task_artifact`) is dropped if
      :meth:`~repro.exec.store.ArtifactStore.contains` finds it, which
      reads and unpickles nothing;
    - everything else is scheduled (``check`` nodes, having no address,
      always are).

    Scheduled nodes lose their edges to dropped ones and read those
    artifacts through the store inside their own task function; a
    payload that turns out corrupt there is dropped and recomputed.
    """
    dependents: Dict[str, List[str]] = {}
    for task in tasks:
        for dep in task.deps:
            dependents.setdefault(dep, []).append(task.id)
    scheduled = set()
    for task in reversed(tasks):
        needed_by = dependents.get(task.id)
        if needed_by and scheduled.isdisjoint(needed_by):
            continue
        address = task_fns.task_artifact(runner, task)
        if address is not None:
            kind, params = address
            if runner.store.contains(runner.store.key(kind, params), kind):
                continue
        scheduled.add(task.id)
    pruned = [task.id for task in tasks if task.id not in scheduled]
    dead = set(pruned)
    kept = [replace(task, deps=tuple(dep for dep in task.deps
                                     if dep not in dead))
            for task in tasks if task.id in scheduled]
    return kept, pruned


def require_pool_store(runner, jobs: int) -> None:
    """Raise :class:`ValueError` when ``jobs > 1`` workers would have no
    persistent store: they hand every artifact back through it. One
    contract for every library entry that starts a pool
    (:func:`run_points`, ``analysis.limit_study.run_limit_study``)."""
    if jobs > 1 and not runner.store.persistent:
        raise ValueError(
            "parallel execution needs a persistent store: construct the "
            "Runner with ArtifactStore(cache_dir) or use --cache-dir")


def run_points(runner, points: Sequence[Point], jobs: int,
               on_event: Optional[Callable[[Dict], None]] = None,
               raise_on_failure: bool = False,
               check: bool = False,
               threads: int = 0) -> ExecReport:
    """Prewarm the runner's store by executing the point DAG.

    Only nodes whose output is missing and needed run
    (:func:`prune_cached`); ``report.pruned`` lists the rest, so a
    rerun on a warm store schedules nothing. Tasks run in ``runner``
    itself (:func:`~repro.exec.tasks.bound_runner`), so the caller's
    replay finds every artifact in its memory layer.

    Requires a persistent store when ``jobs > 1`` — worker processes can
    only hand artifacts back through the shared cache directory. With
    ``check`` the DAG carries a lockstep+lint validation node per
    (program, selector) point; a divergence fails the run (see
    :func:`build_tasks`).

    Worker processes load functional traces from the store like every
    other artifact: each worker's runner unpickles a trace once and
    keeps it in its memory layer for the tasks that follow.

    ``threads`` (from ``--jobs threads:N``, see :func:`parse_jobs`)
    selects batched native dispatch instead of process fan-out: the
    whole run stays in this process (no persistent store, no pickling)
    and each scheduler wave of ready timing nodes becomes one
    ``repro_run_batch`` call over N C threads.
    """
    if threads > 0:
        jobs = 1
    require_pool_store(runner, jobs)
    tasks = build_tasks(points, runner, check=check)
    kept, pruned = prune_cached(runner, tasks)
    scheduler = Scheduler(jobs=jobs, on_event=on_event, threads=threads)
    with task_fns.bound_runner(runner):
        report = scheduler.run(kept, raise_on_failure=raise_on_failure)
    report.pruned = pruned
    return report
