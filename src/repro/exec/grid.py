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

:func:`run_points` executes the DAG with a :class:`~repro.exec.dag.Scheduler`
against the runner's *persistent* store; afterwards the (serial) driver
replays the same calls through the runner and finds every artifact
already present — parallelism without touching the drivers' logic, and
bit-identical results for any ``--jobs`` value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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


def point_to_doc(point: Point) -> Dict[str, Any]:
    """JSON document for a :class:`Point` (ledger headers, wire formats)."""
    return {"kind": point.kind, "bench": point.bench, "config": point.config,
            "input": point.input_name,
            "selector": [[key, value] for key, value in point.selector],
            "profile_config": point.profile_config,
            "profile_input": point.profile_input,
            "global_slack": point.global_slack,
            "policy": [[key, value] for key, value in point.policy]}


def point_from_doc(doc: Dict[str, Any]) -> Point:
    """Inverse of :func:`point_to_doc` (exact: same task ids, same keys)."""
    return Point(doc["kind"], doc["bench"], doc["config"],
                 doc.get("input", "train"),
                 tuple((key, value)
                       for key, value in doc.get("selector", [])),
                 doc.get("profile_config"), doc.get("profile_input"),
                 bool(doc.get("global_slack", False)),
                 tuple((key, value) for key, value in doc.get("policy", [])))


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
        selector = _thaw(point.selector)
        profile_config = point.profile_config or "reduced"
        profile_input = point.profile_input or point.input_name
        deps = [trace_task(point.bench, point.input_name),
                trace_task(point.bench, profile_input),
                candidates_task(point.bench, point.input_name)]
        if task_fns.selector_from_spec(selector).needs_profile:
            deps.append(profile_task(point.bench, profile_input,
                                     profile_config, point.global_slack))
        spec = dict(base, bench=point.bench, input=point.input_name,
                    selector=selector, profile_config=point.profile_config,
                    profile_input=point.profile_input,
                    global_slack=point.global_slack)
        return add(Task(
            id=f"plan/{point.bench}/{point.input_name}/{_sel_tag(selector)}"
               f"/{profile_config}/{profile_input}/{point.global_slack}",
            fn=task_fns.run_plan, args=(spec,), deps=tuple(deps),
            stage="plan"))

    def check_task(point: Point) -> str:
        selector = _thaw(point.selector)
        profile_config = point.profile_config or "reduced"
        profile_input = point.profile_input or point.input_name
        spec = dict(base, bench=point.bench, input=point.input_name,
                    selector=selector, profile_config=point.profile_config,
                    profile_input=point.profile_input,
                    global_slack=point.global_slack)
        return add(Task(
            id=f"check/{point.bench}/{point.input_name}/{_sel_tag(selector)}"
               f"/{profile_config}/{profile_input}/{point.global_slack}",
            fn=task_fns.run_check, args=(spec,),
            deps=(plan_task(point),
                  trace_task(point.bench, point.input_name)),
            stage="check", retries=0))

    for point in points:
        if check and point.kind != "baseline":
            # Slack-Dynamic folds the same Struct-All-pool plan as its
            # static selector point; its run-time policy never alters
            # the folded record stream, so one check covers both.
            check_task(point if point.kind == "selector"
                       else selector_point(point.bench,
                                           {"kind": "slack-dynamic"},
                                           point.config, point.input_name))
        if point.kind == "baseline":
            spec = dict(base, bench=point.bench, input=point.input_name,
                        config=point.config)
            add(Task(id=f"baseline/{point.bench}/{point.input_name}"
                        f"/{point.config}",
                     fn=task_fns.run_baseline, args=(spec,),
                     deps=(trace_task(point.bench, point.input_name),),
                     stage="baseline"))
            continue
        if point.kind == "slack-dynamic":
            deps = (plan_task(selector_point(
                        point.bench, {"kind": "slack-dynamic"},
                        point.config, point.input_name)),
                    trace_task(point.bench, point.input_name))
            spec = dict(base, point_kind="slack-dynamic", bench=point.bench,
                        input=point.input_name, config=point.config,
                        policy=_thaw(point.policy))
            policy_tag = ",".join(f"{k}={v}" for k, v in point.policy) \
                or "default"
            add(Task(id=f"timing/{point.bench}/{point.input_name}"
                        f"/{point.config}/slack-dynamic/{policy_tag}",
                     fn=task_fns.run_timing, args=(spec,), deps=deps,
                     stage="timing"))
            continue
        # Static selector timing run.
        selector = _thaw(point.selector)
        deps = (plan_task(point),
                trace_task(point.bench, point.input_name))
        spec = dict(base, point_kind="selector", bench=point.bench,
                    input=point.input_name, config=point.config,
                    selector=selector, profile_config=point.profile_config,
                    profile_input=point.profile_input,
                    global_slack=point.global_slack)
        add(Task(id=f"timing/{point.bench}/{point.input_name}"
                    f"/{point.config}/{_sel_tag(selector)}"
                    f"/{point.profile_config}/{point.profile_input}"
                    f"/{point.global_slack}",
                 fn=task_fns.run_timing, args=(spec,), deps=deps,
                 stage="timing"))
    return list(table.values())


def run_points(runner, points: Sequence[Point], jobs: int,
               retries: int = 1, timeout: Optional[float] = None,
               on_event: Optional[Callable[[Dict], None]] = None,
               raise_on_failure: bool = False,
               check: bool = False,
               ledger=None,
               tasks: Optional[List[Task]] = None,
               threads: int = 0) -> ExecReport:
    """Prewarm the runner's store by executing the point DAG in parallel.

    Requires a persistent store when ``jobs > 1`` — worker processes can
    only hand artifacts back through the shared cache directory. With
    ``check`` the DAG carries a lockstep+lint validation node per
    (program, selector) point; a divergence fails the run (see
    :func:`build_tasks`).

    ``ledger`` (a :class:`repro.dist.ledger.RunLedger`) journals every
    terminal node event so a killed run can be resumed with ``repro
    resume``. ``tasks`` overrides the DAG (the resume path passes the
    already-pruned graph).

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
    if jobs > 1 and not runner.store.persistent:
        raise ValueError(
            "parallel execution needs a persistent store: construct the "
            "Runner with ArtifactStore(cache_dir) or use --cache-dir")
    if ledger is not None:
        on_event = ledger.sink(on_event)
    scheduler = Scheduler(jobs=jobs, retries=retries, timeout=timeout,
                          on_event=on_event, threads=threads)
    if tasks is None:
        tasks = build_tasks(points, runner, check=check)
    report = scheduler.run(tasks, raise_on_failure=raise_on_failure)
    if ledger is not None:
        ledger.complete(len(report.results), len(report.failures))
    return report
