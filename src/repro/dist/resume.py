"""``repro resume`` — restart a killed run from its ledger.

The ledger header holds everything needed to rebuild the dead run's
task graph: runner parameters, store root, code-version salt, and the
serialized workload. Resume rebuilds the graph, then lets the **store**
decide what is left to do: every node whose durable output probes
present is pruned (:func:`prune_cached`, which probes the address
:func:`repro.exec.tasks.task_artifact` gives each node, the same address
the compute paths and the batched dispatcher use), and only the
remainder is scheduled. The ledger's own ``done`` records are advisory —
a node journaled done whose artifact has since been pruned re-runs; a
node the journal never saw whose artifact exists (published by a worker
just before the kill) is skipped anyway.

The durability invariant is enforced twice: ``prune_cached`` cannot
prune a node without a store address by construction, and
:func:`~repro.dist.ledger.assert_skippable` re-checks the final skip
set and refuses the resume if anything non-durable slipped in.

A salt mismatch (the code changed since the run died) refuses by
default: every artifact would miss and "resume" would silently be a
full re-run. ``allow_stale=True`` proceeds anyway.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.dist.ledger import LedgerError, RunLedger, assert_skippable
from repro.exec.dag import Task
from repro.exec.store import MISS
from repro.exec.tasks import task_artifact


def prune_cached(runner, tasks: Sequence[Task]
                 ) -> Tuple[List[Task], List[str]]:
    """Split a DAG into (nodes to schedule, node ids already durable).

    A node is pruned when its artifact probes present; surviving
    dependents drop the pruned edge and re-materialize the upstream
    value through the store inside their own task function (one memory-
    layer hit in the worker). ``build_tasks`` emits dependencies before
    dependents, so one forward pass suffices.
    """
    pruned: List[str] = []
    kept: List[Task] = []
    for task in tasks:
        address = task_artifact(runner, task)
        if address is not None:
            kind, params = address
            if runner.store.get(runner.store.key(kind, params),
                                kind) is not MISS:
                pruned.append(task.id)
                continue
        kept.append(task)
    if pruned:
        dead = set(pruned)
        kept = [
            Task(id=task.id, fn=task.fn, args=task.args,
                 deps=tuple(dep for dep in task.deps if dep not in dead),
                 stage=task.stage, retries=task.retries,
                 timeout=task.timeout)
            for task in kept
        ]
    return kept, pruned


def workload_for_points(points, check: bool = False,
                        label: str = "experiments") -> Dict[str, Any]:
    """The ledger-header workload document for an experiment point set."""
    from repro.exec.grid import point_to_doc
    return {"kind": "experiments", "label": label, "check": check,
            "points": [point_to_doc(point) for point in points]}


def workload_for_limit_study(bench: str, input_name: str, config: str,
                             n_candidates: int,
                             subset_cap: Optional[int]) -> Dict[str, Any]:
    """The ledger-header workload document for a limit study."""
    return {"kind": "limit-study", "bench": bench, "input": input_name,
            "config": config, "n_candidates": n_candidates,
            "subset_cap": subset_cap}


def open_ledger(path, runner, workload: Dict[str, Any],
                extra: Optional[Dict[str, Any]] = None) -> RunLedger:
    """Start a fresh ledger for ``runner`` executing ``workload``."""
    from repro.exec.tasks import runner_params
    return RunLedger.create(
        path, workload=workload, runner_params=runner_params(runner),
        salt=runner.store.salt,
        cache_dir=str(runner.store.root) if runner.store.persistent
        else None,
        extra=extra)


def resume_run(path, jobs: Optional[int] = None,
               on_event: Optional[Callable[[Dict], None]] = None,
               allow_stale: bool = False,
               retries: int = 1, timeout: Optional[float] = None
               ) -> Dict[str, Any]:
    """Replay a ledger and execute exactly the missing work.

    Returns a summary dict: ``{"kind", "total", "skipped", "scheduled",
    "completed", "failed", "report"}``. ``jobs`` overrides the dead
    run's fan-out.
    """
    from repro.harness.runner import Runner

    header, journaled, completed = RunLedger.load(path)
    runner = Runner.from_params(header["runner"])
    if header.get("salt") != runner.store.salt and not allow_stale:
        raise LedgerError(
            f"code-version salt changed since this run "
            f"({header.get('salt')} -> {runner.store.salt}): every "
            f"artifact would miss, so this would be a full re-run, not "
            f"a resume. Pass --force to do it anyway.")
    if jobs is None:
        jobs = int(header.get("jobs", 1) or 1)
    workload = header.get("workload") or {}
    kind = workload.get("kind")

    if kind == "experiments":
        return _resume_experiments(path, header, workload, runner, jobs,
                                   on_event, retries, timeout, journaled)
    if kind == "limit-study":
        return _resume_limit_study(path, header, workload, runner, jobs,
                                   on_event)
    raise LedgerError(f"ledger workload kind {kind!r} is not resumable")


def _resume_experiments(path, header, workload, runner, jobs,
                        on_event, retries, timeout,
                        journaled: Dict[str, str]) -> Dict[str, Any]:
    from repro.exec.grid import build_tasks, point_from_doc, run_points

    points = [point_from_doc(doc) for doc in workload.get("points", [])]
    check = bool(workload.get("check", False))
    tasks = build_tasks(points, runner, check=check)
    kept, pruned = prune_cached(runner, tasks)
    # The lint: nothing in the skip set may lack a durable output. The
    # pruner already guarantees this by construction; the assertion is
    # the enforced contract (and what refuses a hand-edited ledger that
    # claims a check node is done).
    durable = [task.id for task in tasks
               if task_artifact(runner, task) is not None]
    assert_skippable(tasks, durable, pruned)

    ledger = RunLedger.append_to(path, header)
    try:
        ledger.record_skipped_durable(pruned)
        report = run_points(runner, points, jobs=jobs, retries=retries,
                            timeout=timeout, on_event=on_event,
                            raise_on_failure=False, check=check,
                            ledger=ledger, tasks=kept)
    finally:
        ledger.close()
    return {"kind": "experiments", "total": len(tasks),
            "skipped": len(pruned), "scheduled": len(kept),
            "journaled_done": sum(1 for s in journaled.values()
                                  if s == "done"),
            "completed": len(report.results),
            "failed": len(report.failures), "report": report,
            "runner": runner, "points": points}


def _resume_limit_study(path, header, workload, runner, jobs,
                        on_event) -> Dict[str, Any]:
    """Limit studies resume through the store rather than DAG pruning:
    every completed subset mask is a durable ``subset`` artifact, so
    re-running the sweep evaluates only the missing masks (the scheduler
    still walks all of them, but each cached mask is a store hit, not a
    timing run)."""
    from repro.analysis.limit_study import run_limit_study
    from repro.pipeline.config import config_by_name

    hits_before, misses_before = runner.store.stats.by_kind.get(
        "subset", [0, 0])
    ledger = RunLedger.append_to(path, header)
    try:
        result = run_limit_study(
            runner, bench=workload["bench"],
            input_name=workload["input"],
            config=config_by_name(workload["config"]),
            n_candidates=int(workload["n_candidates"]),
            subset_cap=workload.get("subset_cap"), jobs=jobs,
            progress=ledger.sink(on_event))
        ledger.complete(len(result.points), 0)
    finally:
        ledger.close()
    hits, misses = runner.store.stats.by_kind.get("subset", [0, 0])
    return {"kind": "limit-study", "total": len(result.points),
            "skipped": hits - hits_before,
            "scheduled": misses - misses_before,
            "completed": len(result.points), "failed": 0,
            "result": result, "runner": runner}
