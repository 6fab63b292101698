"""Picklable task payloads executed inside scheduler worker processes.

Every function here takes one plain-dict ``spec`` and returns a *small*
summary dict; the real artifact lands in the on-disk
:class:`~repro.exec.store.ArtifactStore` shared between the parent and
all workers, which is how downstream tasks (and the parent's final
reporting pass) pick it up without shipping multi-megabyte traces over
the result pipe. A baseline or timing node's spec holds its grid
:class:`~repro.exec.grid.Point` under ``point``, which
:mod:`repro.exec.grid` alone turns into Runner arguments; the other
nodes' specs are JSON-ish (strings, numbers, bools, lists).

Specs carry the runner parameters (``budget``, ``max_mg_size``,
``warm_caches``, ``max_insts``, ``cache_dir``); each worker process keeps
one :class:`~repro.harness.runner.Runner` per distinct parameter set so
that repeated tasks in the same worker also share the in-memory layer.
That is how workers get functional traces too: the first task that
needs one loads it from the store, and later tasks in the same process
hit the memory layer. While :func:`repro.exec.grid.run_points` runs,
the entry for its caller's parameters is the caller's own runner
(:func:`bound_runner`).

:func:`task_artifact` names the store address of each task's artifact;
the DAG pruner and the batched dispatcher probe through it.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache
from typing import Any, Dict, Iterator, Optional, Tuple

from .store import ArtifactStore

# Per-process cache: one runner per parameter set (see bound_runner).
_RUNNERS: Dict[Tuple, Any] = {}


def runner_params(runner) -> Dict[str, Any]:
    """The spec fragment that reconstructs ``runner`` in a worker."""
    return {
        "budget": runner.budget,
        "max_mg_size": runner.max_mg_size,
        "warm_caches": runner.warm_caches,
        "max_insts": runner.max_insts,
        "cache_dir": str(runner.store.root) if runner.store.persistent
        else None,
    }


def _runner_key(spec: Dict[str, Any]) -> Tuple:
    return (spec["budget"], spec["max_mg_size"], spec["warm_caches"],
            spec["max_insts"], spec["cache_dir"])


def _runner(spec: Dict[str, Any]):
    from ..harness.runner import Runner
    key = _runner_key(spec)
    if key not in _RUNNERS:
        _RUNNERS[key] = Runner(
            budget=spec["budget"], max_mg_size=spec["max_mg_size"],
            warm_caches=spec["warm_caches"], max_insts=spec["max_insts"],
            store=ArtifactStore(spec["cache_dir"]))
    return _RUNNERS[key]


@contextmanager
def bound_runner(runner) -> Iterator[None]:
    """Make ``runner`` the task runner for its params inside the block.

    Tasks then compute in the caller's runner, so their artifacts land
    in its memory layer and a replay through it hits, memory-only
    stores included. Pool workers forked inside the block inherit the
    binding; the previous entry comes back on exit.
    """
    key = _runner_key(runner_params(runner))
    previous = _RUNNERS.get(key)
    _RUNNERS[key] = runner
    try:
        yield
    finally:
        if previous is None:
            _RUNNERS.pop(key, None)
        else:
            _RUNNERS[key] = previous


@lru_cache(maxsize=None)
def _config(name: str):
    """The named machine configuration, built once per process (frozen,
    so callers share it)."""
    from ..pipeline.config import config_by_name
    return config_by_name(name)


def selector_from_spec(spec: Dict[str, Any]):
    """Inverse of :meth:`repro.minigraph.selectors.Selector.spec`.

    Delegates to the family registry in
    :mod:`repro.minigraph.selectors`, so any registered family — paper
    selectors and searchable ones alike — round-trips across worker
    processes.
    """
    from ..minigraph import selectors
    return selectors.selector_from_spec(spec)


# -- result summaries ----------------------------------------------------------
#
# The small dicts tasks return over the result pipe. Shared with the
# batched native dispatcher (:mod:`repro.exec.batch`), which publishes
# artifacts directly and must hand the scheduler summaries that are
# indistinguishable from a task function's.

def baseline_summary(stats) -> Dict[str, Any]:
    """Summary shape of :func:`run_baseline`."""
    return {"ipc": stats.ipc}


def profile_summary(profile) -> Dict[str, Any]:
    """Summary shape of :func:`run_profile`."""
    return {"entries": len(profile)}


def timing_summary(run) -> Dict[str, Any]:
    """Summary shape of :func:`run_timing`."""
    return {"ipc": run.ipc, "coverage": run.coverage}


# -- pipeline-stage tasks ------------------------------------------------------

def run_trace(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Materialize the functional trace artifact for one benchmark."""
    trace = _runner(spec).trace(spec["bench"], spec["input"])
    return {"records": len(trace)}


def run_candidates(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Materialize the candidate enumeration artifact."""
    candidates = _runner(spec).candidates(spec["bench"], spec["input"])
    return {"candidates": len(candidates)}


def run_baseline(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Singleton timing run of the spec's baseline point."""
    from .grid import point_result
    return baseline_summary(point_result(_runner(spec), spec["point"]))


def run_profile(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Slack-profiling run (local or global slack)."""
    profile = _runner(spec).slack_profile(
        spec["bench"], _config(spec["config"]), spec["input"],
        global_slack=spec.get("global_slack", False))
    return profile_summary(profile)


def run_plan(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Selection plan for one (benchmark, selector) pair."""
    runner = _runner(spec)
    plan = runner.plan(
        spec["bench"], selector_from_spec(spec["selector"]),
        input_name=spec["input"],
        profile_config=_config(spec["profile_config"])
        if spec.get("profile_config") else None,
        profile_input=spec.get("profile_input"),
        global_slack=spec.get("global_slack", False))
    return {"templates": plan.n_templates}


def run_timing(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Timing run of the spec's selector or Slack-Dynamic point."""
    from .grid import point_result
    return timing_summary(point_result(_runner(spec), spec["point"]))


class CheckFailed(RuntimeError):
    """A validation task found a divergence or an illegal plan.

    Deterministic by construction — check tasks are scheduled with
    ``retries=0``, since re-running the same comparison cannot succeed.
    """


def run_check(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Validation node for one (program, selector) grid point.

    Replays the already-materialized plan and trace through the
    differential lockstep engine and the plan invariant linter
    (:mod:`repro.check`); raises :class:`CheckFailed` on the first
    divergence or lint issue, which fails the experiment run.
    """
    from ..check.lint import lint_plan
    from ..check.lockstep import lockstep_check
    runner = _runner(spec)
    selector = selector_from_spec(spec["selector"])
    plan = runner.plan(
        spec["bench"], selector, input_name=spec["input"],
        profile_config=_config(spec["profile_config"])
        if spec.get("profile_config") else None,
        profile_input=spec.get("profile_input"),
        global_slack=spec.get("global_slack", False))
    trace = runner.trace(spec["bench"], spec["input"])
    report = lockstep_check(trace.program, plan, trace=trace,
                            selector=selector.name,
                            max_insts=spec["max_insts"])
    if report.divergence is not None:
        raise CheckFailed(f"lockstep divergence: {report.render()}")
    issues = lint_plan(trace.program, plan,
                       max_size=spec["max_mg_size"],
                       budget=spec["budget"])
    if issues:
        rendered = "; ".join(issue.render() for issue in issues[:5])
        raise CheckFailed(f"plan invariant violations: {rendered}")
    return {"records": report.records, "handles": report.handles,
            "sites": len(plan.sites)}


# -- limit-study tasks ---------------------------------------------------------

def run_subset(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Evaluate one chunk of limit-study subset masks (Figure 8 scatter
    points): the ``count`` masks from ``first`` on.

    Memoized through the store under one ``subset`` artifact (the full
    parameter set, via :meth:`Runner.subset_params`), so finished
    chunks are durable: rerunning a killed study with the same store
    evaluates only the missing ones. The task ranks the candidate sites
    itself, from the trace and candidates its runner holds.
    """
    from ..analysis.limit_study import evaluate_chunk_cached
    points = evaluate_chunk_cached(
        _runner(spec), spec["bench"], spec["input"], _config(spec["config"]),
        spec["n_candidates"], spec["first"], spec["count"],
        spec["baseline_ipc"])
    return {"first": spec["first"], "points": len(points)}


# -- store addresses -----------------------------------------------------------

def task_artifact(runner, task) -> Optional[Tuple[str, Dict]]:
    """The ``(kind, params)`` store address of a DAG node's artifact.

    Built with the runner's own ``*_params`` builders from the same
    resolved arguments the task's compute path passes them: selectors
    are keyed by their canonical spec, profiling defaults are filled in.
    Returns ``None`` for nodes that are not backed by a store artifact
    (``check`` validation nodes recompute by design) and for
    ``run_subset`` chunks, which the limit study probes itself before
    it schedules them.
    """
    spec = task.args[0] if task.args else {}
    stage = task.stage
    if stage == "trace":
        return "trace", runner.trace_params(spec["bench"], spec["input"])
    if stage == "candidates":
        return "candidates", runner.candidates_params(spec["bench"],
                                                      spec["input"])
    if stage == "profile":
        return "profile", runner.profile_params(
            spec["bench"], _config(spec["config"]), spec["input"],
            spec.get("global_slack", False))
    if stage == "plan":
        return "plan", runner.plan_params(
            spec["bench"], selector_from_spec(spec["selector"]).spec(),
            spec["input"], _config(spec.get("profile_config") or "reduced"),
            spec.get("profile_input") or spec["input"],
            spec.get("global_slack", False))
    if stage in ("baseline", "timing"):
        from .grid import point_address
        return point_address(runner, spec["point"])
    return None
