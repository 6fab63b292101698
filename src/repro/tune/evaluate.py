"""Trial evaluation through the DAG scheduler and artifact store.

A batch of trials expands to grid :class:`~repro.exec.grid.Point`\\ s —
one selector timing run per (trial, benchmark) plus the per-config
baselines every relative-IPC number normalizes against — and goes
through :func:`repro.exec.grid.run_points` exactly like ``repro
experiments``: ``--jobs N`` fans out worker processes over a persistent
store, ``--jobs threads:N`` keeps the run in-process and turns each
scheduler wave into one batched native kernel call. Afterwards the
(serial) reduction replays the same calls through the Runner and finds
every artifact already present, so objectives come from each point's
stored :class:`~repro.harness.runner.SelectorRun` (IPC and coverage)
and its stored plan (read-port demand and templates) at warm-hit cost.

Repeated or overlapping trials — across batches, strategies, rungs with
the same trace length, or whole re-runs — hit the store rather than the
simulator; that is what makes exhaustive search affordable and lets a
killed search resume by running again over the same ``--cache-dir``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..exec.grid import baseline_point, point_id, run_points, selector_point
from ..harness.runner import Runner
from ..pipeline.config import config_by_name
from .space import Trial

#: Objective direction summary (see :mod:`repro.tune.pareto`):
#: coverage and relative IPC are maximized, read-port demand minimized.


@dataclass(frozen=True)
class TrialEval:
    """Objectives for one trial at one trace length (``rung``)."""

    trial_id: str
    selector: Dict[str, Any]
    display_name: str
    config: str
    rung: int                       # max_insts this evaluation ran at
    coverage: float                 # mean dynamic coverage across benches
    ipc_norm: float                 # mean IPC relative to same-config baseline
    read_ports: float               # mean freq-weighted ext-input demand
    per_bench: List[Dict[str, Any]] = field(default_factory=list)

    def to_doc(self) -> Dict[str, Any]:
        return {"trial": self.trial_id, "selector": self.selector,
                "display_name": self.display_name, "config": self.config,
                "rung": self.rung, "coverage": self.coverage,
                "ipc_norm": self.ipc_norm, "read_ports": self.read_ports,
                "per_bench": self.per_bench}


def plan_read_ports(plan) -> float:
    """Frequency-weighted mean read-port demand of a plan's sites.

    Each selected site reads ``len(candidate.ext_inputs)`` external
    registers through PRF read ports at dispatch; weighting by profiled
    site frequency makes this the *dynamic* port pressure the plan puts
    on a read-port-reduction scheme. Plans that select nothing demand
    nothing.
    """
    total = sum(site.frequency for site in plan.sites)
    if not total:
        return 0.0
    weighted = sum(len(site.candidate.ext_inputs) * site.frequency
                   for site in plan.sites)
    return weighted / total


class Evaluator:
    """Evaluates trial batches against one artifact store."""

    def __init__(self, store=None, budget: int = 512,
                 jobs: int = 1, threads: int = 0,
                 log: Optional[Any] = None):
        self.store = store
        self.budget = budget
        self.jobs = jobs
        self.threads = threads
        self.log = log

    def runner_for(self, max_insts: int) -> Runner:
        """A Runner at one trace length, over the shared store."""
        kwargs = {"budget": self.budget, "max_insts": max_insts}
        if self.store is not None:
            kwargs["store"] = self.store
        return Runner(**kwargs)

    def evaluate(self, trials: Sequence[Trial],
                 benchmarks: Sequence[str], input_name: str,
                 max_insts: int) -> Tuple[Dict[str, TrialEval], Set[str]]:
        """Evaluate ``trials`` at ``max_insts``.

        Returns the results by trial id and the ids of the trials the
        store served: every timing node of theirs was pruned, so none
        ran now. One ``run_points`` call covers the whole batch, so the
        DAG scheduler deduplicates shared traces/candidates/profiles
        across trials and the batched dispatcher packs every ready
        timing node of a wave into one native call.
        """
        if not trials:
            return {}, set()
        runner = self.runner_for(max_insts)
        points = []
        for config in dict.fromkeys(trial.config for trial in trials):
            points.extend(baseline_point(bench, config, input_name)
                          for bench in benchmarks)
        own_points = {
            trial.trial_id: [selector_point(bench, trial.selector_spec,
                                            trial.config, input_name)
                             for bench in benchmarks]
            for trial in trials}
        for own in own_points.values():
            points.extend(own)
        report = run_points(runner, points, jobs=self.jobs,
                            threads=self.threads, raise_on_failure=True)
        pruned = set(report.pruned)
        served = {trial_id for trial_id, own in own_points.items()
                  if all(point_id(point) in pruned for point in own)}
        results: Dict[str, TrialEval] = {}
        for trial in trials:
            results[trial.trial_id] = self._reduce(
                runner, trial, benchmarks, input_name, max_insts)
        return results, served

    def _reduce(self, runner: Runner, trial: Trial,
                benchmarks: Sequence[str], input_name: str,
                max_insts: int) -> TrialEval:
        """Replay one trial through the warm store into objectives."""
        from ..exec.tasks import selector_from_spec
        config = config_by_name(trial.config)
        per_bench: List[Dict[str, Any]] = []
        coverages: List[float] = []
        ratios: List[float] = []
        ports: List[float] = []
        for bench in benchmarks:
            selector = selector_from_spec(trial.selector_spec)
            base = runner.baseline(bench, config, input_name)
            run = runner.run_selector(bench, selector, config,
                                      input_name=input_name)
            plan = runner.plan(bench, selector, input_name=input_name)
            ratio = run.ipc / base.ipc if base.ipc else 0.0
            demand = plan_read_ports(plan)
            per_bench.append({"bench": bench, "ipc": run.ipc,
                              "baseline_ipc": base.ipc,
                              "ipc_norm": ratio,
                              "coverage": run.coverage,
                              "read_ports": demand,
                              "templates": plan.n_templates})
            coverages.append(run.coverage)
            ratios.append(ratio)
            ports.append(demand)
        n = len(benchmarks)
        return TrialEval(
            trial_id=trial.trial_id, selector=trial.selector_spec,
            display_name=trial.display_name, config=trial.config,
            rung=max_insts,
            coverage=sum(coverages) / n, ipc_norm=sum(ratios) / n,
            read_ports=sum(ports) / n, per_bench=per_bench)
