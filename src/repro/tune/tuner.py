"""The tuning loop: plan → evaluate (warm) → prune → report.

:func:`run_tune` glues the subsystem together. The search space is
enumerated once; the strategy picks the trial population (and, for
successive halving, the trace-length rung schedule); every evaluation
batch goes through the :class:`~repro.tune.evaluate.Evaluator` (DAG
scheduler + artifact store, so overlap is warm). The store is the only
checkpoint: a killed or finished search resumes by running again over
the same store, and every trial whose timing runs are stored counts as
served by the store instead of evaluated. The final-rung results reduce
to a Pareto frontier.

Determinism contract (tested): same space, strategy, seed, and trace
budget → the same trials in the same order, the same objectives, and
the same frontier — on a warm store, with zero recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..harness.runner import DEFAULT_MAX_INSTS
from .evaluate import Evaluator, TrialEval
from .pareto import OBJECTIVES, pareto_front
from .report import render_table
from .space import SearchSpace, Trial
from .strategies import (
    STRATEGIES, halving_rungs, plan_grid, plan_random, survivors,
)


@dataclass
class TuneStats:
    """Counters for one search (exported as ``tune.*`` metrics)."""

    space_trials: int = 0          # enumerated by the space
    planned_trials: int = 0        # selected by the strategy
    evaluations: int = 0           # (trial, rung) evaluations run now
    resumed: int = 0               # (trial, rung) served by the store
    rungs: int = 0                 # rung count (1 for grid/random)
    frontier_size: int = 0
    dominated: int = 0
    store_hits: int = 0            # artifact-store hits during the search
    store_misses: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"space_trials": self.space_trials,
                "planned_trials": self.planned_trials,
                "evaluations": self.evaluations,
                "resumed": self.resumed,
                "rungs": self.rungs,
                "frontier_size": self.frontier_size,
                "dominated": self.dominated,
                "store_hits": self.store_hits,
                "store_misses": self.store_misses}


@dataclass
class TuneResult:
    """Everything a finished search produced."""

    space: SearchSpace
    strategy: str
    evals: List[TrialEval]             # final-rung results, planned order
    frontier: List[TrialEval]
    dominated: List[TrialEval]
    stats: TuneStats

    def render(self) -> str:
        lines = [render_table(self.evals, self.frontier)]
        s = self.stats
        lines.append(
            f"tune: {s.planned_trials}/{s.space_trials} trials planned, "
            f"{s.evaluations} evaluated, {s.resumed} from the store, "
            f"{s.rungs} rung(s)")
        return "\n".join(lines)


def run_tune(space: SearchSpace,
             strategy: str = "grid",
             trials: Optional[int] = None,
             seed: int = 0,
             store=None,
             budget: int = 512,
             jobs: int = 1,
             threads: int = 0,
             max_insts: int = DEFAULT_MAX_INSTS,
             halving_eta: int = 2,
             halving_min_insts: int = 50_000,
             log: Optional[Callable[[str], None]] = None) -> TuneResult:
    """Run one search over ``space``; see the module doc for the shape.

    ``trials`` caps the planned population (mandatory for ``random``,
    an optional truncation for the others). Pass a persistent ``store``
    to make the search resumable: a rerun over it evaluates only the
    trials whose timing runs it lacks.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r} "
                         f"(choose from {', '.join(STRATEGIES)})")
    say = log if log is not None else (lambda _line: None)
    all_trials = space.enumerate()
    if strategy == "random":
        planned = plan_random(all_trials, seed,
                              trials if trials is not None
                              else len(all_trials))
    else:
        planned = plan_grid(all_trials)
        if trials is not None:
            planned = planned[:max(1, trials)]
    stats = TuneStats(space_trials=len(all_trials),
                      planned_trials=len(planned))

    evaluator = Evaluator(store=store, budget=budget, jobs=jobs,
                          threads=threads)
    hits0 = store.stats.hits if store is not None else 0
    misses0 = store.stats.misses if store is not None else 0

    def evaluate_rung(population: List[Trial],
                      rung: int) -> Dict[str, TrialEval]:
        """Batch evaluation at one trace length, counted by origin."""
        results, served = evaluator.evaluate(population, space.benchmarks,
                                             space.input_name, rung)
        stats.resumed += len(served)
        stats.evaluations += len(results) - len(served)
        say(f"tune: max_insts={rung}: {len(results) - len(served)} "
            f"trial(s) evaluated, {len(served)} from the store")
        return results

    if strategy == "halving":
        rungs = halving_rungs(max_insts, eta=halving_eta,
                              min_insts=halving_min_insts)
        stats.rungs = len(rungs)
        population = planned
        for rung in rungs[:-1]:
            results = evaluate_rung(population, rung)
            ranked = sorted(
                population,
                key=lambda t: (-results[t.trial_id].ipc_norm, t.trial_id))
            population = survivors(ranked, halving_eta)
            say(f"tune: rung max_insts={rung} promotes "
                f"{len(population)} trial(s)")
        final = evaluate_rung(population, rungs[-1])
        evals = [final[t.trial_id] for t in planned if t.trial_id in final]
    else:
        stats.rungs = 1
        final = evaluate_rung(planned, max_insts)
        evals = [final[t.trial_id] for t in planned]

    frontier, dominated = pareto_front(evals, OBJECTIVES)
    stats.frontier_size = len(frontier)
    stats.dominated = len(dominated)
    if store is not None:
        stats.store_hits = store.stats.hits - hits0
        stats.store_misses = store.stats.misses - misses0
    return TuneResult(space=space, strategy=strategy, evals=evals,
                      frontier=frontier, dominated=dominated, stats=stats)
