"""Design-space autotuner: selectors × machine configs → Pareto frontiers.

The paper evaluates five hand-chosen selectors at a handful of machine
configurations. This package searches that space instead: a declarative
:class:`~repro.tune.space.SearchSpace` (selector families × their
hyperparameters × MachineConfig knobs) is enumerated into trials, a
:mod:`~repro.tune.strategies` strategy decides which trials run (and at
what trace length), the :mod:`~repro.tune.evaluate` evaluator routes
every trial through the existing DAG scheduler + artifact store (so
overlapping trials are warm hits, and a search resumes by running again
over the same store), and :mod:`~repro.tune.pareto` reduces the results
to a coverage-vs-IPC-vs-read-port Pareto frontier.

Everything is deterministic: same space + same seed → same trials, same
frontier, and (through the content-addressed store) zero recomputation
on an identical re-run.
"""

from .pareto import OBJECTIVES, pareto_front
from .space import SearchSpace, Trial
from .tuner import TuneResult, TuneStats, run_tune

__all__ = [
    "OBJECTIVES", "SearchSpace", "Trial", "TuneResult", "TuneStats",
    "pareto_front", "run_tune",
]
