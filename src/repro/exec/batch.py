"""Batched native dispatch: one GIL-released C call per scheduler wave.

Process fan-out (``--jobs N``) pays a pickle round-trip and a worker
process per timing point. For grids whose points all ride the compiled
kernel that overhead dominates: the cycle loop itself releases the GIL
(ctypes drops it for the call's duration), so the natural unit of
parallelism is a *batch* — every ready timing node of one scheduler
wave (baselines, slack profiles, selector and Slack-Dynamic runs)
packed into an array of descriptors and handed to ``repro_run_batch``,
which fans the points over a pthread pool inside the single call. No
processes, no pickling, no persistent store.

:func:`run_batch_wave` is the bridge. For each batchable task it
reconstructs the runner-side setup through the ``*_prepared`` helpers
(:class:`~repro.harness.runner.Runner.baseline_prepared` and friends) —
the same code path the serial computes use — probes the artifact store,
collects one :func:`repro.pipeline.ckern.run_batch` descriptor per
store miss, dispatches once, and publishes each finished artifact under
the identical store key with the identical summary dict the task
function would have returned. Any point the kernel cannot finish (tap
overflow, simulated deadlock, ineligible core or declined policy, store
hit) is simply left out of the returned map; the scheduler reruns it
through :func:`~repro.exec.tasks.run_timing` et al. serially,
preserving the retry/raise semantics bit for bit. Results are
bit-identical to ``--jobs 1`` by construction: a serial run is itself a
``repro_run_batch`` batch of one, so both paths run the same kernel on
the same descriptors, and the fallback path *is* the serial path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from . import tasks as task_fns
from .grid import point_prepared
from .store import MISS

#: ``OoOCore.run``'s cycle budget — batched points must deadlock at the
#: same horizon the per-point path uses or parity breaks on pathologies.
DEFAULT_MAX_CYCLES = 200_000_000


def is_batchable(task) -> bool:
    """Can this DAG node ride the batched kernel dispatch?

    Every timing node: baselines, slack profiles, and selector and
    Slack-Dynamic timing runs (a descriptor carries the run-time
    policy's state). The one other stage, ``check``, is not a cycle
    loop at all.
    """
    return task.fn in (task_fns.run_baseline, task_fns.run_profile,
                       task_fns.run_timing)


@dataclass
class _Prepared:
    """One store-missing point, ready for native dispatch."""

    task_id: str
    runner: Any
    kind: str                      # store artifact kind
    params: Dict[str, Any]         # store-key params
    core: Any                      # un-run OoOCore
    finalize: Callable             # stats -> artifact
    summarize: Callable            # artifact -> task summary dict
    entry: tuple                   # ckern.run_batch descriptor
    prepare_s: float               # seconds spent in _prepare


def _prepare(task) -> Optional[_Prepared]:
    """Set one batchable task's point up for the batch, or None for serial.

    The store probe and the later ``put`` use the address
    :func:`~repro.exec.tasks.task_artifact` gives the node, so they
    agree with the serial compute path and the DAG pruner. None
    covers every reason the batch cannot help: the artifact is already
    stored (the serial rerun is a memo hit), or the constructed core is
    not kernel-eligible (``REPRO_PURE_PY``, no compiler, tap-incapable
    observer, a policy parameter the kernel's state cannot carry).
    """
    start = time.perf_counter()
    spec = task.args[0]
    runner = task_fns._runner(spec)
    kind, params = task_fns.task_artifact(runner, task)
    if runner.store.get(runner.store.key(kind, params), kind) is not MISS:
        return None
    if task.fn is task_fns.run_profile:
        core, finalize = runner.profile_prepared(
            spec["bench"], task_fns._config(spec["config"]), spec["input"],
            global_slack=spec.get("global_slack", False))
        summarize = task_fns.profile_summary
    else:
        core, finalize = point_prepared(runner, spec["point"])
        summarize = task_fns.baseline_summary \
            if task.fn is task_fns.run_baseline else task_fns.timing_summary

    entry = core.kernel_batch_entry(DEFAULT_MAX_CYCLES)
    if entry is None:
        return None
    return _Prepared(task.id, runner, kind, params, core, finalize,
                     summarize, entry, time.perf_counter() - start)


def run_batch_wave(tasks: Sequence, threads: int
                   ) -> Dict[str, tuple]:
    """Run one wave of batchable tasks through a single native dispatch.

    Returns ``{task id: (summary dict, duration)}`` for every point the
    kernel completed; the caller reruns missing ids through the normal
    per-point path. A point's duration is its own prepare and publish
    time plus an equal share of the one native call, so the durations
    of a wave sum to at most its wall time. Never raises for a single
    point's sake — a setup failure (missing benchmark, broken plan) is
    left for the serial rerun to surface with the scheduler's retry
    policy attached.
    """
    from ..pipeline import ckern
    results: Dict[str, tuple] = {}
    if not ckern.available():
        return results
    prepared: List[_Prepared] = []
    for task in tasks:
        try:
            p = _prepare(task)
        except Exception:  # noqa: BLE001 - serial rerun reports it
            continue
        if p is not None:
            prepared.append(p)
    if not prepared:
        return results

    start = time.perf_counter()
    batch = ckern.run_batch([p.entry for p in prepared], threads)
    if batch is None:
        return results
    share = (time.perf_counter() - start) / len(prepared)
    for p, point in zip(prepared, batch):
        publish_start = time.perf_counter()
        rc, out, events, n_words, overflowed = point
        try:
            stats = p.core.apply_kernel_result(rc, out, events, n_words,
                                               overflowed)
        except Exception:  # noqa: BLE001 - deadlock: serial path raises it
            ckern.counters["batch_fallbacks"] += 1
            continue
        if stats is None:
            ckern.counters["batch_fallbacks"] += 1
            continue
        artifact = p.finalize(stats)
        p.runner.store.put(p.runner.store.key(p.kind, p.params), artifact,
                           p.kind)
        results[p.task_id] = (p.summarize(artifact),
                              p.prepare_s + share
                              + time.perf_counter() - publish_start)
    return results
