"""Dependency-graph scheduler with process fan-out and fault tolerance.

An experiment grid is a DAG of :class:`Task` nodes — trace → profile →
candidates → plan → timing run per (benchmark × selector × machine)
point, with upstream nodes shared between points. The :class:`Scheduler`
topologically orders the graph and either runs it serially in-process
(``jobs=1``, also the deterministic reference path) or fans ready tasks
out over a ``ProcessPoolExecutor``. The pool path keeps two submissions
per worker in flight and, when many tasks are ready at once (a
figure's timing runs over the whole population), packs several into
one submission, so a worker pays one round trip per group rather than
per task.

Task functions must be module-level (picklable) and communicate bulk
results through the shared on-disk :class:`~repro.exec.store.ArtifactStore`
rather than their return values; returns should be small summaries. This
keeps inter-process traffic negligible and makes re-execution idempotent,
which is what the fault-tolerance layer leans on:

* a task raising an exception is retried up to ``retries`` times (with
  linear backoff when serial; alone, in its own submission, on the
  pool); the other tasks of its submission are unaffected;
* a worker process dying (``BrokenProcessPool``) degrades the run to
  serial in-process execution of everything not yet recorded, every
  task of an in-flight submission included — slower, but the run
  completes;
* a failed task poisons its transitive dependents (``skipped``), but
  independent subgraphs still complete.

Progress is surfaced as a stream of event dicts via ``on_event`` —
``{"kind": "done", "task": ..., "stage": ..., "queued": ..., ...}`` —
which the CLI renders, and as an :class:`ExecReport` with per-stage wall
times at the end.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)


def _invoke(fn: Callable, args: Tuple) -> Tuple[Any, float]:
    """Run one task and clock it (in-process or inside a pool worker)."""
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _invoke_group(calls: Sequence[Tuple[Callable, Tuple]]
                  ) -> List[Tuple[bool, Any, float]]:
    """Run one pool submission's tasks in order inside a worker.

    Returns one ``(ok, result or error message, seconds)`` per task; a
    task that raises does not stop the ones after it.
    """
    outcomes = []
    for fn, args in calls:
        try:
            result, duration = _invoke(fn, args)
        except Exception as error:  # noqa: BLE001 - task boundary
            outcomes.append((False, f"{type(error).__name__}: {error}", 0.0))
        else:
            outcomes.append((True, result, duration))
    return outcomes


@dataclass
class Task:
    """One schedulable unit: a picklable callable plus dependency edges."""

    id: str
    fn: Callable[..., Any]
    args: Tuple = ()
    deps: Tuple[str, ...] = ()
    stage: str = "task"
    retries: Optional[int] = None       # None → scheduler default


class TaskError(RuntimeError):
    """Raised by :meth:`Scheduler.run` when tasks fail terminally."""

    def __init__(self, failures: Dict[str, str]):
        self.failures = dict(failures)
        first = next(iter(self.failures.items()))
        extra = len(self.failures) - 1
        suffix = f" (+{extra} more)" if extra else ""
        super().__init__(f"task {first[0]!r} failed: {first[1]}{suffix}")


@dataclass
class ExecReport:
    """Outcome of one scheduler run."""

    results: Dict[str, Any] = field(default_factory=dict)
    failures: Dict[str, str] = field(default_factory=dict)
    stage_wall: Dict[str, float] = field(default_factory=dict)
    stage_tasks: Dict[str, int] = field(default_factory=dict)
    elapsed: float = 0.0
    degraded: bool = False
    retries: int = 0
    #: Ids of DAG nodes dropped before scheduling, because their output
    #: was stored or not needed (:func:`repro.exec.grid.prune_cached`).
    pruned: List[str] = field(default_factory=list)

    def render(self) -> str:
        stages = ", ".join(
            f"{stage} {self.stage_tasks[stage]}x/{wall:.1f}s"
            for stage, wall in sorted(self.stage_wall.items()))
        line = f"[exec] {len(self.results)} tasks in {self.elapsed:.1f}s"
        if stages:
            line += f" ({stages})"
        if self.pruned:
            line += f", {len(self.pruned)} pruned"
        if self.retries:
            line += f", {self.retries} retries"
        if self.degraded:
            line += ", degraded to serial"
        if self.failures:
            line += f", {len(self.failures)} FAILED"
        return line


class ProgressPrinter:
    """Renders scheduler events as a throttled one-line-per-tick stream."""

    def __init__(self, stream=None, min_interval: float = 0.5):
        import sys
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._last = 0.0

    def __call__(self, event: Dict[str, Any]) -> None:
        kind = event["kind"]
        now = time.monotonic()
        urgent = kind in ("failed", "degraded", "retry")
        finished = event.get("done", 0) + event.get("failed", 0) \
            == event.get("total", -1)
        if not urgent and not finished \
                and now - self._last < self.min_interval:
            return
        self._last = now
        if kind == "degraded":
            line = "[exec] worker pool lost; continuing serially"
        else:
            line = (f"[exec] {event['done']}/{event['total']} done, "
                    f"{event['running']} running, "
                    f"{event['queued']} queued")
            if event["failed"]:
                line += f", {event['failed']} failed"
            if urgent:
                line += f"  ({kind}: {event['task']})"
            elif event.get("task"):
                line += f"  ({event['stage']}: {event['task']})"
        print(line, file=self.stream)


class Scheduler:
    """Runs a task DAG serially, in native batches, or on a process pool."""

    def __init__(self, jobs: int = 1, retries: int = 1,
                 backoff: float = 0.1,
                 on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
                 threads: int = 0):
        self.jobs = max(1, int(jobs))
        self.retries = retries
        self.backoff = backoff
        self.on_event = on_event
        #: Batched native dispatch (``--jobs threads:N``). When set (and
        #: ``jobs == 1``), each wave of ready timing nodes is packed into
        #: one ``repro_run_batch`` call that fans the points over N C
        #: threads — in-process, so no persistent store or pickling is
        #: needed, and results are bit-identical to serial execution
        #: (see :mod:`repro.exec.batch`). Non-batchable nodes and any
        #: point the kernel cannot finish run through the ordinary
        #: serial path with the same retry policy.
        self.threads = max(0, int(threads))

    # -- graph preparation -----------------------------------------------------

    @staticmethod
    def _topo_order(tasks: Dict[str, Task]) -> List[str]:
        """Kahn's algorithm; deterministic (insertion-ordered) and
        cycle-detecting."""
        dependents: Dict[str, List[str]] = {tid: [] for tid in tasks}
        missing_deps: Dict[str, int] = {}
        for task in tasks.values():
            for dep in task.deps:
                if dep not in tasks:
                    raise ValueError(
                        f"task {task.id!r} depends on unknown {dep!r}")
                dependents[dep].append(task.id)
            missing_deps[task.id] = len(task.deps)
        ready = [tid for tid, n in missing_deps.items() if n == 0]
        order: List[str] = []
        while ready:
            tid = ready.pop(0)
            order.append(tid)
            for successor in dependents[tid]:
                missing_deps[successor] -= 1
                if missing_deps[successor] == 0:
                    ready.append(successor)
        if len(order) != len(tasks):
            cyclic = sorted(set(tasks) - set(order))
            raise ValueError(f"dependency cycle involving {cyclic}")
        return order

    # -- events ----------------------------------------------------------------

    def _emit(self, kind: str, task: Optional[Task], state: Dict) -> None:
        if self.on_event is None:
            return
        event = {
            "kind": kind,
            "task": task.id if task else None,
            "stage": task.stage if task else None,
        }
        event.update(state)
        self.on_event(event)

    # -- execution -------------------------------------------------------------

    def run(self, tasks: Sequence[Task],
            raise_on_failure: bool = True) -> ExecReport:
        """Execute the graph; returns task-id → result."""
        table: Dict[str, Task] = {}
        for task in tasks:
            if task.id in table:
                raise ValueError(f"duplicate task id {task.id!r}")
            table[task.id] = task
        order = self._topo_order(table)

        report = ExecReport()
        start = time.perf_counter()
        if self.jobs == 1 and self.threads:
            self._run_batched(table, order, report)
        elif self.jobs == 1:
            self._run_serial(table, order, report)
        else:
            self._run_parallel(table, order, report)
        report.elapsed = time.perf_counter() - start
        if report.failures and raise_on_failure:
            raise TaskError(report.failures)
        return report

    def _state(self, table: Dict[str, Task], report: ExecReport,
               running: int = 0) -> Dict[str, Any]:
        done = len(report.results)
        failed = len(report.failures)
        return {"done": done, "failed": failed, "running": running,
                "queued": len(table) - done - failed - running,
                "total": len(table)}

    def _record(self, task: Task, result: Any, duration: float,
                report: ExecReport) -> None:
        report.results[task.id] = result
        report.stage_wall[task.stage] = \
            report.stage_wall.get(task.stage, 0.0) + duration
        report.stage_tasks[task.stage] = \
            report.stage_tasks.get(task.stage, 0) + 1

    def _deps_ok(self, task: Task, report: ExecReport) -> bool:
        return all(dep in report.results for dep in task.deps)

    def _skip_for_deps(self, task: Task, report: ExecReport,
                       table: Dict[str, Task]) -> None:
        bad = [dep for dep in task.deps if dep in report.failures]
        report.failures[task.id] = f"skipped: dependency {bad[0]!r} failed"
        self._emit("skipped", task, self._state(table, report))

    def _run_one_serial(self, task: Task, table: Dict[str, Task],
                        report: ExecReport) -> None:
        """In-process execution with the retry policy."""
        retries = self.retries if task.retries is None else task.retries
        for attempt in range(retries + 1):
            try:
                result, duration = _invoke(task.fn, task.args)
            except Exception as error:  # noqa: BLE001 - task boundary
                if attempt < retries:
                    report.retries += 1
                    self._emit("retry", task, self._state(table, report))
                    time.sleep(self.backoff * (attempt + 1))
                    continue
                report.failures[task.id] = f"{type(error).__name__}: {error}"
                self._emit("failed", task, self._state(table, report))
                return
            self._record(task, result, duration, report)
            self._emit("done", task, self._state(table, report))
            return

    def _run_serial(self, table: Dict[str, Task], order: List[str],
                    report: ExecReport,
                    only: Optional[Iterable[str]] = None) -> None:
        pending = set(order if only is None else only)
        for tid in order:
            if tid not in pending or tid in report.results \
                    or tid in report.failures:
                continue
            task = table[tid]
            if not self._deps_ok(task, report):
                self._skip_for_deps(task, report, table)
                continue
            self._run_one_serial(task, table, report)

    def _run_batched(self, table: Dict[str, Task], order: List[str],
                     report: ExecReport) -> None:
        """Wave-at-a-time execution with one native dispatch per wave.

        Each pass collects every ready task; the batchable ones (timing
        runs on the compiled kernel) go through a single
        ``repro_run_batch`` call over ``self.threads`` C threads, the
        rest — and any point the kernel could not finish — run through
        :meth:`_run_one_serial` so failures keep the exact serial retry
        and error-reporting behavior.
        """
        from .batch import is_batchable, run_batch_wave
        pending: List[str] = list(order)
        while pending:
            ready: List[str] = []
            blocked: List[str] = []
            for tid in pending:
                task = table[tid]
                if any(dep in report.failures for dep in task.deps):
                    self._skip_for_deps(task, report, table)
                elif self._deps_ok(task, report):
                    ready.append(tid)
                else:
                    blocked.append(tid)
            if not ready:
                if len(blocked) == len(pending):
                    # No skips, no ready work: unreachable for an acyclic
                    # graph, but never spin — finish serially.
                    self._run_serial(table, order, report, only=blocked)
                    return
                pending = blocked
                continue
            wave = [table[tid] for tid in ready if is_batchable(table[tid])]
            done = run_batch_wave(wave, self.threads) if len(wave) > 1 \
                else {}
            for tid in ready:
                task = table[tid]
                if tid in done:
                    result, duration = done[tid]
                    self._record(task, result, duration, report)
                    self._emit("done", task, self._state(table, report))
                else:
                    self._run_one_serial(task, table, report)
            pending = blocked

    def _run_parallel(self, table: Dict[str, Task], order: List[str],
                      report: ExecReport) -> None:
        """Fan ready tasks out over a process pool, keeping it fed.

        Up to two submissions per worker are in flight, so a worker
        finishing one finds the next already queued. When more tasks are
        ready than that, one submission carries ``ready // (4 * jobs)``
        of them (at least one), which its worker runs in order; each
        task still gets its own outcome, retries and event.
        """
        # Imported here, so a serial or batched run never loads the pool
        # machinery (multiprocessing, logging, socket). The pool is built
        # per run, inside :meth:`run`: forked workers inherit the
        # parent's state as of this call.
        from concurrent.futures import (CancelledError, FIRST_COMPLETED,
                                        Future, ProcessPoolExecutor, wait)
        from concurrent.futures.process import BrokenProcessPool
        pool = ProcessPoolExecutor(max_workers=self.jobs)
        depth = 2 * self.jobs
        # future → the (task, attempt) pairs it carries, in order.
        in_flight: Dict[Future, List[Tuple[Task, int]]] = {}
        running = 0
        pending: List[str] = list(order)
        retry: List[Tuple[Task, int]] = []
        degrade = False

        def submit(group: List[Tuple[Task, int]]) -> None:
            nonlocal running
            future = pool.submit(_invoke_group,
                                 [(task.fn, task.args) for task, _ in group])
            in_flight[future] = group
            running += len(group)
            for task, _ in group:
                self._emit("submit", task,
                           self._state(table, report, running=running))

        def fill() -> None:
            """Resubmit failed tasks alone, then submit ready tasks in
            topological order until ``depth`` submissions are in flight."""
            nonlocal pending
            for task, attempt in retry:
                submit([(task, attempt)])
            retry.clear()
            ready: List[str] = []
            for tid in pending:
                task = table[tid]
                if any(dep in report.failures for dep in task.deps):
                    self._skip_for_deps(task, report, table)
                elif self._deps_ok(task, report):
                    ready.append(tid)
            size = max(1, len(ready) // (4 * self.jobs)) \
                if len(ready) > depth else 1
            taken = 0
            while taken < len(ready) and len(in_flight) < depth:
                submit([(table[tid], 0)
                        for tid in ready[taken:taken + size]])
                taken += size
            gone = set(ready[:taken])
            pending = [tid for tid in pending if tid not in gone
                       and tid not in report.failures]

        def fail(task: Task, attempt: int, message: str) -> None:
            """Queue a failed task for retry, or record its failure."""
            retries = self.retries if task.retries is None else task.retries
            if attempt < retries:
                report.retries += 1
                self._emit("retry", task,
                           self._state(table, report, running=running))
                retry.append((task, attempt + 1))
            else:
                report.failures[task.id] = message
                self._emit("failed", task,
                           self._state(table, report, running=running))

        try:
            while (pending or in_flight or retry) and not degrade:
                try:
                    fill()
                except BrokenProcessPool:
                    degrade = True
                    break
                if not in_flight:
                    if pending:  # every remaining task is blocked on failures
                        continue
                    break

                completed, _ = wait(list(in_flight),
                                    return_when=FIRST_COMPLETED)
                for future in completed:
                    group = in_flight.pop(future)
                    running -= len(group)
                    try:
                        outcomes = future.result()
                    except (BrokenProcessPool, CancelledError):
                        # A worker died mid-group (segfault, os._exit, OOM
                        # kill) or the future was torn down. The pool is
                        # unusable; every unrecorded task reruns serially.
                        degrade = True
                        break
                    except Exception as error:  # noqa: BLE001 - result pipe
                        message = f"{type(error).__name__}: {error}"
                        outcomes = [(False, message, 0.0)] * len(group)
                    for (task, attempt), (ok, value, duration) in \
                            zip(group, outcomes):
                        if not ok:
                            fail(task, attempt, value)
                            continue
                        self._record(task, value, duration, report)
                        self._emit("done", task,
                                   self._state(table, report,
                                               running=running))
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

        if degrade or pending or in_flight or retry:
            # Anything still unfinished (including tasks whose futures the
            # shutdown cancelled) is re-run in-process.
            report.degraded = True
            self._emit("degraded", None, self._state(table, report))
            leftovers = [tid for tid in order
                         if tid not in report.results
                         and tid not in report.failures]
            self._run_serial(table, order, report, only=leftovers)
