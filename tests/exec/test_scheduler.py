"""DAG scheduler: ordering, fan-out, retry and crash handling.

Task callables live at module level so the ``ProcessPoolExecutor`` can
pickle them; cross-process/cross-attempt state goes through sentinel
files in ``tmp_path``.
"""

import concurrent.futures
import os

import pytest

from repro.exec.dag import ProgressPrinter, Scheduler, Task, TaskError


def t_const(value):
    """Return a constant (trivial task body)."""
    return value


def t_sum(path, addend):
    """Append to a shared file-backed accumulator and return its length."""
    with open(path, "a") as handle:
        handle.write(f"{addend}\n")
    with open(path) as handle:
        return len(handle.readlines())


def t_fail_once(sentinel, value):
    """Raise on the first invocation (sentinel missing), succeed after."""
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as handle:
            handle.write("seen")
        raise ValueError("injected transient failure")
    return value


def t_always_fail():
    """Deterministic failure."""
    raise RuntimeError("injected permanent failure")


def t_crash_once(sentinel, value):
    """Kill the worker process outright on first invocation."""
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as handle:
            handle.write("seen")
        os._exit(13)  # hard death: no exception, no cleanup
    return value


def _chain(n=3):
    return [Task(id=f"t{i}", fn=t_const, args=(i,),
                 deps=(f"t{i-1}",) if i else ())
            for i in range(n)]


# -- graph validation ---------------------------------------------------------

def test_duplicate_ids_rejected():
    tasks = [Task(id="a", fn=t_const, args=(1,)),
             Task(id="a", fn=t_const, args=(2,))]
    with pytest.raises(ValueError, match="duplicate"):
        Scheduler().run(tasks)


def test_unknown_dependency_rejected():
    with pytest.raises(ValueError, match="unknown"):
        Scheduler().run([Task(id="a", fn=t_const, args=(1,),
                              deps=("ghost",))])


def test_cycle_rejected():
    tasks = [Task(id="a", fn=t_const, args=(1,), deps=("b",)),
             Task(id="b", fn=t_const, args=(2,), deps=("a",))]
    with pytest.raises(ValueError, match="cycle"):
        Scheduler().run(tasks)


# -- serial execution ---------------------------------------------------------

def test_serial_runs_in_dependency_order(tmp_path):
    log = tmp_path / "log.txt"
    tasks = [Task(id="late", fn=t_sum, args=(str(log), "late"),
                  deps=("early",)),
             Task(id="early", fn=t_sum, args=(str(log), "early"))]
    report = Scheduler(jobs=1).run(tasks)
    assert log.read_text().splitlines() == ["early", "late"]
    assert report.results == {"early": 1, "late": 2}
    assert report.stage_tasks == {"task": 2}


def test_serial_retry_then_success(tmp_path):
    sentinel = str(tmp_path / "seen")
    report = Scheduler(jobs=1, retries=2, backoff=0.01).run(
        [Task(id="flaky", fn=t_fail_once, args=(sentinel, "ok"))])
    assert report.results == {"flaky": "ok"}
    assert report.retries == 1


def test_serial_failure_poisons_dependents():
    tasks = [Task(id="bad", fn=t_always_fail, retries=0),
             Task(id="child", fn=t_const, args=(1,), deps=("bad",)),
             Task(id="grandchild", fn=t_const, args=(2,), deps=("child",)),
             Task(id="independent", fn=t_const, args=(3,))]
    report = Scheduler(jobs=1).run(tasks, raise_on_failure=False)
    assert report.results == {"independent": 3}
    assert "injected permanent failure" in report.failures["bad"]
    assert "skipped" in report.failures["child"]
    assert "skipped" in report.failures["grandchild"]
    with pytest.raises(TaskError):
        Scheduler(jobs=1).run(tasks)


# -- parallel execution -------------------------------------------------------

def test_parallel_matches_serial_results():
    tasks = _chain(6) + [Task(id=f"x{i}", fn=t_const, args=(i * 10,))
                         for i in range(6)]
    serial = Scheduler(jobs=1).run(list(tasks)).results
    parallel = Scheduler(jobs=4).run(list(tasks)).results
    assert parallel == serial


def test_parallel_retry_on_worker_exception(tmp_path):
    sentinel = str(tmp_path / "seen")
    tasks = [Task(id="flaky", fn=t_fail_once, args=(sentinel, "ok")),
             Task(id="steady", fn=t_const, args=(7,))]
    report = Scheduler(jobs=2, retries=2, backoff=0.01).run(tasks)
    assert report.results == {"flaky": "ok", "steady": 7}
    assert report.retries == 1


def test_parallel_worker_crash_degrades_to_serial(tmp_path):
    sentinel = str(tmp_path / "seen")
    events = []
    tasks = [Task(id="crasher", fn=t_crash_once, args=(sentinel, "ok")),
             Task(id="steady", fn=t_const, args=(7,)),
             Task(id="child", fn=t_const, args=(8,), deps=("crasher",))]
    report = Scheduler(jobs=2, on_event=events.append).run(tasks)
    # The crash killed the pool; the survivor pass ran in-process and the
    # sentinel let the crasher succeed on its serial retry.
    assert report.degraded
    assert report.results["crasher"] == "ok"
    assert report.results["steady"] == 7
    assert report.results["child"] == 8
    assert any(event["kind"] == "degraded" for event in events)


def _recording_pool(monkeypatch):
    """Record each pool submission as its tasks' ``(fn name, args)``."""
    submissions = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def submit(self, fn, calls):
            submissions.append([(task_fn.__name__, args)
                                for task_fn, args in calls])
            return super().submit(fn, calls)

    # The scheduler imports the class from concurrent.futures when its
    # pool starts.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    return submissions


def _independent(n=40):
    return [Task(id=f"x{i}", fn=t_const, args=(i,)) for i in range(n)]


def test_failures_inside_grouped_submissions(tmp_path, monkeypatch):
    """With more tasks ready than two submissions per worker, tasks
    travel in groups; a failing task is retried alone, a permanent
    failure poisons only its dependent, and every other task of those
    groups matches the serial run."""
    def graph(sentinel):
        tasks = _independent()
        tasks[1] = Task(id="flaky", fn=t_fail_once, args=(sentinel, "ok"))
        tasks[7] = Task(id="bad", fn=t_always_fail, retries=0)
        return tasks + [
            Task(id="child", fn=t_const, args=(-1,), deps=("bad",)),
            Task(id="sibling", fn=t_const, args=(-2,), deps=("x0",))]

    serial = Scheduler(jobs=1, retries=2, backoff=0.01).run(
        graph(str(tmp_path / "serial")), raise_on_failure=False)
    submissions = _recording_pool(monkeypatch)
    sentinel = str(tmp_path / "pool")
    report = Scheduler(jobs=2, retries=2).run(graph(sentinel),
                                              raise_on_failure=False)
    flaky = ("t_fail_once", (sentinel, "ok"))

    grouped = [calls for calls in submissions if len(calls) > 1]
    assert any(flaky in calls for calls in grouped)
    assert any(("t_always_fail", ()) in calls for calls in grouped)
    assert [calls for calls in submissions if flaky in calls][-1] == [flaky]
    assert report.retries == 1
    assert report.results["flaky"] == "ok"
    assert set(report.failures) == {"bad", "child"}
    assert "injected permanent failure" in report.failures["bad"]
    assert report.failures["child"].startswith("skipped")
    assert report.results == serial.results
    assert report.failures == serial.failures
    assert not report.degraded


def test_worker_crash_inside_a_group_degrades_and_completes(
        tmp_path, monkeypatch):
    """A worker dying mid-group breaks the pool: every task not yet
    recorded, the rest of its group included, reruns serially."""
    sentinel = str(tmp_path / "seen")
    tasks = _independent()
    tasks[3] = Task(id="crasher", fn=t_crash_once, args=(sentinel, "ok"))
    tasks.append(Task(id="child", fn=t_const, args=(-1,),
                      deps=("crasher",)))
    submissions = _recording_pool(monkeypatch)
    events = []
    report = Scheduler(jobs=2, on_event=events.append).run(tasks)

    crash = ("t_crash_once", (sentinel, "ok"))
    assert any(len(calls) > 1 and crash in calls for calls in submissions)
    assert report.degraded
    assert any(event["kind"] == "degraded" for event in events)
    expected = {f"x{i}": i for i in range(40) if i != 3}
    expected.update(crasher="ok", child=-1)
    assert report.results == expected
    assert not report.failures
    done = [event["task"] for event in events if event["kind"] == "done"]
    assert sorted(done) == sorted(expected)


def test_events_carry_counts(tmp_path):
    events = []
    Scheduler(jobs=1, on_event=events.append).run(_chain(3))
    done = [event for event in events if event["kind"] == "done"]
    assert [event["done"] for event in done] == [1, 2, 3]
    assert all(event["total"] == 3 for event in done)


def test_progress_printer_smoke(capsys):
    printer = ProgressPrinter(min_interval=0.0)
    printer({"kind": "done", "task": "t0", "stage": "trace",
             "done": 1, "failed": 0, "running": 2, "queued": 3,
             "total": 6})
    printer({"kind": "degraded", "task": None, "stage": None,
             "done": 1, "failed": 1, "running": 0, "queued": 4,
             "total": 6})
    err = capsys.readouterr().err
    assert "1/6 done" in err
    assert "serially" in err
