"""Checkpoint/resume end to end: a resume schedules exactly the nodes
whose durable outputs are missing — no more (wasted recompute) and no
less (silent gaps).

The SIGKILL test runs the grid in a subprocess and kills it with signal
9 mid-run (a real torn process: open ledger handle, half-written store),
then resumes in this process and asserts zero re-execution of artifacts
that survived — the PR's acceptance criterion.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.dist.ledger import LedgerError, RunLedger
from repro.dist.resume import (
    open_ledger, prune_cached, resume_run, workload_for_limit_study,
    workload_for_points,
)
from repro.exec import tasks as task_fns
from repro.exec.dag import Scheduler
from repro.exec.grid import (
    baseline_point, build_tasks, run_points, selector_point,
)
from repro.exec.store import ArtifactStore, iter_sidecars
from repro.harness.runner import Runner
from repro.minigraph.selectors import StructAll

BENCHES = ("crc32", "adpcm", "sha")


def _points():
    points = [baseline_point(bench, "reduced") for bench in BENCHES]
    points.append(selector_point("crc32", StructAll(), "reduced"))
    return points


def _run_with_ledger(tmp_path):
    runner = Runner(store=ArtifactStore(tmp_path / "cache"))
    points = _points()
    ledger_path = tmp_path / "run.jsonl"
    ledger = open_ledger(ledger_path, runner,
                         workload_for_points(points), extra={"jobs": 1})
    try:
        report = run_points(runner, points, jobs=1, ledger=ledger)
    finally:
        ledger.close()
    assert not report.failures
    # Resume re-probes through a fresh Runner; drop this process's task
    # runner cache so deleted disk artifacts cannot be resurrected from
    # a stale memory layer.
    task_fns._RUNNERS.clear()
    return ledger_path


# -- store probes: which nodes resume may skip --------------------------------

PROBE_POINTS = [
    baseline_point("crc32", "reduced", "train"),
    selector_point("crc32", {"kind": "struct-all"}, "reduced", "train"),
    selector_point("crc32", {"kind": "slack-profile"}, "reduced", "train"),
]


@pytest.fixture(scope="module")
def warm_runner(tmp_path_factory):
    """A runner whose store has already executed ``PROBE_POINTS``."""
    runner = Runner(store=ArtifactStore(tmp_path_factory.mktemp("warm")))
    Scheduler(jobs=1).run(build_tasks(PROBE_POINTS, runner))
    return runner


def test_every_store_backed_node_has_an_address(warm_runner):
    tasks = build_tasks(PROBE_POINTS, warm_runner, check=True)
    addressed = {t.stage: task_fns.task_artifact(warm_runner, t) is not None
                 for t in tasks}
    assert addressed["trace"] and addressed["baseline"]
    assert addressed["plan"] and addressed["timing"]
    assert not addressed["check"]          # recomputes by design


def test_cold_dag_keeps_everything():
    runner = Runner(store=ArtifactStore())    # empty memory-only store
    tasks = build_tasks(PROBE_POINTS, runner)
    kept, pruned = prune_cached(runner, tasks)
    assert pruned == []
    assert [t.id for t in kept] == [t.id for t in tasks]


def test_executed_dag_prunes_to_nothing(warm_runner):
    """Repeat work schedules nothing."""
    tasks = build_tasks(PROBE_POINTS, warm_runner)
    kept, pruned = prune_cached(warm_runner, tasks)
    assert kept == []
    assert sorted(pruned) == sorted(t.id for t in tasks)


def test_partial_prune_drops_dead_edges(warm_runner):
    """A DAG mixing warm and cold points keeps only the cold subgraph,
    with dependency edges into pruned nodes removed."""
    mixed = PROBE_POINTS + [
        selector_point("crc32", {"kind": "struct-none"}, "reduced",
                       "train"),
    ]
    tasks = build_tasks(mixed, warm_runner)
    kept, pruned = prune_cached(warm_runner, tasks)
    assert kept, "the struct-none plan/run must still be cold"
    kept_ids = {t.id for t in kept}
    dead = set(pruned)
    for task in kept:
        for dep in task.deps:
            assert dep in kept_ids and dep not in dead
    # And the kept subgraph actually executes on its own.
    report = Scheduler(jobs=1).run(kept)
    assert len(report.results) == len(kept)


def test_check_nodes_are_never_pruned(warm_runner):
    tasks = build_tasks(PROBE_POINTS, warm_runner, check=True)
    kept, _ = prune_cached(warm_runner, tasks)
    assert {t.stage for t in kept} == {"check"}


class TestResume:
    def test_complete_run_resumes_to_zero_work(self, tmp_path):
        ledger_path = _run_with_ledger(tmp_path)
        summary = resume_run(ledger_path)
        assert summary["kind"] == "experiments"
        assert summary["scheduled"] == 0
        assert summary["skipped"] == summary["total"]
        assert summary["failed"] == 0

    def test_resume_schedules_exactly_the_missing_nodes(self, tmp_path):
        ledger_path = _run_with_ledger(tmp_path)
        cache = tmp_path / "cache"
        # Destroy exactly one durable output (a baseline timing run).
        victims = [key for key, meta in iter_sidecars(cache)
                   if meta.get("kind") == "baseline"]
        store = ArtifactStore(cache)
        store.backend.delete(victims[0])
        task_fns._RUNNERS.clear()

        before = {path: path.stat().st_mtime_ns
                  for path in cache.glob("??/*.pkl")}
        summary = resume_run(ledger_path)
        assert summary["scheduled"] == 1
        assert summary["completed"] == 1
        assert summary["skipped"] == summary["total"] - 1
        assert summary["failed"] == 0
        # The deleted artifact is durable again...
        assert any(meta.get("kind") == "baseline" and key == victims[0]
                   for key, meta in iter_sidecars(cache))
        # ...and nothing that already existed was rewritten.
        for path, mtime in before.items():
            assert path.stat().st_mtime_ns == mtime, path
        # A second resume finds everything durable.
        task_fns._RUNNERS.clear()
        again = resume_run(ledger_path)
        assert again["scheduled"] == 0

    def test_salt_mismatch_refused_without_force(self, tmp_path):
        ledger_path = _run_with_ledger(tmp_path)
        header, _, _ = RunLedger.load(ledger_path)
        lines = ledger_path.read_text().splitlines()
        header["salt"] = "stale" * 3
        lines[0] = json.dumps(header, sort_keys=True)
        ledger_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LedgerError, match="salt changed"):
            resume_run(ledger_path)
        # allow_stale proceeds (and, same code, same store: all durable).
        summary = resume_run(ledger_path, allow_stale=True)
        assert summary["failed"] == 0

    def test_header_with_store_backend_key_still_resumes(self, tmp_path):
        """Ledgers written before the store had one disk layout carry
        ``store_backend`` in the header and the runner params."""
        ledger_path = _run_with_ledger(tmp_path)
        lines = ledger_path.read_text().splitlines()
        header = json.loads(lines[0])
        header["store_backend"] = "dir"
        header["runner"]["store_backend"] = "dir"
        lines[0] = json.dumps(header, sort_keys=True)
        ledger_path.write_text("\n".join(lines) + "\n")
        summary = resume_run(ledger_path)
        assert summary["failed"] == 0
        assert summary["scheduled"] == 0
        assert summary["skipped"] == summary["total"]

    def test_unknown_workload_kind_refused(self, tmp_path):
        runner = Runner(store=ArtifactStore(tmp_path / "cache"))
        ledger = open_ledger(tmp_path / "run.jsonl", runner,
                             {"kind": "mystery"})
        ledger.close()
        with pytest.raises(LedgerError, match="not resumable"):
            resume_run(tmp_path / "run.jsonl")


class TestLimitStudyResume:
    def test_resume_reuses_durable_subset_masks(self, tmp_path):
        from repro.analysis.limit_study import run_limit_study
        from repro.pipeline.config import reduced_config

        runner = Runner(store=ArtifactStore(tmp_path / "cache"))
        ledger_path = tmp_path / "study.jsonl"
        ledger = open_ledger(
            ledger_path, runner,
            workload_for_limit_study("adpcm", "tiny", "reduced", 10, 8))
        try:
            result = run_limit_study(runner, bench="adpcm",
                                     input_name="tiny",
                                     config=reduced_config(),
                                     subset_cap=8,
                                     progress=ledger.sink(None))
            ledger.complete(len(result.points), 0)
        finally:
            ledger.close()
        task_fns._RUNNERS.clear()
        summary = resume_run(ledger_path)
        assert summary["kind"] == "limit-study"
        assert summary["scheduled"] == 0      # every mask was a store hit
        assert summary["skipped"] > 0
        assert summary["completed"] == summary["total"]


_CHILD = """
import os, signal, sys
sys.path.insert(0, {src!r})
from repro.dist.resume import open_ledger, workload_for_points
from repro.exec.grid import baseline_point, run_points
from repro.exec.store import ArtifactStore
from repro.harness.runner import Runner

benches = {benches!r}
points = [baseline_point(bench, "reduced") for bench in benches]
runner = Runner(store=ArtifactStore({cache!r}))
ledger = open_ledger({ledger!r}, runner, workload_for_points(points),
                     extra={{"jobs": 1}})

done = 0
def on_event(event):
    global done
    if event.get("kind") == "done":
        done += 1
        if done == {kill_after}:
            os.kill(os.getpid(), signal.SIGKILL)   # no cleanup, no flush

run_points(runner, points, jobs=1, ledger=ledger, on_event=on_event)
"""


class TestKillResume:
    def test_sigkill_mid_run_then_resume_recomputes_nothing_durable(
            self, tmp_path):
        src = str(Path(__file__).resolve().parents[2] / "src")
        cache = tmp_path / "cache"
        ledger_path = tmp_path / "run.jsonl"
        benches = ("crc32", "adpcm", "sha", "bitcount", "qsort",
                   "stringsearch")
        script = _CHILD.format(src=src, benches=benches,
                               cache=str(cache), ledger=str(ledger_path),
                               kill_after=4)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, timeout=300)
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()

        header, journaled, completed = RunLedger.load(ledger_path)
        assert completed is False
        done = [t for t, s in journaled.items() if s == "done"]
        assert len(done) >= 4                  # it really died mid-run

        survivors = {path: path.stat().st_mtime_ns
                     for path in cache.glob("??/*.pkl")}
        assert survivors                        # partial store exists
        time.sleep(0.01)                        # mtime granularity guard

        summary = resume_run(ledger_path)
        assert summary["failed"] == 0
        assert summary["skipped"] == len(survivors)
        assert summary["scheduled"] == summary["total"] - len(survivors)
        assert summary["completed"] == summary["scheduled"]
        # Zero re-executed nodes whose artifacts already existed: every
        # surviving payload is byte-for-byte untouched.
        for path, mtime in survivors.items():
            assert path.stat().st_mtime_ns == mtime, path
        # The resumed run is now complete end to end.
        _, _, finished = RunLedger.load(ledger_path)
        assert finished is True
