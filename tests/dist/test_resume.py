"""Resuming a killed run: rerunning the same points over the same store
schedules exactly the nodes whose durable outputs are missing — no more
(wasted recompute) and no less (silent gaps).

The SIGKILL test runs the grid in a subprocess and kills it with signal
9 mid-run (a real torn process: half-written store), then reruns the
same points in this process and asserts zero re-execution of artifacts
that survived.
"""

import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.exec import tasks as task_fns
from repro.exec.dag import Scheduler
from repro.exec.grid import (
    baseline_point, build_tasks, prune_cached, run_points, selector_point,
)
from repro.exec.store import ArtifactStore
from repro.harness.runner import Runner
from repro.minigraph.selectors import StructAll

BENCHES = ("crc32", "adpcm", "sha")


def _points():
    points = [baseline_point(bench, "reduced") for bench in BENCHES]
    points.append(selector_point("crc32", StructAll(), "reduced"))
    return points


def _run_fresh(cache, points):
    """Run ``points`` as a fresh process would: a new runner over
    ``cache``, so nothing can be served from an earlier memory layer."""
    report = run_points(Runner(store=ArtifactStore(cache)), points, jobs=1)
    assert not report.failures
    return report


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
    """Every node but ``check`` is a stored result; traces, candidates
    and plans are no nodes at all."""
    tasks = build_tasks(PROBE_POINTS, warm_runner, check=True)
    addressed = {t.stage: task_fns.task_artifact(warm_runner, t) is not None
                 for t in tasks}
    assert addressed == {"baseline": True, "profile": True, "timing": True,
                         "check": False}   # a check recomputes by design


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
        cache = tmp_path / "cache"
        first = _run_fresh(cache, _points())
        assert first.results and not first.pruned
        report = _run_fresh(cache, _points())
        assert report.results == {}
        assert len(report.pruned) == len(first.results)

    def test_resume_schedules_exactly_the_missing_nodes(self, tmp_path):
        cache = tmp_path / "cache"
        total = len(_run_fresh(cache, _points()).results)
        # Destroy exactly one durable output (a baseline timing run).
        backend = ArtifactStore(cache).backend
        victims = [key for key, kind, _ in backend.entries()
                   if kind == "baseline"]
        backend.delete(victims[0], "baseline")

        before = {path: path.stat().st_mtime_ns
                  for path in cache.glob("??/*.pkl")}
        report = _run_fresh(cache, _points())
        assert len(report.results) == 1
        assert len(report.pruned) == total - 1
        # The deleted artifact is durable again...
        assert any(kind == "baseline" and key == victims[0]
                   for key, kind, _ in backend.entries())
        # ...and nothing that already existed was rewritten.
        for path, mtime in before.items():
            assert path.stat().st_mtime_ns == mtime, path
        # The next rerun finds everything durable.
        assert _run_fresh(cache, _points()).results == {}


class TestLimitStudyResume:
    def test_resume_reuses_durable_subset_masks(self, tmp_path):
        """A pool-path rerun over a partly warm store evaluates only the
        chunk of subset masks whose payload is gone."""
        from repro.analysis.limit_study import CHUNK, run_limit_study
        from repro.pipeline.config import full_config, reduced_config

        cache = tmp_path / "cache"

        def study(jobs):
            return run_limit_study(Runner(store=ArtifactStore(cache)),
                                   bench="adpcm", input_name="tiny",
                                   config=reduced_config(), subset_cap=130,
                                   jobs=jobs).render()

        first = study(jobs=1)          # three chunks: 64 + 64 + 2 masks
        runner = Runner(store=ArtifactStore(cache))
        baseline_ipc = runner.baseline("adpcm", full_config(), "tiny").ipc
        victim = runner.store.key("subset", runner.subset_params(
            "adpcm", "tiny", reduced_config(), 10, CHUNK, CHUNK,
            baseline_ipc))
        victim_path = runner.store.backend.payload_path(victim, "subset")
        assert victim_path.exists()
        runner.store.backend.delete(victim, "subset")
        before = {path: path.stat().st_mtime_ns
                  for path in cache.glob("??/*.pkl")}
        task_fns._RUNNERS.clear()      # workers fork from this process

        assert study(jobs=2) == first
        after = set(cache.glob("??/*.pkl"))
        assert after - set(before) == {victim_path}
        for path, mtime in before.items():
            assert path.stat().st_mtime_ns == mtime, path


_CHILD = """
import os, signal, sys
sys.path.insert(0, {src!r})
from repro.exec.grid import baseline_point, run_points
from repro.exec.store import ArtifactStore
from repro.harness.runner import Runner

benches = {benches!r}
points = [baseline_point(bench, "reduced") for bench in benches]
runner = Runner(store=ArtifactStore({cache!r}))

done = 0
def on_event(event):
    global done
    if event.get("kind") == "done":
        done += 1
        if done == {kill_after}:
            os.kill(os.getpid(), signal.SIGKILL)   # no cleanup, no flush

run_points(runner, points, jobs=1, on_event=on_event)
"""


class TestKillResume:
    def test_sigkill_mid_run_then_resume_recomputes_nothing_durable(
            self, tmp_path):
        src = str(Path(__file__).resolve().parents[2] / "src")
        cache = tmp_path / "cache"
        benches = ("crc32", "adpcm", "sha", "bitcount", "qsort",
                   "stringsearch")
        script = _CHILD.format(src=src, benches=benches,
                               cache=str(cache), kill_after=4)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, timeout=300)
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()

        survivors = {path: path.stat().st_mtime_ns
                     for path in cache.glob("??/*.pkl")}
        assert len(survivors) >= 4              # it really died mid-run
        time.sleep(0.01)                        # mtime granularity guard

        points = [baseline_point(bench, "reduced") for bench in benches]
        report = _run_fresh(cache, points)
        assert len(report.pruned) == len(survivors)
        assert report.results                   # the rest was scheduled
        # Zero re-executed nodes whose artifacts already existed: every
        # surviving payload is byte-for-byte untouched.
        for path, mtime in survivors.items():
            assert path.stat().st_mtime_ns == mtime, path
        # The rerun left the store complete end to end.
        assert _run_fresh(cache, points).results == {}
