"""``--jobs threads:N``: batched native dispatch through the scheduler.

Thread mode keeps the whole DAG in-process (no persistent store, no
pickling) and runs each wave of ready timing nodes as one C call. The
contract is scheduling-level parity: a threaded run leaves exactly the
artifacts — bit for bit — that a serial run computes, falls back per
point (and per wave) whenever the kernel cannot help, and keeps the
serial path's failure semantics.
"""

import pytest

from repro.exec import batch
from repro.exec import tasks as task_fns
from repro.exec.grid import (baseline_point, build_tasks, dynamic_point,
                             parse_jobs, point_id, run_points,
                             selector_point)
from repro.exec.store import StoreStats
from repro.harness.runner import Runner
from repro.minigraph.selectors import SlackProfileSelector, StructAll
from repro.pipeline import ckern
from repro.pipeline.config import config_by_name

needs_kernel = pytest.mark.skipif(
    not ckern.available(),
    reason="compiled kernel unavailable (no C compiler or REPRO_PURE_PY)")


def test_parse_jobs():
    assert parse_jobs(4) == (4, 0)
    assert parse_jobs("4") == (4, 0)
    assert parse_jobs("1") == (1, 0)
    assert parse_jobs("threads:8") == (1, 8)
    assert parse_jobs(" threads:8 ") == (1, 8)
    jobs, threads = parse_jobs("threads")
    assert jobs == 1 and threads >= 1
    with pytest.raises(ValueError):
        parse_jobs("sixteen")


@pytest.mark.parametrize("bad", [
    "threads:0", "threads:-2", "threads:", "threads:eight",
    "threads:2.5", "0", "-1", "-3", "", "2.5", "jobs:4", 0, -4,
])
def test_parse_jobs_rejects_bad_values(bad):
    """Zero, negative, and malformed specs raise a clean one-liner."""
    with pytest.raises(ValueError) as excinfo:
        parse_jobs(bad)
    message = str(excinfo.value)
    assert "--jobs" in message
    assert "\n" not in message


def _points():
    points = []
    for bench in ("crc32", "adpcm"):
        for config in ("reduced", "full"):
            points.append(baseline_point(bench, config))
            points.append(selector_point(bench, {"kind": "struct-all"},
                                         config))
    points.append(selector_point("fft", SlackProfileSelector(), "reduced"))
    points.append(dynamic_point("crc32", "reduced"))
    return points


def _artifacts(runner):
    """Every timing artifact of :func:`_points`, via the runner memo."""
    out = {}
    for bench in ("crc32", "adpcm"):
        for name in ("reduced", "full"):
            config = config_by_name(name)
            stats = runner.baseline(bench, config)
            out[("baseline", bench, name)] = (stats.cycles, stats.ipc)
            run = runner.run_selector(bench, StructAll(), config)
            out[("struct-all", bench, name)] = \
                (run.stats.cycles, run.ipc, run.coverage)
    run = runner.run_selector("fft", SlackProfileSelector(),
                              config_by_name("reduced"))
    out[("slack-profile", "fft")] = (run.stats.cycles, run.ipc,
                                     run.coverage)
    dyn = runner.run_slack_dynamic("crc32", config_by_name("reduced"))
    out[("slack-dynamic", "crc32")] = (dyn.stats.cycles, dyn.ipc,
                                       dyn.coverage)
    return out


@needs_kernel
def test_threaded_run_points_bit_identical_to_serial(monkeypatch):
    """threads:N prewarms the store with exactly the serial artifacts;
    every timing node rides a wave, the Slack-Dynamic one included."""
    threaded = Runner()
    for task in build_tasks(_points(), threaded):
        if task.stage in ("baseline", "profile", "timing"):
            assert batch.is_batchable(task), task.id
    batched = set()
    real_wave = batch.run_batch_wave

    def recording_wave(tasks, threads):
        done = real_wave(tasks, threads)
        batched.update(done)
        return done

    monkeypatch.setattr(batch, "run_batch_wave", recording_wave)
    before = ckern.counters["batch_points"]
    report = run_points(threaded, _points(), jobs=1, threads=4)
    assert not report.failures
    assert ckern.counters["batch_points"] > before  # batches actually ran
    assert point_id(dynamic_point("crc32", "reduced")) in batched

    serial = Runner()
    serial_report = run_points(serial, _points(), jobs=1)
    assert not serial_report.failures
    assert _artifacts(threaded) == _artifacts(serial)
    # Both reports completed the same task set.
    assert set(report.results) == set(serial_report.results)
    assert report.results == serial_report.results


@needs_kernel
def test_threads_need_no_persistent_store():
    """Unlike --jobs N, thread mode runs against a memory-only store;
    the tasks compute in the caller's runner, so its replay of the
    same points computes nothing a second time."""
    runner = Runner()
    assert not runner.store.persistent
    with pytest.raises(ValueError):
        run_points(runner, _points()[:2], jobs=2)
    report = run_points(runner, _points()[:2], jobs=1, threads=2)
    assert not report.failures
    runner.store.stats = StoreStats()
    config = config_by_name("reduced")
    runner.baseline("crc32", config)
    runner.run_selector("crc32", StructAll(), config)
    assert runner.store.stats.misses == 0
    assert runner.store.stats.puts == 0


def test_threads_degrade_to_serial_without_kernel(monkeypatch):
    """REPRO_PURE_PY: every wave falls back to the per-point path."""
    monkeypatch.setenv("REPRO_PURE_PY", "1")
    runner = Runner()
    report = run_points(runner, _points()[:4], jobs=1, threads=4)
    assert not report.failures
    serial = Runner()
    run_points(serial, _points()[:4], jobs=1)
    config = config_by_name("reduced")
    assert runner.baseline("crc32", config).cycles == \
        serial.baseline("crc32", config).cycles


@needs_kernel
def test_threaded_summaries_match_task_shapes():
    """Batched summaries are indistinguishable from task returns."""
    runner = Runner()
    report = run_points(runner, _points(), jobs=1, threads=2)
    for tid, summary in report.results.items():
        stage = tid.split("/", 1)[0]
        if stage == "timing":
            assert set(summary) == {"ipc", "coverage"}
        elif stage == "baseline":
            assert set(summary) == {"ipc"}
        elif stage == "profile":
            assert set(summary) == {"entries"}


@needs_kernel
def test_threaded_stage_wall_fits_in_elapsed(monkeypatch):
    """Batched points share one native call; their per-stage durations
    must not count that call once per point."""
    # Fresh task runners: memory stores warmed by earlier tests would
    # turn every point into a store hit.
    monkeypatch.setattr(task_fns, "_RUNNERS", {})
    before = ckern.counters["batch_points"]
    report = run_points(Runner(), _points(), jobs=1, threads=2)
    assert not report.failures
    assert ckern.counters["batch_points"] > before
    assert sum(report.stage_wall.values()) <= report.elapsed
