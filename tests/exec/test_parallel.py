"""End-to-end engine tests: grid dedup, parallel determinism, cache reuse."""

import dataclasses
import json
import shutil
from collections import Counter

import pytest

from repro.exec.grid import (
    baseline_point, build_tasks, dynamic_point, point_address, point_id,
    run_points, selector_point,
)
from repro.exec.store import ArtifactStore
from repro.exec.tasks import task_artifact
from repro.harness.experiments import EXPERIMENTS, fig1, grid_points
from repro.harness.runner import Runner
from repro.minigraph.selectors import (
    SlackProfileSelector, StructAll, StructNone, selector_from_spec,
)
from repro.pipeline.config import full_config, reduced_config
from repro.workloads import Benchmark, all_benchmarks, benchmark

BENCHES = ("crc32", "adpcm")


def _points():
    points = []
    for bench in BENCHES:
        points.append(baseline_point(bench, "full"))
        points.append(baseline_point(bench, "reduced"))
        points.append(selector_point(bench, StructAll(), "reduced"))
        points.append(selector_point(bench, SlackProfileSelector(),
                                     "reduced"))
        points.append(dynamic_point(bench, "reduced", mode="full",
                                    outlining_penalty=True))
    return points


def _collect(runner):
    """The per-benchmark result tuple the figures are built from."""
    out = {}
    for bench in BENCHES:
        out[bench] = (
            runner.baseline(bench, full_config()).ipc,
            runner.baseline(bench, reduced_config()).ipc,
            runner.run_selector(bench, StructAll(), reduced_config()).ipc,
            runner.run_selector(bench, SlackProfileSelector(),
                                reduced_config()).ipc,
            runner.run_slack_dynamic(bench, reduced_config()).ipc,
            runner.run_selector(bench, StructAll(),
                                reduced_config()).coverage,
        )
    return out


def test_grid_dedups_shared_upstream_nodes():
    """Only results are nodes: a baseline or profile depends on nothing,
    and a timing run only on the profile its plan reads, shared by
    every point that reads it."""
    runner = Runner()
    tasks = build_tasks(_points(), runner)
    by_stage = {}
    for task in tasks:
        by_stage.setdefault(task.stage, []).append(task)
    assert set(by_stage) == {"baseline", "profile", "timing"}
    # One profile per benchmark: slack-profile's reduced trainer.
    assert len(by_stage["profile"]) == len(BENCHES)
    for task in by_stage["baseline"] + by_stage["profile"]:
        assert task.deps == ()
    profiled = [task for task in by_stage["timing"] if task.deps]
    assert len(profiled) == len(BENCHES)
    for task in profiled:
        assert "/slack-profile" in task.id
        (dep,) = task.deps
        assert dep.startswith("profile/")
    assert len(set(task.id for task in tasks)) == len(tasks)


def test_parallel_and_serial_are_identical(tmp_path):
    """Pool workers compute their own traces. Two inputs: a cold parent
    runner, and one that already holds its traces in memory when
    ``run_points`` starts; neither may change what workers compute.
    """
    serial = _collect(Runner())

    for warm_traces in (False, True):
        cache = tmp_path / f"cache-{'warm' if warm_traces else 'cold'}"
        runner = Runner(store=ArtifactStore(cache))
        if warm_traces:
            for bench in BENCHES:
                runner.trace(bench)
        report = run_points(runner, _points(), jobs=4)
        assert not report.failures
        # Replay through a fresh runner over the warmed store: everything
        # is a cache hit and the numbers match the serial in-process run.
        replay = Runner(store=ArtifactStore(cache))
        assert _collect(replay) == serial, warm_traces
        stats = replay.store.stats
        assert stats.misses == 0
        assert stats.hit_rate == 1.0


def test_pool_builds_each_program_once_before_it_forks(tmp_path,
                                                        monkeypatch):
    """A pooled run builds, in the parent and once per (benchmark,
    input), the programs its nodes read: a point's own input and a
    selector point's profiling input. Forked workers inherit them."""
    built = []
    program = Benchmark.program

    def counted(self, input_name="train"):
        built.append((self.name, input_name))
        return program(self, input_name)

    monkeypatch.setattr(Benchmark, "program", counted)
    points = [baseline_point("crc32", "full", "ref"),
              selector_point("crc32", SlackProfileSelector(), "reduced",
                             "ref", profile_input="train"),
              dynamic_point("crc32", "reduced", "ref")]
    report = run_points(Runner(store=ArtifactStore(tmp_path)), points,
                        jobs=2)
    assert not report.failures
    assert built == [("crc32", "ref"), ("crc32", "train")]


def test_jobs_one_scheduler_matches_direct_calls(tmp_path):
    store = ArtifactStore(tmp_path / "cache")
    runner = Runner(store=store)
    report = run_points(runner, _points(), jobs=1)
    assert not report.failures
    assert _collect(Runner(store=store)) == _collect(Runner())


@pytest.fixture(scope="module")
def fig1_store(tmp_path_factory):
    """A store one cold Figure 1 regeneration filled, and its text."""
    benches = all_benchmarks(suites=["comm"])[:2]
    cache = tmp_path_factory.mktemp("fig1-store")
    runner = Runner(store=ArtifactStore(cache))
    report = run_points(runner, grid_points("fig1", benches), jobs=1,
                        threads=2)
    assert not report.failures
    return cache, benches, fig1(runner, benches).render(full_tables=True)


def test_warm_rerun_schedules_nothing_and_loads_no_upstream(fig1_store):
    """The replay reads only timing artifacts, so a warm rerun needs no
    trace, candidate, profile or plan artifact at all."""
    cache, benches, cold_text = fig1_store
    runner = Runner(store=ArtifactStore(cache))
    points = grid_points("fig1", benches)
    report = run_points(runner, points, jobs=1, threads=2)
    assert report.results == {}
    assert len(report.pruned) == len(build_tasks(points, runner))
    assert report.render().endswith(f", {len(report.pruned)} pruned")
    assert fig1(runner, benches).render(full_tables=True) == cold_text
    loaded = set(runner.store.stats.by_kind)
    assert not loaded & {"trace", "candidates", "profile", "plan"}
    assert runner.store.stats.puts == 0


def test_cold_store_holds_only_results(tmp_path):
    """A cold pool run stores results, not inputs: no trace, candidate
    list or plan reaches the disk, and a fresh runner over the same
    directory prints the same figures without a write."""
    benches = all_benchmarks(suites=["comm"])[:2]
    names = ("fig1", "fig6")
    points = [point for name in names for point in grid_points(name, benches)]
    runner = Runner(store=ArtifactStore(tmp_path))
    report = run_points(runner, points, jobs=2)
    assert not report.failures
    texts = [EXPERIMENTS[name](runner, benches).render(full_tables=True)
             for name in names]
    assert set(runner.store.disk_summary()) == {
        "baseline", "profile", "run", "run-dynamic"}
    replay = Runner(store=ArtifactStore(tmp_path))
    assert [EXPERIMENTS[name](replay, benches).render(full_tables=True)
            for name in names] == texts
    assert replay.store.stats.puts == 0


@pytest.mark.parametrize("name", ["fig1", "fig3", "fig6", "fig7",
                                  "fig9-machines", "fig9-inputs"])
def test_figure_reads_only_what_its_grid_scheduled(name, tmp_path):
    """Each S-curve figure derives its grid and its reading from one
    declaration: after ``run_points`` the figure computes and misses
    nothing, and reads what a memory-only serial run computes."""
    benches = all_benchmarks(suites=["comm"])[:2]
    runner = Runner(store=ArtifactStore(tmp_path / "cache"))
    report = run_points(runner, grid_points(name, benches), jobs=1,
                        threads=2)
    assert not report.failures
    stats = runner.store.stats
    before = (stats.puts, stats.misses)
    text = EXPERIMENTS[name](runner, benches).render(full_tables=True)
    assert (stats.puts, stats.misses) == before
    assert text == EXPERIMENTS[name](Runner(), benches).render(
        full_tables=True)


@pytest.mark.parametrize("name", ["fig6", "fig7", "fig9-machines",
                                  "fig9-inputs"])
def test_node_addresses_are_the_keys_their_tasks_store(name, tmp_path):
    """Every store-backed node's address is the key its task writes, for
    self- and cross-trained points alike: after a ``check`` run the DAG's
    addresses and the store's keys are one set."""
    runner = Runner(max_insts=60_000, store=ArtifactStore(tmp_path))
    points = grid_points(name, [benchmark("crc32")])
    report = run_points(runner, points, jobs=1, check=True)
    assert not report.failures
    addresses = set()
    for task in build_tasks(points, runner, check=True):
        address = task_artifact(runner, task)
        if address is not None:
            kind, params = address
            addresses.add((runner.store.key(kind, params), kind))
    stored = {(key, kind) for key, kind, _ in runner.store.backend.entries()}
    assert addresses == stored


def test_no_two_nodes_share_a_spec():
    """Every node's spec, as JSON with points as text (the key traced
    telemetry files a task's spans under), is unique in its DAG: in
    every figure's grid, with and without check nodes."""
    benches = all_benchmarks(suites=["comm"])[:2]

    def text(task):
        return json.dumps(task.args[0], sort_keys=True, default=str)

    stages = set()
    for name in sorted(EXPERIMENTS):
        for check in (False, True):
            tasks = build_tasks(grid_points(name, benches), Runner(),
                                check=check)
            counts = Counter(text(task) for task in tasks)
            shared = [task.id for task in tasks if counts[text(task)] > 1]
            assert shared == [], (name, check)
            stages.update(task.stage for task in tasks)
    assert stages == {"baseline", "profile", "timing", "check"}


def test_corrupt_payloads_are_recomputed_where_they_are_read(
        fig1_store, tmp_path):
    """Probes never read a payload, so a truncated one is found by the
    reader: a pruned ``run`` by the figure replay, and a ``profile`` by
    the scheduled timing task whose ``run`` artifact is missing."""
    source, benches, cold_text = fig1_store
    cache = tmp_path / "store"
    shutil.copytree(source, cache)
    store = ArtifactStore(cache)
    keys = Runner(store=store)

    def truncate(key, kind):
        payload = store.backend.payload_path(key, kind)
        payload.write_bytes(payload.read_bytes()[:10])

    bench = benches[0].name
    profiled = selector_point(bench, SlackProfileSelector(), "reduced")
    run_key = store.key(*point_address(keys, profiled))
    truncate(next(key for key, kind, _ in store.backend.entries()
                  if kind == "run" and key != run_key), "run")
    truncate(store.key("profile", keys.profile_params(
        bench, reduced_config(), "train", False)), "profile")
    assert store.contains(run_key, "run")
    store.backend.delete(run_key, "run")

    runner = Runner(store=ArtifactStore(cache))
    report = run_points(runner, grid_points("fig1", benches), jobs=1,
                        threads=2)
    assert set(report.results) == {point_id(profiled)}
    assert runner.store.stats.corrupt_dropped == 1    # the profile
    assert fig1(runner, benches).render(full_tables=True) == cold_text
    assert runner.store.stats.corrupt_dropped == 2    # and the run


def test_parallel_requires_persistent_store():
    with pytest.raises(ValueError, match="persistent"):
        run_points(Runner(), _points(), jobs=2)


def test_limit_study_pool_requires_persistent_store():
    """The limit study keeps run_points' contract: a pool without a disk
    store raises before any work instead of running serially."""
    from repro.analysis.limit_study import run_limit_study
    runner = Runner()
    with pytest.raises(ValueError, match="persistent"):
        run_limit_study(runner, subset_cap=8, jobs=2)
    assert runner.store.stats.misses == 0


def test_runner_key_includes_max_insts(tmp_path):
    """The seed's memo-key bug: artifacts keyed without max_insts aliased.

    Two runners with different instruction limits sharing one store must
    produce two distinct baseline artifacts, not alias the first one.
    """
    store = ArtifactStore(tmp_path / "cache")
    first = Runner(max_insts=1_000_000, store=store)
    second = Runner(max_insts=2_000_000, store=store)
    first.baseline("crc32", reduced_config())
    second.baseline("crc32", reduced_config())
    assert store.stats.misses == 2  # no aliasing: both were computed
    assert store.disk_summary()["baseline"]["count"] == 2


def test_runner_cross_process_cache_reuse(tmp_path):
    """A second runner over the same directory reads the first one's
    result from disk; each runner computes its own trace."""
    first = Runner(store=ArtifactStore(tmp_path / "cache"))
    stats = first.baseline("crc32", reduced_config())
    second = Runner(store=ArtifactStore(tmp_path / "cache"))
    again = second.baseline("crc32", reduced_config())
    assert again is not stats  # different store instance...
    assert again.cycles == stats.cycles  # ...same artifact
    assert second.store.stats.disk_hits == 1
    assert second.trace("crc32") is not first.trace("crc32")
    assert second.store.stats.lookups == 1


def test_selector_run_is_frozen():
    runner = Runner()
    run = runner.run_selector("crc32", StructNone(), reduced_config())
    with pytest.raises(dataclasses.FrozenInstanceError):
        run.selector = "renamed"


def test_slack_dynamic_label_set_at_construction():
    runner = Runner()
    ideal = runner.run_slack_dynamic("crc32", reduced_config(), mode="sial",
                                     outlining_penalty=False)
    assert ideal.selector == "ideal-slack-dynamic-sial"


def test_selector_spec_roundtrip():
    for selector in (StructAll(), StructNone(),
                     SlackProfileSelector("delay", unprofiled_ok=False)):
        rebuilt = selector_from_spec(selector.spec())
        assert rebuilt.name == selector.name
        assert rebuilt.spec() == selector.spec()


def test_limit_study_parallel_matches_serial(tmp_path):
    from repro.analysis.limit_study import run_limit_study
    serial = run_limit_study(Runner(), subset_cap=16)
    parallel = run_limit_study(
        Runner(store=ArtifactStore(tmp_path / "cache"), jobs=3),
        subset_cap=16, jobs=3)
    assert [dataclasses.astuple(p) for p in parallel.points] == \
        [dataclasses.astuple(p) for p in serial.points]
    assert parallel.render() == serial.render()


def test_limit_study_chunks_match_across_job_counts(tmp_path):
    """Serial and pool sweeps into fresh stores give equal points, equal
    output and the same store files (three chunks: 64 + 64 + 2)."""
    from repro.analysis.limit_study import run_limit_study
    studies, files = [], []
    for jobs in (1, 2):
        cache = tmp_path / f"jobs{jobs}"
        studies.append(run_limit_study(
            Runner(store=ArtifactStore(cache), jobs=jobs),
            subset_cap=130, jobs=jobs))
        files.append(sorted(path.relative_to(cache).as_posix()
                            for path in cache.glob("??/*.pkl")))
    serial, parallel = studies
    assert parallel.points == serial.points
    assert parallel.render() == serial.render()
    assert files[0] == files[1]
