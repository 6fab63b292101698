"""Unit tests of the benchmark's sampler, span arithmetic and verdicts.

Run with ``python3 -m pytest benchmarks/e2e`` from the repository root.
"""

from __future__ import annotations

import json
import os

import compare
import run
import spans

SUITE_SIZES = (("spec", 12), ("media", 10), ("comm", 10), ("embedded", 14),
               ("synth", 32))
POPULATION = [dict({"name": f"{suite}{i:02d}", "suite": suite},
                    **{cost: 1 + (i * 7919 * (k + 3)) % 1400 / 100
                       for k, cost in enumerate(run.COSTS)})
              for suite, count in SUITE_SIZES for i in range(count)]


# -- stratified sampler -------------------------------------------------------

def _per_suite(names):
    suites = {p["name"]: p["suite"] for p in POPULATION}
    counts = {}
    for name in names:
        counts[suites[name]] = counts.get(suites[name], 0) + 1
    return counts


def test_quotas_are_proportional_to_suite_sizes():
    assert run.suite_quotas(POPULATION, 24) == {
        "spec": 4, "media": 3, "comm": 3, "embedded": 4, "synth": 10}
    assert run.suite_quotas(POPULATION, 12) == {
        "spec": 2, "media": 2, "comm": 1, "embedded": 2, "synth": 5}
    assert sum(run.suite_quotas(POPULATION, 3).values()) == 3


def test_sample_is_deterministic_per_seed_and_stratified():
    first = run.sample_programs(POPULATION, 7, 12)
    assert first == run.sample_programs(POPULATION, 7, 12)
    assert len(set(first)) == 12
    assert _per_suite(first) == run.suite_quotas(POPULATION, 12)


def test_samples_differ_across_seeds():
    samples = {tuple(run.sample_programs(POPULATION, seed, 12))
               for seed in range(10)}
    assert len(samples) >= 8


def test_sample_costs_are_balanced_across_seeds():
    by_name = {p["name"]: p for p in POPULATION}
    samples = [run.sample_programs(POPULATION, seed, 12)
               for seed in range(10)]
    for cost in run.COSTS:
        totals = [sum(by_name[name][cost] for name in sample)
                  for sample in samples]
        assert (max(totals) - min(totals)) / min(totals) < 0.05, cost


def test_committed_population_matches_the_registry():
    from repro.workloads import all_benchmarks
    table = json.loads(run.PROGRAMS.read_text())
    assert {(p["name"], p["suite"]) for p in table} == \
        {(bench.name, bench.suite) for bench in all_benchmarks()}
    assert all(p[cost] > 0 for p in table for cost in run.COSTS)


# -- span arithmetic ----------------------------------------------------------

def _span(id_, name, t0, t1, parent=None, **counts):
    span = {"id": id_, "name": name, "t0": t0, "t1": t1, "parent": parent,
            "task": None, "pid": 1}
    if counts:
        span["n"] = counts
    return span


def test_covered_merges_overlaps_and_clips():
    assert spans.covered([(10, 30), (20, 50), (60, 70)], 0, 100) == 50
    assert spans.covered([(-10, 20), (90, 120)], 0, 100) == 30
    assert spans.covered([], 0, 100) == 0


def test_self_time_subtracts_union_of_children():
    tree = [_span("a", "exec.scheduler", 0, 100),
            # two workers overlap in [20, 30]
            _span("b", "exec.task", 10, 30, parent="a"),
            _span("c", "exec.task", 20, 50, parent="a"),
            _span("d", "pipeline.run", 12, 18, parent="b"),
            _span("e", "pipeline.run", 14, 16, parent="d")]
    assert spans.self_times(tree) == {"a": 60, "b": 14, "c": 30, "d": 4,
                                      "e": 2}


def test_layer_metrics_counts_and_worker_idle_share():
    tree = [_span("s", "exec.scheduler", 0, 100, workers=2),
            _span("t1", "exec.task", 0, 50, parent="s"),
            _span("t2", "exec.task", 0, 50, parent="s"),
            _span("r", "pipeline.run", 10, 30, parent="t1", insts=500),
            _span("g1", "exec.store_get", 40, 41, parent="t2", hit=1),
            _span("g2", "exec.store_get", 41, 42, parent="t2", hit=0)]
    metrics = spans.layer_metrics(tree, {"batch_points": 4,
                                         "batch_fallbacks": 1})
    assert metrics["pipeline.run.calls"] == 1
    assert metrics["pipeline.run.self_s"] == 20e-9
    assert metrics["pipeline.sim_insts"] == 500
    assert metrics["exec.store.hit_ratio"] == 0.5
    assert metrics["exec.batch.fallback_ratio"] == 0.25
    assert metrics["exec.workers.busy_s"] == 100e-9
    assert metrics["exec.workers.idle_frac"] == 0.5
    assert metrics["exec.scheduler.self_s"] == 50e-9


def test_forked_worker_spans_nest_under_the_forking_span(tmp_path):
    recorder = spans.Recorder(tmp_path)
    os.register_at_fork(after_in_child=recorder._reset)
    with recorder.span("exec.scheduler") as scheduler:
        pid = os.fork()
        if pid == 0:  # the worker: one task, flushed as pool workers do
            try:
                task = recorder.wrap_task(lambda spec: spec["x"])
                task({"x": 1})
            finally:
                os._exit(0)
        os.waitpid(pid, 0)
    recorder.flush()
    found, _ = spans.load(tmp_path)
    by_name = {span["name"]: span for span in found}
    assert set(by_name) == {"exec.scheduler", "exec.task"}
    assert by_name["exec.task"]["parent"] == scheduler["id"]
    assert by_name["exec.task"]["pid"] == pid


# -- verdicts -----------------------------------------------------------------

PARENT = [10.0, 10.1, 9.9, 10.2, 10.0, 9.8, 10.1, 10.0, 9.9, 10.1]


def test_verdict_improved_needs_nine_in_ten_wins_beyond_the_spread():
    faster = [value * 0.9 for value in PARENT]
    assert compare.verdict(PARENT, faster, "lower", 0.1) == "improved"
    barely = [value - 0.01 for value in PARENT]
    assert compare.verdict(PARENT, barely, "lower", 0.1) == "unchanged"


def test_verdict_regressed_past_the_bound():
    slower = [value * 1.15 for value in PARENT]
    assert compare.verdict(PARENT, slower, "lower", 0.1) == "regressed"
    assert compare.verdict(PARENT, [v * 1.05 for v in PARENT], "lower",
                           0.1) == "unchanged"


def test_verdict_unresolved_when_spread_exceeds_the_bound():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(PARENT, noisy, "lower", 0.1) == "unresolved"


def test_verdict_higher_is_better_and_no_bound():
    assert compare.verdict(PARENT, [v * 1.2 for v in PARENT], "higher",
                           None) == "improved"
    assert compare.verdict(PARENT, [v * 1.2 for v in PARENT], "lower",
                           None) == "worsened"
    assert compare.verdict(PARENT, PARENT, "lower", None) == "unchanged"


def test_group_args_splits_sides_by_directory(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        for seed in (2, 1):
            (tmp_path / side / f"run-{seed}.json").write_text("{}")
    groups = compare.group_args(
        [str(tmp_path / "parent" / "run-2.json"),
         str(tmp_path / "parent" / "run-1.json"), str(tmp_path / "change")])
    assert [len(group) for group in groups] == [2, 2]
    assert groups[0][0].parent.name == "parent"
    assert groups[1][0].parent.name == "change"
