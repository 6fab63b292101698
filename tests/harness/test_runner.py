"""Runner orchestration: caching, selector runs, Slack-Dynamic wiring."""

import dataclasses
import pickle

import pytest

from repro.exec.store import ArtifactStore
from repro.harness import Runner, SelectorRun
from repro.minigraph import (
    SlackDynamicSelector, SlackProfileSelector, StructAll, StructNone,
)
from repro.pipeline import (
    ckern, cross_2way_config, full_config, reduced_config,
)


def test_trace_cached(runner):
    first = runner.trace("crc32")
    second = runner.trace("crc32")
    assert first is second


def test_trace_per_input(runner):
    assert runner.trace("crc32", "train") is not runner.trace("crc32", "ref")


def test_baseline_cached(runner, reduced_cfg):
    first = runner.baseline("crc32", reduced_cfg)
    second = runner.baseline("crc32", reduced_cfg)
    assert first is second
    assert first.ipc > 0


def test_baseline_per_config(runner, full_cfg, reduced_cfg):
    full = runner.baseline("crc32", full_cfg)
    reduced = runner.baseline("crc32", reduced_cfg)
    assert full.ipc != reduced.ipc


def test_profile_labels(runner, reduced_cfg):
    profile = runner.slack_profile("crc32", reduced_cfg)
    assert profile.config_name == "reduced"
    assert profile.program_name == "crc32"
    assert len(profile) > 0


def test_plan_cached_per_selector(runner):
    plan_all = runner.plan("crc32", StructAll())
    plan_all2 = runner.plan("crc32", StructAll())
    plan_none = runner.plan("crc32", StructNone())
    assert plan_all is plan_all2
    assert plan_all is not plan_none


def test_hoisted_sites_live_as_long_as_the_runner(monkeypatch):
    """Planning ten (bench, input) keys under a second selector groups
    no template again: one build_templates pass per key."""
    from repro.harness import runner as runner_mod
    calls = []
    build = runner_mod.build_templates
    monkeypatch.setattr(runner_mod, "build_templates",
                        lambda *args: calls.append(args) or build(*args))
    keys = [(bench, input_name)
            for bench in ("crc32", "fft", "frag", "eon", "basicmath")
            for input_name in ("train", "ref")]
    runner = Runner()
    for selector in (StructAll(), StructNone()):
        for bench, input_name in keys:
            runner.plan(bench, selector, input_name=input_name)
    assert len(calls) == len(keys)


def test_run_selector_result_fields(runner, reduced_cfg):
    run = runner.run_selector("crc32", StructAll(), reduced_cfg)
    assert run.program == "crc32"
    assert run.selector == "struct-all"
    assert run.config == "reduced"
    assert run.ipc > 0
    assert 0 <= run.coverage <= 1
    assert run.stats.original_committed == len(runner.trace("crc32"))


def test_slack_profile_selector_via_runner(runner, reduced_cfg):
    run = runner.run_selector("crc32", SlackProfileSelector(), reduced_cfg)
    assert run.selector == "slack-profile"
    assert run.stats.original_committed == len(runner.trace("crc32"))


def test_cross_trained_profile(runner, reduced_cfg):
    run = runner.run_selector("drr", SlackProfileSelector(), reduced_cfg,
                              profile_config=cross_2way_config())
    assert run.ipc > 0


def test_cross_input_profile(runner, reduced_cfg):
    run = runner.run_selector("drr", SlackProfileSelector(), reduced_cfg,
                              profile_input="ref")
    assert run.ipc > 0


def test_slack_dynamic_run(runner, reduced_cfg):
    run = runner.run_slack_dynamic("crc32", reduced_cfg)
    assert run.selector == "slack-dynamic"
    assert run.stats.original_committed == len(runner.trace("crc32"))


def test_slack_dynamic_variants_labelled(runner, reduced_cfg):
    ideal = runner.run_slack_dynamic("crc32", reduced_cfg,
                                     outlining_penalty=False)
    assert ideal.selector == "ideal-slack-dynamic"
    sial = runner.run_slack_dynamic("crc32", reduced_cfg, mode="sial",
                                    outlining_penalty=False)
    assert sial.selector == "ideal-slack-dynamic-sial"


def test_slack_dynamic_selector_gets_its_policy(runner, reduced_cfg):
    """A SlackDynamicSelector run set up without a policy (run_selector,
    a bench point) times Slack-Dynamic, not the bare Struct-All pool."""
    from repro.harness.bench import run_bench
    want = runner.run_slack_dynamic("crc32", reduced_cfg)
    got = runner.run_selector("crc32", SlackDynamicSelector(), reduced_cfg)
    assert want.stats.mg_disabled_instances > 0
    assert (got.stats.cycles, got.ipc, got.coverage,
            got.stats.mg_disabled_instances) == \
        (want.stats.cycles, want.ipc, want.coverage,
         want.stats.mg_disabled_instances)
    (point,) = run_bench(["crc32"], ["slack-dynamic"], runner=runner).points
    assert point.cycles == want.stats.cycles


def test_stored_timing_runs_hold_no_plan(tmp_path, reduced_cfg):
    """A stored ``run`` or ``run-dynamic`` payload is the run's outcome:
    the plan it timed is only in the ``plan`` artifact."""
    runner = Runner(store=ArtifactStore(tmp_path))
    runner.run_selector("crc32", StructAll(), reduced_cfg)
    runner.run_slack_dynamic("crc32", reduced_cfg)
    for kind in ("run", "run-dynamic"):
        (path,) = tmp_path.glob(f"??/*.{kind}.pkl")
        payload = path.read_bytes()
        assert b"MiniGraphPlan" not in payload, kind
        run = pickle.loads(payload)
        assert isinstance(run, SelectorRun), kind
        assert [f.name for f in dataclasses.fields(run)] == \
            ["program", "selector", "config", "stats"]
    assert len(list(tmp_path.glob("??/*.plan.pkl"))) == 2


def test_budget_respected():
    tight = Runner(budget=3)
    plan = tight.plan("adpcm", StructAll())
    assert plan.n_templates <= 3


@pytest.mark.skipif(not ckern.available(),
                    reason="compiled kernel unavailable")
def test_kernel_selector_point_builds_no_records(reduced_cfg,
                                                 record_objects):
    """A kernel-eligible selector point folds and runs in C: once the
    trace exists, no TraceRecord or MGHandleRecord is constructed."""
    runner = Runner()
    runner.trace("crc32")
    runner.plan("crc32", StructAll())
    record_objects.update(TraceRecord=0, MGHandleRecord=0)
    run = runner.run_selector("crc32", StructAll(), reduced_cfg)
    assert run.stats.handles_committed > 0
    assert record_objects == {"TraceRecord": 0, "MGHandleRecord": 0}


@pytest.mark.skipif(not ckern.available(),
                    reason="compiled kernel unavailable")
def test_kernel_dynamic_point_builds_no_records(reduced_cfg,
                                                record_objects):
    """A Slack-Dynamic point folds and runs in C, disabled sites
    included: once the trace and plan exist, no TraceRecord or
    MGHandleRecord is constructed."""
    runner = Runner()
    runner.trace("crc32")
    runner.plan("crc32", SlackDynamicSelector())
    record_objects.update(TraceRecord=0, MGHandleRecord=0)
    run = runner.run_slack_dynamic("crc32", reduced_cfg)
    assert run.stats.mg_disabled_instances > 0
    assert record_objects == {"TraceRecord": 0, "MGHandleRecord": 0}
