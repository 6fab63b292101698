"""Slack-Dynamic in the compiled kernel: bit parity with the Python loop.

``repro_run_policy`` ports ``SlackDynamicPolicy`` (per-site saturating
counters, hysteresis, resurrection) and the core's outlined expansion of
disabled sites. The Python loop under ``REPRO_PURE_PY=1`` is the
reference: every counter of the run and the policy's final state —
which sites have entries, their (counter, disabled, quiet), the benign
counts and the event totals — must match exactly, on the golden-matrix
programs under the four Figure 7 variants, on the synthetic programs
whose dynamic runs hit ordering violations, with a small-parameter
policy that disables and resurrects often, and on fuzz programs.
"""

import pytest

from repro.check.fuzz import FuzzSpec
from repro.harness.runner import Runner
from repro.isa.interp import execute
from repro.minigraph import StructAll, fold_trace, make_plan
from repro.minigraph.dynamic import SlackDynamicPolicy
from repro.minigraph.selectors import SlackDynamicSelector
from repro.obs.metrics import MetricsRegistry, collect_ckern
from repro.pipeline import ckern, full_config, reduced_config
from repro.pipeline.core import OoOCore

from .test_batch_kernel import BENCHES, _full_stats

needs_kernel = pytest.mark.skipif(
    not ckern.available(),
    reason="compiled kernel unavailable (no C compiler or REPRO_PURE_PY)")

#: The four dynamic variants of Figure 7.
VARIANTS = (
    dict(mode="full", outlining_penalty=True),
    dict(mode="full", outlining_penalty=False),
    dict(mode="delay", outlining_penalty=False),
    dict(mode="sial", outlining_penalty=False),
)
#: Decay and resurrection fire every other instance.
SMALL = dict(mode="full", threshold=2, decay_interval=2,
             resurrect_interval=2)
#: Slack-Dynamic runs on these hit ordering violations (flush + re-query).
SYNTH = ["synth10", "synth12"]

RUNNER = Runner()


def policy_state(policy):
    """Everything a caller can read off the policy after a run."""
    return {
        "sites": [(site_id, state.counter, state.disabled, state.quiet)
                  for site_id, state in policy._sites.items()],
        "benign": list(policy._benign.items()),
        "disable_events": policy.disable_events,
        "resurrect_events": policy.resurrect_events,
    }


def run_point(config, trace, plan, kwargs, pure):
    """(stats, policy state) of one Slack-Dynamic run, in C or, with
    ``pure``, through the Python loop under REPRO_PURE_PY=1."""
    policy = SlackDynamicPolicy(**kwargs)
    with pytest.MonkeyPatch.context() as mp:
        if pure:
            mp.setenv("REPRO_PURE_PY", "1")
        core = OoOCore(config, fold_trace(trace, plan), policy=policy,
                       warm_caches=True)
        assert (core._ctrace is None) == pure
        stats = core.run()
    return _full_stats(core, stats), policy_state(policy)


def assert_parity(config, trace, plan, kwargs):
    """Kernel == reference for one point; returns the kernel's result."""
    before = ckern.counters["policy_runs_native"]
    got = run_point(config, trace, plan, kwargs, pure=False)
    assert ckern.counters["policy_runs_native"] == before + 1
    want = run_point(config, trace, plan, kwargs, pure=True)
    diffs = {k: (got[0][k], want[0][k]) for k in want[0]
             if got[0].get(k) != want[0][k]}
    assert not diffs, f"{config.name} {kwargs}: {diffs}"
    assert got[1] == want[1], f"{config.name} {kwargs}: policy state"
    return got


_MATRIX = {}


def matrix_points(bench):
    """Every (config, policy) point of ``bench``, checked and memoized."""
    if bench not in _MATRIX:
        trace = RUNNER.trace(bench)
        plan = RUNNER.plan(bench, SlackDynamicSelector())
        _MATRIX[bench] = [
            assert_parity(config_fn(), trace, plan, kwargs)
            for config_fn in (reduced_config, full_config)
            for kwargs in VARIANTS + (SMALL,)]
    return _MATRIX[bench]


@needs_kernel
@pytest.mark.parametrize("bench", BENCHES + SYNTH)
def test_policy_kernel_matches_reference(bench):
    """Both machines x the Figure 7 variants and the small policy."""
    assert len(matrix_points(bench)) == 2 * (len(VARIANTS) + 1)


@needs_kernel
def test_matrix_exercises_resurrection_violations_and_outlining():
    """The matrix reaches every mechanism the port has to get right."""
    points = [p for bench in BENCHES + SYNTH for p in matrix_points(bench)]
    assert any(state["resurrect_events"] > 0 for _, state in points)
    assert any(stats["ordering_violations"] > 0 for stats, _ in points)
    assert any(stats["outline_jumps_committed"] > 0 for stats, _ in points)


@needs_kernel
@pytest.mark.parametrize("seed", range(50))
def test_policy_kernel_matches_reference_fuzz(seed):
    """Random programs, with policies that disable and resurrect often."""
    program = FuzzSpec.derive(seed).build()
    trace = execute(program, max_insts=20_000)
    plan = make_plan(program, trace.dynamic_count_of(), StructAll())
    for kwargs in (SMALL, dict(mode="sial", threshold=1,
                               resurrect_interval=3)):
        assert_parity(reduced_config(), trace, plan, kwargs)


@needs_kernel
def test_policy_state_carries_over_between_runs():
    """A policy that has run before hands its state to the kernel: the
    second run starts from it in both paths."""
    trace = RUNNER.trace("crc32")
    plan = RUNNER.plan("crc32", SlackDynamicSelector())
    results = []
    for pure in (False, True):
        policy = SlackDynamicPolicy(**SMALL)
        for _ in range(2):
            with pytest.MonkeyPatch.context() as mp:
                if pure:
                    mp.setenv("REPRO_PURE_PY", "1")
                core = OoOCore(reduced_config(), fold_trace(trace, plan),
                               policy=policy, warm_caches=True)
                stats = _full_stats(core, core.run())
        results.append((stats, policy_state(policy)))
    assert results[0] == results[1]


@needs_kernel
def test_policy_counters_are_exported():
    """collect_ckern exports the policy-run counters and the run_policy
    entry point's native calls and time."""
    before = dict(ckern.counters)
    trace = RUNNER.trace("crc32")
    plan = RUNNER.plan("crc32", SlackDynamicSelector())
    run_point(reduced_config(), trace, plan, VARIANTS[0], pure=False)
    assert ckern.counters["run_policy_calls"] == \
        before["run_policy_calls"] + 1
    assert ckern.counters["run_policy_ns"] > before["run_policy_ns"]
    values = MetricsRegistry()
    collect_ckern(values)
    snapshot = values.snapshot()
    for name in ("policy_runs_native", "policy_fallbacks"):
        assert snapshot[f"ckern.{name}"] == ckern.counters[name]
    assert snapshot["ckern.run_policy.calls"] == \
        ckern.counters["run_policy_calls"]
