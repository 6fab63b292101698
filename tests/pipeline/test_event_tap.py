"""Event-tap parity: C-kernel event-log decode vs the Python observers.

The compiled kernel's opt-in event tap (a ``repro_run_batch`` point's
``tap`` buffer) appends fixed-width ``[(ix << 4) | tag, a, b]`` triples
for issue, operand consumption, branch redirects, handle issue, and
consumer delays.
:class:`SlackCollector` and :class:`AttributionCollector` rebuild their
per-static-instruction profiles post-hoc from that log. These tests pin
the contract that the reconstruction is **bit-identical** to the in-loop
Python-observer path — same golden timing stats, same profile entries,
same attribution tallies — across the golden-matrix workloads on the
profiling configuration, and that buffer overflow degrades to the
reference loop (never to wrong numbers).
"""

import pickle

import pytest

from repro.minigraph.selectors import SlackProfileSelector, StructAll
from repro.minigraph.slack import SlackCollector
from repro.minigraph.transform import fold_trace
from repro.obs.attribution import AttributionCollector
from repro.pipeline import ckern
from repro.pipeline.config import config_by_name
from repro.pipeline.core import OoOCore

needs_kernel = pytest.mark.skipif(
    not ckern.available(),
    reason="compiled kernel unavailable (no C compiler or REPRO_PURE_PY)")

#: Profiling runs happen on the reduced machine (§5.5 self-training).
PROFILE_CONFIG = "reduced"

WORKLOADS = ["crc32", "adpcm", "fft", "gzip"]


def _profile_entries(profile):
    """Every field of every entry, flattened for exact comparison."""
    return {
        pc: (e.count, e.rel_issue, e.src_ready, e.out_ready, e.slack,
             e.min_slack)
        for pc, e in profile.entries.items()
    }


def _attribution_table(collector):
    return {
        site_id: (c.instances, c.serialized, c.ext_delay_cycles,
                  c.consumer_delays)
        for site_id, c in collector.by_site.items()
    }


def _stats_key(stats):
    return (stats.cycles, stats.original_committed, stats.replays,
            stats.store_forwards, stats.ordering_violations,
            stats.handles_committed, stats.mg_serialized_instances)


def _run_profile(runner, bench, force_python):
    b = runner._bench(bench)
    config = config_by_name(PROFILE_CONFIG)
    trace = runner.trace(bench)
    collector = SlackCollector(b.program("train"), config_name=config.name,
                               input_name="train")
    core = OoOCore(config, trace.packed(), collector=collector,
                   warm_caches=True)
    if force_python:
        core._ctrace = None
        core._want_tap = False
    stats = core.run()
    return core, collector.profile(), stats


@needs_kernel
@pytest.mark.parametrize("bench", WORKLOADS)
def test_slack_profile_bit_identical(runner, bench):
    """The decoded profile equals the Python observer's, field for field."""
    core_c, prof_c, stats_c = _run_profile(runner, bench, force_python=False)
    assert core_c._ctrace is not None and core_c._want_tap
    core_p, prof_p, stats_p = _run_profile(runner, bench, force_python=True)
    assert _stats_key(stats_c) == _stats_key(stats_p)
    assert _profile_entries(prof_c) == _profile_entries(prof_p)
    assert len(prof_c) > 0


@needs_kernel
@pytest.mark.parametrize("bench", ["crc32", "gzip"])
def test_declined_profile_build_decodes_in_python(runner, bench,
                                                  monkeypatch):
    """When ``ckern.profile_build`` declines, the kernel's tap is decoded
    by the pure-Python reference into the very profile the native
    build returns, pickle for pickle."""
    core, native, stats = _run_profile(runner, bench, force_python=False)
    assert core._want_tap and core.collector._packed_acc is not None
    monkeypatch.setattr(ckern, "profile_build", lambda *args: None)
    core, decoded, stats_d = _run_profile(runner, bench,
                                          force_python=False)
    assert core._want_tap and core.collector._packed_acc is None
    assert _stats_key(stats_d) == _stats_key(stats)
    assert pickle.dumps(decoded, protocol=pickle.HIGHEST_PROTOCOL) == \
        pickle.dumps(native, protocol=pickle.HIGHEST_PROTOCOL)


@needs_kernel
@pytest.mark.parametrize("bench,selector,config_name", [
    ("crc32", StructAll, "reduced"),
    ("adpcm", StructAll, "full"),
    ("fft", SlackProfileSelector, "reduced"),
    ("gzip", SlackProfileSelector, "full"),
])
def test_attribution_bit_identical(runner, bench, selector, config_name):
    """HANDLE/CDELAY decode equals the in-loop attribution tallies."""
    plan = runner.plan(bench, selector())
    records = fold_trace(runner.trace(bench), plan)
    config = config_by_name(config_name)
    results = []
    for force_python in (False, True):
        collector = AttributionCollector()
        core = OoOCore(config, records, attribution=collector,
                       warm_caches=True)
        if force_python:
            core._ctrace = None
            core._want_tap = False
        else:
            assert core._ctrace is not None and core._want_tap
        stats = core.run()
        results.append((_stats_key(stats), collector.handles_issued,
                        _attribution_table(collector)))
    assert results[0] == results[1]
    assert results[0][1] > 0  # handles actually issued


def _run_global_profile(runner, bench, force_python):
    from repro.analysis.global_slack import GlobalSlackCollector
    b = runner._bench(bench)
    config = config_by_name(PROFILE_CONFIG)
    trace = runner.trace(bench)
    collector = GlobalSlackCollector(b.program("train"),
                                     config_name=config.name,
                                     input_name="train")
    core = OoOCore(config, trace.packed(), collector=collector,
                   warm_caches=True)
    if force_python:
        core._ctrace = None
        core._want_tap = False
    stats = core.run()
    return core, collector.global_profile(), stats


@needs_kernel
@pytest.mark.parametrize("bench", WORKLOADS)
def test_global_slack_profile_bit_identical(runner, bench):
    """The TAP_VALUE + consumer-ix decode reproduces the in-loop global
    backward DP field for field (floats included: same op order)."""
    core_c, prof_c, stats_c = _run_global_profile(runner, bench,
                                                  force_python=False)
    assert core_c._ctrace is not None and core_c._want_tap
    assert core_c._tap_flags & ckern.TAP_FLAG_GLOBAL
    core_p, prof_p, stats_p = _run_global_profile(runner, bench,
                                                  force_python=True)
    assert _stats_key(stats_c) == _stats_key(stats_p)
    assert _profile_entries(prof_c) == _profile_entries(prof_p)
    assert len(prof_c) > 0


@needs_kernel
@pytest.mark.parametrize("bench", WORKLOADS)
def test_declined_global_fold_decodes_in_python(runner, bench, monkeypatch):
    """When ``ckern.global_fold`` declines, the kernel's tap is decoded
    and the global backward DP runs in Python; with
    ``ckern.profile_build`` declined too, so is the local profile. Each
    leg keeps the kernel run and returns the native run's profiles and
    the ``REPRO_PURE_PY`` run's, pickle for pickle."""
    def pickles():
        core, global_profile, _ = _run_global_profile(runner, bench,
                                                      force_python=False)
        return core, [pickle.dumps(profile,
                                   protocol=pickle.HIGHEST_PROTOCOL)
                      for profile in (core.collector.profile(),
                                      global_profile)]

    core, native = pickles()
    assert core.collector._tap_folded is not None
    with monkeypatch.context() as env:
        env.setenv("REPRO_PURE_PY", "1")
        core, pure = pickles()
        assert not core._want_tap
    assert pure == native
    for declined in ("global_fold", "profile_build"):
        monkeypatch.setattr(ckern, declined, lambda *args: None)
        core, decoded = pickles()
        collector = core.collector
        assert core._want_tap and collector._tap_folded is None
        assert collector._tap_global is not None
        assert (collector._packed_acc is None) == \
            (declined == "profile_build")
        assert decoded == native


@needs_kernel
def test_both_observers_share_one_tap_run(runner):
    """Slack + attribution can decode the same event log from one run."""
    plan = runner.plan("crc32", StructAll())
    records = fold_trace(runner.trace("crc32"), plan)
    config = config_by_name("reduced")
    program = runner._bench("crc32").program("train")
    results = []
    for force_python in (False, True):
        slack = SlackCollector(program, config_name=config.name,
                               input_name="train")
        attr = AttributionCollector()
        core = OoOCore(config, records, collector=slack, attribution=attr,
                       warm_caches=True)
        if force_python:
            core._ctrace = None
            core._want_tap = False
        stats = core.run()
        results.append((_stats_key(stats), _profile_entries(slack.profile()),
                        attr.handles_issued, _attribution_table(attr)))
    assert results[0] == results[1]


@needs_kernel
def test_tap_overflow_falls_back_to_python(monkeypatch, runner):
    """An undersized buffer (even after the 4x retry) must degrade to the
    reference loop with identical results, never truncate the profile."""
    trace = runner.trace("crc32")
    config = config_by_name(PROFILE_CONFIG)
    program = runner._bench("crc32").program("train")
    monkeypatch.setattr(ckern, "tap_capacity", lambda packed: 3)

    collector = SlackCollector(program, config_name=config.name,
                               input_name="train")
    core = OoOCore(config, trace.packed(), collector=collector,
                   warm_caches=True)
    assert core._ctrace is not None  # still eligible at construction
    stats = core.run()               # overflow twice -> Python loop

    _, prof_p, stats_p = _run_profile(runner, "crc32", force_python=True)
    assert _stats_key(stats) == _stats_key(stats_p)
    assert _profile_entries(collector.profile()) == _profile_entries(prof_p)


@needs_kernel
def test_tap_capacity_is_generous(runner):
    """The first-shot capacity estimate covers the real event volume (the
    4x retry is a safety net, not the common path)."""
    packed = runner.trace("crc32").packed()
    config = config_by_name(PROFILE_CONFIG)
    cap = ckern.tap_capacity(packed)
    mtrace = ckern.marshal(packed)
    cfg = ckern.pack_config(config, True)
    (point,) = ckern.run_batch([(cfg, mtrace, 10_000_000, cap, 0, None)], 1)
    rc, out, events, n_words, overflow = point
    assert rc == ckern.RC_OK
    assert not overflow
    assert 0 < n_words <= cap
    assert n_words % ckern.TAP_WORDS == 0
