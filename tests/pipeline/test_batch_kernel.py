"""Batched native dispatch (``repro_run_batch``): bit parity, threads.

One C call runs a whole matrix of (config, trace) points over an
in-kernel thread pool. These tests pin the hard contract from the
per-point path: every point of a batch is bit-identical to running the
same core serially — across thread counts — and one point's failure
(cycle-budget deadlock) degrades only that point, never its batchmates.
"""

import dataclasses

import pytest

from repro.minigraph.selectors import StructAll
from repro.minigraph.transform import fold_records, fold_trace
from repro.pipeline import ckern, full_config, reduced_config
from repro.pipeline.core import OoOCore

needs_kernel = pytest.mark.skipif(
    not ckern.available(),
    reason="compiled kernel unavailable (no C compiler or REPRO_PURE_PY)")

#: 10 benches x 2 configs x 2 record streams = 40 golden-matrix points.
BENCHES = ["adpcm", "bitcount", "crc32", "dijkstra", "fft",
           "gzip", "patricia", "qsort", "sha", "stringsearch"]
CONFIGS = (reduced_config, full_config)


def _full_stats(core, stats):
    """Every externally visible counter of a finished run, flattened."""
    out = {}
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if f.name == "activity":
            for af in dataclasses.fields(value):
                out["activity." + af.name] = getattr(value, af.name)
        else:
            out[f.name] = value
    bu = core.branch_unit
    h = core.hierarchy
    out.update({
        "bu.cond": (bu.cond_predictions, bu.cond_mispredictions),
        "il1": (h.il1.accesses, h.il1.misses),
        "dl1": (h.dl1.accesses, h.dl1.misses),
        "l2": (h.l2.accesses, h.l2.misses),
        "ss.violations": core.storesets.violations,
    })
    return out


def _profile_entries(profile):
    """Every field of every slack-profile entry, by pc."""
    return {pc: (e.count, e.rel_issue, e.src_ready, e.out_ready, e.slack,
                 e.min_slack)
            for pc, e in profile.entries.items()}


def _matrix_cores(runner):
    """One un-run core per golden-matrix point, in deterministic order."""
    cores = []
    for bench in BENCHES:
        trace = runner.trace(bench)
        plan = runner.plan(bench, StructAll())
        folded = fold_trace(trace, plan)
        for config_fn in CONFIGS:
            for records in (trace.packed(), folded):
                cores.append(OoOCore(config_fn(), records,
                                     warm_caches=True))
    return cores


def _run_batch(cores, threads, max_cycles=200_000_000):
    entries = [core.kernel_batch_entry(max_cycles) for core in cores]
    assert all(entry is not None for entry in entries)
    return ckern.run_batch(entries, threads)


@needs_kernel
def test_golden_matrix_batch_vs_serial_bit_identical(runner):
    """All 40 points through one native call == 40 serial runs."""
    batch_cores = _matrix_cores(runner)
    assert len(batch_cores) >= 40
    results = _run_batch(batch_cores, threads=4)
    assert results is not None and len(results) == len(batch_cores)

    serial_cores = _matrix_cores(runner)
    for i, (core, point) in enumerate(zip(batch_cores, results)):
        rc, out, events, n_words, overflowed = point
        stats = core.apply_kernel_result(rc, out, events, n_words,
                                         overflowed)
        assert stats is not None, f"point {i} fell back"
        serial = serial_cores[i]
        want = _full_stats(serial, serial.run())
        got = _full_stats(core, stats)
        diffs = {k: (got[k], want[k]) for k in want if got.get(k) != want[k]}
        assert not diffs, f"point {i} diverged: {diffs}"


@needs_kernel
@pytest.mark.parametrize("threads", [1, 2, 8])
def test_thread_count_invariance(runner, threads):
    """The same batch produces byte-identical outputs on 1/2/8 threads."""
    reference = None
    cores = _matrix_cores(runner)[:12]
    results = _run_batch(cores, threads=threads)
    digest = [(rc, list(out), n_words, overflowed,
               list(events[:n_words]) if events is not None else None)
              for rc, out, events, n_words, overflowed in results]
    # Compare against a fresh serial (threads=1) dispatch of new cores.
    reference_results = _run_batch(_matrix_cores(runner)[:12], threads=1)
    reference = [(rc, list(out), n_words, overflowed,
                  list(events[:n_words]) if events is not None else None)
                 for rc, out, events, n_words, overflowed
                 in reference_results]
    assert digest == reference


@needs_kernel
def test_per_point_fallback_isolation(runner):
    """A deadlocking point (tiny cycle budget) degrades alone."""
    cores = _matrix_cores(runner)[:6]
    entries = [core.kernel_batch_entry(3 if i == 2 else 200_000_000)
               for i, core in enumerate(cores)]
    results = ckern.run_batch(entries, threads=4)
    serial_cores = _matrix_cores(runner)[:6]
    for i, (core, point) in enumerate(zip(cores, results)):
        rc, out, events, n_words, overflowed = point
        stats = core.apply_kernel_result(rc, out, events, n_words,
                                         overflowed)
        if i == 2:
            assert rc == ckern.RC_BUDGET
            assert stats is None  # caller reruns per-point (which raises)
        else:
            assert rc == ckern.RC_OK and stats is not None
            serial = serial_cores[i]
            assert _full_stats(core, stats) == \
                _full_stats(serial, serial.run())


@needs_kernel
def test_batched_tap_points_bit_identical(runner):
    """Observed (event-tap) points batch too: decoded profiles match the
    per-point kernel path field for field, local and global slack."""
    from repro.analysis.global_slack import GlobalSlackCollector
    from repro.minigraph.slack import SlackCollector
    config = reduced_config()

    def make(bench, global_slack):
        cls = GlobalSlackCollector if global_slack else SlackCollector
        collector = cls(runner._bench(bench).program("train"),
                        config_name=config.name, input_name="train")
        core = OoOCore(config, runner.trace(bench).packed(),
                       collector=collector, warm_caches=True)
        assert core._ctrace is not None and core._want_tap
        return core, collector

    points = [("crc32", False), ("crc32", True),
              ("fft", False), ("fft", True)]
    batch = [make(*p) for p in points]
    results = _run_batch([core for core, _ in batch], threads=2)
    for (bench, global_slack), (core, collector), point \
            in zip(points, batch, results):
        rc, out, events, n_words, overflowed = point
        stats = core.apply_kernel_result(rc, out, events, n_words,
                                         overflowed)
        assert stats is not None
        serial_core, serial_collector = make(bench, global_slack)
        serial_stats = serial_core.run()
        assert _full_stats(core, stats) == \
            _full_stats(serial_core, serial_stats)
        profile = collector.global_profile() if global_slack \
            else collector.profile()
        want = serial_collector.global_profile() if global_slack \
            else serial_collector.profile()
        assert _profile_entries(profile) == _profile_entries(want)


@needs_kernel
@pytest.mark.parametrize("threads", [1, 4])
def test_mixed_batch_matches_python_loop(runner, threads):
    """One batch mixing, per program, an unobserved point, a tapped
    profiling point and Figure 7's four Slack-Dynamic variants: every
    point's stats, the slack profile and each policy's final state
    equal the REPRO_PURE_PY loop's."""
    from repro.minigraph.dynamic import SlackDynamicPolicy
    from repro.minigraph.selectors import SlackDynamicSelector
    from repro.minigraph.slack import SlackCollector

    from .test_policy_kernel import VARIANTS, policy_state
    config = reduced_config()

    def points():
        """(un-run core, reader of its observer's or policy's state)."""
        made = []
        for bench in ("crc32", "adpcm"):
            trace = runner.trace(bench)
            plain = OoOCore(config, fold_trace(trace, runner.plan(
                bench, StructAll())), warm_caches=True)
            made.append((plain, lambda: None))
            collector = SlackCollector(runner._bench(bench).program("train"),
                                       config_name=config.name,
                                       input_name="train")
            tapped = OoOCore(config, trace.packed(), collector=collector,
                             warm_caches=True)
            made.append((tapped,
                         lambda c=collector: _profile_entries(c.profile())))
            plan = runner.plan(bench, SlackDynamicSelector())
            for kwargs in VARIANTS:
                policy = SlackDynamicPolicy(**kwargs)
                dynamic = OoOCore(config, fold_trace(trace, plan),
                                  policy=policy, warm_caches=True)
                made.append((dynamic, lambda p=policy: policy_state(p)))
        return made

    batch = points()
    got = []
    for (core, state), point in zip(
            batch, _run_batch([core for core, _ in batch], threads)):
        stats = core.apply_kernel_result(*point)
        assert stats is not None
        got.append((_full_stats(core, stats), state()))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_PURE_PY", "1")
        want = []
        for core, state in points():
            assert core._ctrace is None
            want.append((_full_stats(core, core.run()), state()))
    assert got == want


@needs_kernel
def test_batch_counters_and_arena_reuse(runner):
    """Dispatch counters tick, and batch points sharing one trace share
    one marshalled arena (identity, not just equality). The native
    call is timed: one more ``run_batch`` call, nanoseconds accrue."""
    trace = runner.trace("crc32")
    cores = [OoOCore(cfg(), trace.packed(), warm_caches=True)
             for cfg in (reduced_config, full_config)]
    entries = [core.kernel_batch_entry(200_000_000) for core in cores]
    assert entries[0][1] is entries[1][1]  # one MarshalledTrace arena
    before = dict(ckern.counters)
    results = ckern.run_batch(entries, threads=2)
    assert results is not None
    assert ckern.counters["batch_dispatches"] == \
        before["batch_dispatches"] + 1
    assert ckern.counters["batch_points"] == before["batch_points"] + 2
    assert 1 <= ckern.counters["batch_threads_last"] <= 2
    assert ckern.counters["run_batch_calls"] == \
        before["run_batch_calls"] + 1
    assert ckern.counters["run_batch_ns"] > before["run_batch_ns"]

    # Folded points share nothing but are timed the same way: one
    # native fold per fold_trace, no reference fold on the kernel path.
    plan = runner.plan("crc32", StructAll())
    before = dict(ckern.counters)
    folded = fold_trace(trace, plan)
    core = OoOCore(reduced_config(), folded, warm_caches=True)
    assert core.kernel_batch_entry(200_000_000)[1] is folded.arena
    assert ckern.counters["fold_calls"] == before["fold_calls"] + 1
    assert ckern.counters["fold_ns"] > before["fold_ns"]
    assert ckern.counters["fold_fallbacks"] == before["fold_fallbacks"]


@needs_kernel
@pytest.mark.parametrize("bench", BENCHES)
def test_fold_arena_parity_golden_matrix(runner, bench):
    """``repro_fold``'s arena equals ``marshal`` of the reference fold,
    column for column, on every golden-matrix program."""
    trace = runner.trace(bench)
    plan = runner.plan(bench, StructAll())
    folded = fold_trace(trace, plan)
    assert folded.arena is not None
    want = ckern.marshal(fold_records(trace, plan)).columns()
    assert folded.arena.columns() == want
    assert want["n_handles"] > 0 and len(folded) == want["n"]


def test_run_batch_unavailable_returns_none(monkeypatch, runner):
    monkeypatch.setenv("REPRO_PURE_PY", "1")
    assert ckern.run_batch([], 4) is None
