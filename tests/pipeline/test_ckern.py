"""Compiled timing kernel: equivalence with the Python loop, fallback.

The C kernel (:mod:`repro.pipeline.ckern`) is a statement-for-statement
port of ``OoOCore.run``; these tests pin the contract that the two paths
are *bit-identical* on every externally visible counter, and that the
kernel degrades to the Python loop (never to an error) when unavailable.
"""

import dataclasses
import gc
import pickle

import pytest

from repro.isa import opcodes as oc
from repro.isa.interp import PackedTrace, Trace, TraceRecord
from repro.minigraph import StructAll, fold_trace, make_plan
from repro.minigraph.dynamic import MiniGraphPolicy, SlackDynamicPolicy
from repro.minigraph.transform import MGHandleRecord, fold_records
from repro.pipeline import ckern, full_config, reduced_config
from repro.pipeline.core import OoOCore, SimulationDeadlock
from repro.pipeline.pipetrace import PipeTracer

needs_kernel = pytest.mark.skipif(
    not ckern.available(),
    reason="compiled kernel unavailable (no C compiler or REPRO_PURE_PY)")


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
        "bu.indirect": (bu.indirect_predictions, bu.indirect_mispredictions),
        "il1": (h.il1.accesses, h.il1.misses),
        "dl1": (h.dl1.accesses, h.dl1.misses),
        "l2": (h.l2.accesses, h.l2.misses),
        "itlb": (h.itlb.accesses, h.itlb.misses),
        "dtlb": (h.dtlb.accesses, h.dtlb.misses),
        "ss.violations": core.storesets.violations,
    })
    return out


def _run_both(config, records, warm_caches=True):
    """(C stats, Python stats) for one point; skips if C is ineligible."""
    c_core = OoOCore(config, records, warm_caches=warm_caches)
    assert c_core._ctrace is not None, "C kernel should be eligible"
    c = _full_stats(c_core, c_core.run())
    py_core = OoOCore(config, records, warm_caches=warm_caches)
    py_core._ctrace = None
    py = _full_stats(py_core, py_core.run())
    return c, py


def _assert_identical(c, py):
    diffs = {k: (c[k], py[k]) for k in py if c.get(k) != py[k]}
    assert not diffs, f"C kernel diverged from Python loop: {diffs}"


@needs_kernel
@pytest.mark.parametrize("config_fn", [reduced_config, full_config])
def test_singleton_run_bit_identical(config_fn, sum_trace, cmov_trace):
    for trace in (sum_trace, cmov_trace):
        c, py = _run_both(config_fn(), trace.packed())
        _assert_identical(c, py)
        assert c["cycles"] > 0 and c["original_committed"] > 0


@needs_kernel
@pytest.mark.parametrize("warm", [True, False])
def test_branchy_run_bit_identical(warm, branchy_trace):
    c, py = _run_both(reduced_config(), branchy_trace.packed(),
                      warm_caches=warm)
    _assert_identical(c, py)
    assert c["cond_mispredicts"] > 0  # the point of the branchy loop


def _struct_all_both(program, trace):
    """Struct-All's plan of ``program``, timed on both paths."""
    plan = make_plan(program, trace.dynamic_count_of(), StructAll())
    c, py = _run_both(full_config(), fold_trace(trace, plan))
    _assert_identical(c, py)
    assert c["handles_committed"] > 0
    return plan


@needs_kernel
def test_minigraph_run_bit_identical(sum_loop, sum_trace, cmov_loop,
                                     cmov_trace):
    _struct_all_both(sum_loop, sum_trace)
    plan = _struct_all_both(cmov_loop, cmov_trace)
    # The widest handle there is: a three-source CMOV inside a site
    # with three external inputs.
    assert any(len(site.candidate.ext_inputs) == 3
               and any(inst.op in (oc.CMOVZ, oc.CMOVN)
                       for inst in site.candidate.instructions())
               for site in plan.sites)


@needs_kernel
def test_prefetchers_bit_identical(sum_trace):
    config = dataclasses.replace(reduced_config(),
                                 il1_next_line_prefetch=True,
                                 dl1_stride_prefetch=True)
    c_core = OoOCore(config, sum_trace.packed(), warm_caches=False)
    assert c_core._ctrace is not None
    c = _full_stats(c_core, c_core.run())
    py_core = OoOCore(config, sum_trace.packed(), warm_caches=False)
    py_core._ctrace = None
    py = _full_stats(py_core, py_core.run())
    _assert_identical(c, py)
    assert c_core.hierarchy.dl1_prefetcher.issued == \
        py_core.hierarchy.dl1_prefetcher.issued


@needs_kernel
def test_budget_deadlock_parity(sum_trace):
    """Both paths raise the same message and leave ``cycles`` unset."""
    failures = []
    for force_python in (False, True):
        core = OoOCore(reduced_config(), sum_trace.packed())
        if force_python:
            core._ctrace = None
        with pytest.raises(SimulationDeadlock) as err:
            core.run(max_cycles=3)
        failures.append((str(err.value), core.stats.cycles,
                         core.stats.cache_stats))
    assert failures[0] == failures[1]
    assert failures[0][0] == "exceeded max cycle budget"
    assert failures[0][1] == 0  # cycles only set on a completed run


def test_pure_python_env_disables_kernel(monkeypatch, sum_trace):
    monkeypatch.setenv("REPRO_PURE_PY", "1")
    assert not ckern.available()
    core = OoOCore(reduced_config(), sum_trace.packed())
    assert core._ctrace is None
    assert core.run().original_committed > 0  # Python path still works


@needs_kernel
def test_tap_capable_observers_keep_the_kernel(sum_loop, sum_trace):
    """SlackCollector no longer forces the reference loop: it decodes the
    kernel's event tap post-hoc (parity in tests/pipeline/test_event_tap.py)."""
    from repro.minigraph.slack import SlackCollector
    collector = SlackCollector(sum_loop, config_name="reduced",
                               input_name="train")
    core = OoOCore(reduced_config(), sum_trace.packed(),
                   collector=collector)
    assert core._ctrace is not None and core._want_tap
    stats = core.run()
    assert stats.original_committed > 0
    assert len(collector.profile()) > 0


@needs_kernel
def test_tap_profile_of_three_source_instructions(cmov_loop, cmov_trace):
    """The kernel tap's slack profile of the CMOV loop equals the Python
    observer loop's, pickle for pickle, three source slots included."""
    from repro.minigraph.slack import SlackCollector
    profiles = []
    for force_python in (False, True):
        collector = SlackCollector(cmov_loop, config_name="reduced",
                                   input_name="train")
        core = OoOCore(reduced_config(), cmov_trace.packed(),
                       collector=collector, warm_caches=True)
        assert core._ctrace is not None and core._want_tap
        if force_python:
            core._ctrace = None
            core._want_tap = False
        core.run()
        profiles.append(collector.profile())
    native, reference = profiles
    assert any(len(entry.src_ready) == 3
               for entry in native.entries.values())
    assert pickle.dumps(native) == pickle.dumps(reference)


@needs_kernel
def test_global_slack_collector_keeps_the_kernel(sum_loop, sum_trace):
    """GlobalSlackCollector is tap-capable: it opts into TAP_VALUE
    records via ckern_tap_flags and decodes the log post-hoc (parity in
    tests/pipeline/test_event_tap.py)."""
    from repro.analysis.global_slack import GlobalSlackCollector
    from repro.pipeline import ckern
    collector = GlobalSlackCollector(sum_loop, config_name="reduced",
                                     input_name="train")
    core = OoOCore(reduced_config(), sum_trace.packed(),
                   collector=collector)
    assert core._ctrace is not None and core._want_tap
    assert core._tap_flags & ckern.TAP_FLAG_GLOBAL
    stats = core.run()
    assert stats.original_committed > 0
    assert len(collector.global_profile()) > 0


def test_tap_incapable_observers_stay_on_python_path(sum_loop, sum_trace):
    """Observers without ``supports_ckern_tap`` still force the reference
    loop."""
    class _PythonOnlyObserver:
        supports_ckern_tap = False

        def on_consume(self, producer, consumer, cycle):
            pass

        def on_redirect(self, uop, resolve_cycle):
            pass

        def on_commit(self, uop):
            pass

        def on_finish(self):
            pass

    core = OoOCore(reduced_config(), sum_trace.packed(),
                   collector=_PythonOnlyObserver())
    assert core._ctrace is None


@needs_kernel
def test_records_and_packed_inputs_agree(sum_trace):
    """Kernel eligibility must not depend on the input container type."""
    from_packed = OoOCore(reduced_config(), sum_trace.packed())
    from_records = OoOCore(reduced_config(), sum_trace.records)
    assert from_packed._ctrace is not None
    assert from_records._ctrace is not None
    assert _full_stats(from_packed, from_packed.run()) == \
        _full_stats(from_records, from_records.run())


@needs_kernel
def test_kernel_buffers_are_released_without_the_cyclic_collector(
        sum_trace):
    """The columns a kernel call reads stop being exported as soon as
    the call's owners are dropped: no reference cycle holds them until
    a full collection (an array resizes only once no export is left)."""
    packed = PackedTrace.from_records(list(sum_trace.records))
    cfg = ckern.pack_config(reduced_config(), True)
    gc.disable()
    try:
        mtrace = ckern.marshal(packed)
        with pytest.raises(BufferError):
            packed.pc.append(0)
        (point,) = ckern.run_batch([(cfg, mtrace, 10_000_000, 0, 0, None)],
                                   1)
        assert point[0] == ckern.RC_OK
        del mtrace, point
        packed.pc.append(0)
        cfg.append(0)
    finally:
        gc.enable()


def test_singleton_arena_is_the_trace_columns(sum_trace):
    """A trace without handle rows marshals to its own columns, with no
    handle, constituent or site and every handle index unset."""
    packed = sum_trace.packed()
    cols = ckern.marshal(packed).columns()
    assert (cols["n"], cols["n_handles"], cols["n_sites"]) == \
        (packed.n, 0, 0)
    assert cols["hidx"] == [-1] * packed.n
    for name in ("kind", "pc", "op", "opclass", "latency", "rd", "addr",
                 "taken", "next_pc", "srcs", "srcs_start"):
        assert cols[name] == getattr(packed, name).tolist(), name


def test_marshal_shared_keeps_one_arena_per_live_trace(monkeypatch,
                                                       sum_trace):
    """Every live trace keeps its own arena, however many are alive:
    each is marshalled once, and asking again returns the same arena."""
    calls = []
    marshal = ckern.marshal
    monkeypatch.setattr(ckern, "marshal",
                        lambda packed: calls.append(1) or marshal(packed))
    traces = [PackedTrace.from_records(list(sum_trace.records))
              for _ in range(20)]
    arenas = [ckern.marshal_shared(packed) for packed in traces]
    again = [ckern.marshal_shared(packed) for packed in reversed(traces)]
    assert all(a is b for a, b in zip(arenas, reversed(again)))
    assert len({id(arena) for arena in arenas}) == 20
    assert len(calls) == 20


@needs_kernel
def test_dropping_a_trace_releases_its_shared_arena(sum_trace):
    """A shared arena lives as long as its trace and no longer: dropping
    the trace releases the column exports without the cyclic
    collector."""
    packed = PackedTrace.from_records(list(sum_trace.records))
    pc = packed.pc
    cfg = ckern.pack_config(reduced_config(), True)
    gc.disable()
    try:
        mtrace = ckern.marshal_shared(packed)
        (point,) = ckern.run_batch([(cfg, mtrace, 10_000_000, 0, 0, None)],
                                   1)
        assert point[0] == ckern.RC_OK
        del mtrace, point
        with pytest.raises(BufferError):
            pc.append(0)
        del packed
        pc.append(0)
    finally:
        gc.enable()


@needs_kernel
def test_trace_over_the_producer_bound_runs_the_python_loop(
        monkeypatch, sum_trace):
    """A record with more sources than the kernel's producer bound makes
    the trace unmarshallable; its core then runs the Python loop, to the
    stats of a run with the kernel switched off."""
    records = list(sum_trace.records)
    ix = next(i for i, rec in enumerate(records) if rec.rd > 0)
    rec = records[ix]
    records[ix] = TraceRecord(
        rec.pc, rec.op, rec.opclass, rec.latency, rec.rd,
        tuple(range(1, ckern.MAX_PRODUCERS + 2)), rec.addr, rec.taken,
        rec.next_pc)
    packed = PackedTrace.from_records(records)
    assert ckern.marshal(packed) is None
    assert ckern.marshal_shared(packed) is None
    core = OoOCore(reduced_config(), packed)
    assert core._ctrace is None
    stats = _full_stats(core, core.run())
    monkeypatch.setenv("REPRO_PURE_PY", "1")
    reference = OoOCore(reduced_config(), packed)
    assert stats == _full_stats(reference, reference.run())
    assert stats["original_committed"] == len(records)


def test_pins_type_by_typecode_and_release_on_del():
    """One native call's pins: the element type follows each array's
    typecode, an unknown typecode raises, and ``del`` releases every
    export without the cyclic collector."""
    from array import array
    arrays = [array("q", [1, 2]), array("b", [1]), array("d", [0.5]),
              array("q")]
    gc.disable()
    try:
        pin = ckern._Pins()
        for arr in arrays:
            pin(arr)
        with pytest.raises(BufferError):
            arrays[0].append(3)
        del pin
        for arr in arrays:
            arr.append(1)
    finally:
        gc.enable()
    with pytest.raises(TypeError, match="'i'"):
        ckern._Pins()(array("i", [1]))


# ---------------------------------------------------------------------
# Folding in the kernel: every degrade path gives the reference result
# ---------------------------------------------------------------------

def _sum_plan(sum_loop, sum_trace):
    return make_plan(sum_loop, sum_trace.dynamic_count_of(), StructAll())


def _reference_stats(trace, plan, **kwargs):
    """Stats of the Python loop over the reference fold's records."""
    core = OoOCore(full_config(), fold_records(trace, plan),
                   warm_caches=True, **kwargs)
    core._ctrace = None
    return _full_stats(core, core.run())


def test_pure_python_env_folds_in_python(monkeypatch, sum_loop, sum_trace):
    """REPRO_PURE_PY: the reference fold runs at once, no arena."""
    plan = _sum_plan(sum_loop, sum_trace)
    want = _reference_stats(sum_trace, plan)
    monkeypatch.setenv("REPRO_PURE_PY", "1")
    folded = fold_trace(sum_trace, plan)
    assert folded.arena is None
    assert any(isinstance(rec, MGHandleRecord) for rec in folded)
    core = OoOCore(full_config(), folded, warm_caches=True)
    assert core._ctrace is None
    assert _full_stats(core, core.run()) == want


@needs_kernel
def test_kernel_folded_run_matches_reference(sum_loop, sum_trace):
    """The C-folded arena runs bit-identically to the Python loop over
    the reference records, and never builds them."""
    plan = _sum_plan(sum_loop, sum_trace)
    want = _reference_stats(sum_trace, plan)
    folded = fold_trace(sum_trace, plan)
    core = OoOCore(full_config(), folded, warm_caches=True)
    assert core._ctrace is folded.arena
    assert _full_stats(core, core.run()) == want
    assert folded._packed is None


@needs_kernel
def test_kernel_path_core_allocates_no_python_loop_tables(sum_loop,
                                                          sum_trace):
    """A core whose run takes the kernel never builds the Python loop's
    cache, TLB, BTB, predictor or store-set tables (about 470 kB of
    lists on ``reduced``); its counters still read the kernel's."""
    import tracemalloc

    folded = fold_trace(sum_trace, _sum_plan(sum_loop, sum_trace))
    config = reduced_config()
    OoOCore(config, folded)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        core = OoOCore(config, folded)
        allocated = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert core._ctrace is folded.arena
    assert allocated < 32_000, allocated
    core.run()
    hierarchy, branch_unit = core.hierarchy, core.branch_unit
    tables = [vars(hierarchy.il1), vars(hierarchy.dl1), vars(hierarchy.l2),
              vars(hierarchy.itlb), vars(hierarchy.dtlb),
              vars(branch_unit.btb), vars(branch_unit.direction),
              vars(core.storesets)]
    assert not any(name in table for table in tables
                   for name in ("_sets", "_bimodal", "_ssit"))
    assert hierarchy.l2.accesses > 0 and branch_unit.cond_predictions > 0


def _truncate_mid_site(trace, plan, drop_last_constituent):
    """``trace`` cut inside (or with a hole in) the last site instance."""
    starts = {site.start: site for site in plan.sites}
    ix = max(i for i, rec in enumerate(trace.records) if rec.pc in starts)
    site = starts[trace.records[ix].pc]
    records = list(trace.records)
    if drop_last_constituent:
        del records[ix + site.end - site.start - 1]
    else:
        del records[ix + 1:]
    return Trace(trace.program, records, trace.input_name)


@needs_kernel
@pytest.mark.parametrize("hole", [False, True])
def test_off_layout_trace_fails_like_reference(sum_loop, sum_trace, hole):
    """A trace off the plan's site layout: the C fold declines and
    fold_trace raises exactly what the reference fold raises."""
    plan = _sum_plan(sum_loop, sum_trace)
    bad = _truncate_mid_site(sum_trace, plan, drop_last_constituent=hole)
    with pytest.raises(AssertionError) as want:
        fold_records(bad, plan)
    before = ckern.counters["fold_fallbacks"]
    with pytest.raises(AssertionError) as got:
        fold_trace(bad, plan)
    assert str(got.value) == str(want.value)
    assert ckern.counters["fold_fallbacks"] == before + 1


@needs_kernel
def test_kernel_failure_after_fold_uses_reference(monkeypatch, sum_loop,
                                                  sum_trace):
    """The kernel failing after the C fold (RC_NOMEM) builds the
    reference records then and returns identical stats."""
    plan = _sum_plan(sum_loop, sum_trace)
    want = _reference_stats(sum_trace, plan)
    folded = fold_trace(sum_trace, plan)
    core = OoOCore(full_config(), folded, warm_caches=True)
    assert core._ctrace is folded.arena and folded._packed is None
    monkeypatch.setattr(ckern, "run_batch", lambda entries, threads: [
        (ckern.RC_NOMEM, None, None, 0, False) for _ in entries])
    before = ckern.counters["fold_fallbacks"]
    assert _full_stats(core, core.run()) == want
    assert folded._packed is not None
    assert ckern.counters["fold_fallbacks"] == before + 1


@needs_kernel
@pytest.mark.parametrize("observer", ["policy", "tracer"])
def test_policy_and_tracer_see_record_objects(sum_loop, sum_trace,
                                              observer):
    """Slack-Dynamic and PipeTracer runs read the reference records."""
    seen = []

    class Spy(SlackDynamicPolicy):
        def enabled(self, site):
            seen.append(site)
            return super().enabled(site)

    def make():
        return {"policy": Spy()} if observer == "policy" \
            else {"tracer": PipeTracer()}

    plan = _sum_plan(sum_loop, sum_trace)
    want = _reference_stats(sum_trace, plan, **make())
    folded = fold_trace(sum_trace, plan)
    del seen[:]
    core = OoOCore(full_config(), folded, warm_caches=True, **make())
    assert core._ctrace is None
    assert _full_stats(core, core.run()) == want
    assert any(isinstance(rec, MGHandleRecord) for rec in folded)
    if observer == "policy":
        assert seen and all(site in plan.sites for site in seen)


# ---------------------------------------------------------------------
# Slack-Dynamic in the kernel: every way off it gives the reference
# ---------------------------------------------------------------------

#: Disables and resurrects both sites of the sum loop several times.
DYNAMIC = dict(mode="sial", threshold=1, resurrect_interval=3)


def _policy_state(policy):
    return ([(site_id, s.counter, s.disabled, s.quiet)
             for site_id, s in policy._sites.items()],
            list(policy._benign.items()), policy.disable_events,
            policy.resurrect_events)


def _dynamic_reference(trace, plan, max_cycles=200_000_000, **kwargs):
    """(stats, policy state, deadlock message) of the Python loop over
    the reference records, optionally from a policy that already ran."""
    policy = kwargs.pop("policy", None) or SlackDynamicPolicy(**DYNAMIC)
    core = OoOCore(full_config(), fold_records(trace, plan),
                   warm_caches=True, policy=policy, **kwargs)
    core._ctrace = None
    try:
        core.run(max_cycles)
        message = None
    except SimulationDeadlock as err:
        message = str(err)
    return _full_stats(core, core.stats), _policy_state(policy), message


def _dynamic_run(trace, plan, max_cycles=200_000_000, **kwargs):
    """Same as _dynamic_reference on a fresh fold, whichever path the
    core picks; also returns that core."""
    policy = kwargs.pop("policy", None) or SlackDynamicPolicy(**DYNAMIC)
    core = OoOCore(full_config(), fold_trace(trace, plan), warm_caches=True,
                   policy=policy, **kwargs)
    try:
        core.run(max_cycles)
        message = None
    except SimulationDeadlock as err:
        message = str(err)
    return (_full_stats(core, core.stats), _policy_state(policy),
            message), core


@needs_kernel
def test_dynamic_run_takes_the_kernel(sum_loop, sum_trace):
    """An exact SlackDynamicPolicy with no observer runs in C, builds no
    records and leaves the policy as the Python loop would."""
    plan = _sum_plan(sum_loop, sum_trace)
    want = _dynamic_reference(sum_trace, plan)
    before = dict(ckern.counters)
    got, core = _dynamic_run(sum_trace, plan)
    assert core._ctrace is not None and core._objs is None
    assert got == want
    assert want[0]["mg_disabled_instances"] > 0
    assert want[2] is None and want[1][3] > 0  # resurrections happened
    assert ckern.counters["policy_runs_native"] == \
        before["policy_runs_native"] + 1
    assert ckern.counters["policy_fallbacks"] == before["policy_fallbacks"]


@needs_kernel
def test_base_policy_runs_as_a_plain_kernel_run(sum_loop, sum_trace):
    """The base MiniGraphPolicy never disables a site: it keeps the
    kernel, with no policy state, and matches a policy-free run."""
    plan = _sum_plan(sum_loop, sum_trace)
    want = _reference_stats(sum_trace, plan)
    core = OoOCore(full_config(), fold_trace(sum_trace, plan),
                   warm_caches=True, policy=MiniGraphPolicy())
    assert core._ctrace is not None and core._kernel_policy is None
    assert _full_stats(core, core.run()) == want


def test_dynamic_run_pure_python_env(monkeypatch, sum_loop, sum_trace):
    """REPRO_PURE_PY: the Python loop runs, with the reference result."""
    plan = _sum_plan(sum_loop, sum_trace)
    want = _dynamic_reference(sum_trace, plan)
    monkeypatch.setenv("REPRO_PURE_PY", "1")
    before = dict(ckern.counters)
    got, core = _dynamic_run(sum_trace, plan)
    assert core._ctrace is None
    assert got == want
    assert ckern.counters["policy_runs_native"] == \
        before["policy_runs_native"]


@needs_kernel
def test_dynamic_kernel_failure_reruns_from_pre_run_state(monkeypatch,
                                                          sum_loop,
                                                          sum_trace):
    """The kernel failing (RC_NOMEM) after it updated its copy of the
    state: the Python rerun starts from the policy's pre-run state, here
    that of a policy which already ran once."""
    plan = _sum_plan(sum_loop, sum_trace)

    def ran_once():
        policy = SlackDynamicPolicy(**DYNAMIC)
        _dynamic_reference(sum_trace, plan, policy=policy)
        return policy

    want = _dynamic_reference(sum_trace, plan, policy=ran_once())
    real = ckern.run_batch

    def failing(entries, threads):
        # The real batch writes the kernel's final state into the arrays.
        return [(ckern.RC_NOMEM,) + point[1:]
                for point in real(entries, threads)]

    monkeypatch.setattr(ckern, "run_batch", failing)
    before = dict(ckern.counters)
    got, core = _dynamic_run(sum_trace, plan, policy=ran_once())
    assert got == want
    assert core._ctrace is None
    assert ckern.counters["policy_fallbacks"] == \
        before["policy_fallbacks"] + 1
    assert ckern.counters["policy_runs_native"] == \
        before["policy_runs_native"]


@needs_kernel
@pytest.mark.parametrize("observer", ["tracer", "attribution"])
def test_dynamic_run_with_observer_stays_in_python(sum_loop, sum_trace,
                                                   observer):
    """A policy together with a PipeTracer or an AttributionCollector
    (what attribute_point attaches for slack-dynamic) takes the Python
    loop and gives the reference result."""
    from repro.obs.attribution import AttributionCollector

    def make():
        return {"tracer": PipeTracer()} if observer == "tracer" \
            else {"attribution": AttributionCollector()}

    plan = _sum_plan(sum_loop, sum_trace)
    want = _dynamic_reference(sum_trace, plan, **make())
    before = dict(ckern.counters)
    got, core = _dynamic_run(sum_trace, plan, **make())
    assert core._ctrace is None
    assert got == want
    assert ckern.counters["policy_runs_native"] == \
        before["policy_runs_native"]
    assert ckern.counters["policy_fallbacks"] == before["policy_fallbacks"]


@needs_kernel
@pytest.mark.parametrize("max_cycles", [3, 120])
def test_dynamic_deadlock_parity(sum_loop, sum_trace, max_cycles):
    """A cycle budget cut before the end (at once, and mid-run with
    sites disabled): the same SimulationDeadlock message, counters and
    policy state on both paths."""
    plan = _sum_plan(sum_loop, sum_trace)
    want = _dynamic_reference(sum_trace, plan, max_cycles)
    before = dict(ckern.counters)
    got, core = _dynamic_run(sum_trace, plan, max_cycles)
    assert core._ctrace is not None
    assert got == want
    assert want[2] == "exceeded max cycle budget"
    assert ckern.counters["policy_runs_native"] == \
        before["policy_runs_native"] + 1
    if max_cycles > 3:
        assert want[1][2] > 0  # sites were disabled before the cut


@needs_kernel
def test_dynamic_non_integer_parameter_reruns_in_python(sum_loop,
                                                        sum_trace):
    """A parameter the int64 state block cannot carry (a float
    threshold): the kernel declines before running and the Python loop
    gives the reference result."""
    plan = _sum_plan(sum_loop, sum_trace)
    params = dict(DYNAMIC, threshold=1.5)
    want = _dynamic_reference(sum_trace, plan,
                              policy=SlackDynamicPolicy(**params))
    before = dict(ckern.counters)
    got, core = _dynamic_run(sum_trace, plan,
                             policy=SlackDynamicPolicy(**params))
    assert got == want
    assert core._ctrace is None
    assert ckern.counters["run_batch_calls"] == before["run_batch_calls"]
    assert ckern.counters["policy_fallbacks"] == \
        before["policy_fallbacks"] + 1
