"""Plan-kernel parity: native plan construction vs the Python reference.

The compiled kernel carries three plan-construction entry points —
``repro_profile_build`` (packed SoA slack profiles straight from the
event-tap log), ``repro_enumerate_candidates`` (C candidate discovery
over packed static columns), and ``repro_score_candidates`` (the §4
delay-model rules over whole candidate sets). Python keeps the
reference implementation of each, selected by the same
``REPRO_PURE_PY`` / no-compiler contract as the timing kernel. These
tests pin the bit-identity of the two paths: same profiles, same
candidates (down to pickle bytes), same selector pools — across the
golden-matrix workloads, ≥50 fuzz-derived programs, and the degrade
paths (pure-Python forced, kernel-ineligible shapes).
"""

import pickle

import pytest

from repro.check.fuzz import FuzzSpec
from repro.isa.interp import execute
from repro.minigraph import candidates as candidates_mod
from repro.minigraph.candidates import (
    PackedCandidateSet, enumerate_candidates,
)
from repro.minigraph.delay_model import (
    VERDICT_DEGRADES, VERDICT_DELAY_ONLY, VERDICT_PROFILED,
    VERDICT_SIAL, assess, assess_batch,
)
from repro.minigraph.selectors import (
    ReadPortAwareSelector, SlackProfileSelector, StructAll, make_plan,
)
from repro.minigraph.slack import SlackCollector
from repro.minigraph.templates import build_templates
from repro.minigraph.transform import fold_records, fold_trace
from repro.obs.metrics import MetricsRegistry, collect_ckern
from repro.pipeline import ckern
from repro.pipeline.config import config_by_name
from repro.pipeline.core import OoOCore
from repro.harness.runner import Runner
from repro.tune.space import DEFAULT_SELECTOR_GRIDS
from repro.workloads import benchmark
from tests.conftest import build_cmov_loop

needs_kernel = pytest.mark.skipif(
    not ckern.available(),
    reason="compiled kernel unavailable (no C compiler or REPRO_PURE_PY)")

#: Profiling runs happen on the reduced machine (§5.5 self-training).
PROFILE_CONFIG = "reduced"

WORKLOADS = ["crc32", "adpcm", "fft", "gzip"]

#: Shared memoizing runner: traces are input-deterministic, so one
#: per-module instance keeps the fuzz/golden sweeps fast.
RUNNER = Runner()

#: The golden enumeration matrix: every (max_size, max_ext) corner the
#: packed-candidate encoding supports, plus one oversize point that
#: must degrade to the Python enumerator.
SIZES = [2, 3, 4]
EXTS = [0, 1, 2, 3]

#: Fuzz seeds, plus the CMOV loop: no fuzz program emits the ISA's
#: three-source instructions.
FUZZ_PROGRAMS = [*range(50), "cmov"]


def _program(name):
    return benchmark(name).program("train")


def _fuzz_program(seed):
    return build_cmov_loop() if seed == "cmov" \
        else FuzzSpec.derive(seed).build()


def _fresh_enumeration(program, max_size, max_ext):
    """Enumerate with the program's static columns dropped, so each call
    pays its full cost."""
    candidates_mod._static.pop(program, None)
    return enumerate_candidates(program, max_size=max_size,
                                max_ext_inputs=max_ext)


def _candidate_fields(candidate):
    return (candidate.start, candidate.end, candidate.ext_inputs,
            candidate.output, candidate.edges, candidate.serialization,
            candidate.has_load, candidate.has_store, candidate.has_branch,
            candidate.latencies)


def _profile_pair(name, monkeypatch):
    """(native, pure-python) profiles rebuilt from one tap event log."""
    program = _program(name)
    config = config_by_name(PROFILE_CONFIG)
    packed = RUNNER.trace(name, "train").packed()

    def capture():
        collector = SlackCollector(program, config_name=config.name,
                                   input_name="train")
        core = OoOCore(config, packed, collector=collector,
                       warm_caches=True)
        core.run()
        return collector.profile()

    native = capture()
    monkeypatch.setenv("REPRO_PURE_PY", "1")
    reference = capture()
    monkeypatch.delenv("REPRO_PURE_PY")
    return native, reference


# ---------------------------------------------------------------------
# Packed profile build
# ---------------------------------------------------------------------

@needs_kernel
@pytest.mark.parametrize("name", WORKLOADS)
def test_packed_profile_build_bit_identical(name, monkeypatch):
    """Native SoA profile build == Python observer path, pickle bytes."""
    native, reference = _profile_pair(name, monkeypatch)
    assert native.entries.keys() == reference.entries.keys()
    for pc, entry in native.entries.items():
        want = reference.entries[pc]
        assert (entry.count, entry.rel_issue, entry.src_ready,
                entry.out_ready, entry.slack, entry.min_slack) == \
            (want.count, want.rel_issue, want.src_ready,
             want.out_ready, want.slack, want.min_slack), f"{name} pc={pc}"
    assert pickle.dumps(native) == pickle.dumps(reference)


@needs_kernel
@pytest.mark.parametrize("name", ["crc32", "gzip"])
def test_packed_profile_entry_order_preserved(name, monkeypatch):
    """The order[] column preserves first-commit insertion order."""
    native, reference = _profile_pair(name, monkeypatch)
    assert list(native.entries) == list(reference.entries)


# ---------------------------------------------------------------------
# C candidate enumeration
# ---------------------------------------------------------------------

@needs_kernel
@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("max_size", SIZES)
@pytest.mark.parametrize("max_ext", EXTS)
def test_enumeration_parity_golden_matrix(name, max_size, max_ext,
                                          monkeypatch):
    """Field-for-field and pickle-byte parity on every matrix corner."""
    program = _program(name)
    native = _fresh_enumeration(program, max_size, max_ext)
    assert isinstance(native, PackedCandidateSet)
    monkeypatch.setenv("REPRO_PURE_PY", "1")
    reference = _fresh_enumeration(program, max_size, max_ext)
    monkeypatch.delenv("REPRO_PURE_PY")
    assert not isinstance(reference, PackedCandidateSet)
    assert len(native) == len(reference)
    for got, want in zip(native, reference):
        assert _candidate_fields(got) == _candidate_fields(want)
    # The store boundary materializes list(...): stored artifacts must
    # be byte-identical whichever enumerator produced them.
    assert pickle.dumps(list(native)) == pickle.dumps(list(reference))


@needs_kernel
@pytest.mark.parametrize("seed", FUZZ_PROGRAMS)
def test_enumeration_parity_fuzz(seed, monkeypatch):
    """≥50 fuzz-derived programs and the CMOV loop agree between the
    enumerators."""
    program = _fuzz_program(seed)
    native = _fresh_enumeration(program, 4, 3)
    monkeypatch.setenv("REPRO_PURE_PY", "1")
    reference = _fresh_enumeration(program, 4, 3)
    monkeypatch.delenv("REPRO_PURE_PY")
    assert len(native) == len(reference)
    for got, want in zip(native, reference):
        assert _candidate_fields(got) == _candidate_fields(want)


@needs_kernel
@pytest.mark.parametrize("seed", FUZZ_PROGRAMS)
def test_fold_arena_parity_fuzz(seed):
    """The same programs fold identically in C and in Python:
    ``repro_fold``'s arena equals ``marshal`` of the reference fold."""
    program = _fuzz_program(seed)
    trace = execute(program, max_insts=20_000)
    plan = make_plan(program, trace.dynamic_count_of(), StructAll())
    folded = fold_trace(trace, plan)
    assert folded.arena is not None
    assert folded.arena.columns() == \
        ckern.marshal(fold_records(trace, plan)).columns()


@needs_kernel
def test_enumeration_lazy_rehydration_is_cached():
    """Indexing a PackedCandidateSet twice returns the same object."""
    native = _fresh_enumeration(_program("crc32"), 4, 3)
    assert len(native)
    assert native[0] is native[0]


# ---------------------------------------------------------------------
# Native scoring
# ---------------------------------------------------------------------

def _scoring_fixture(name):
    program = _program(name)
    candidates = _fresh_enumeration(program, 4, 3)
    trace = RUNNER.trace(name, "train")
    config = config_by_name(PROFILE_CONFIG)
    collector = SlackCollector(program, config_name=config.name,
                               input_name="train")
    OoOCore(config, trace.packed(), collector=collector,
            warm_caches=True).run()
    profile = collector.profile()
    templates = build_templates(candidates, trace.dynamic_count_of())
    sites = [site for template in templates for site in template.sites]
    return candidates, profile, sites


@needs_kernel
@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("variant", ["full", "delay", "sial"])
def test_scoring_pool_parity(name, variant, monkeypatch):
    """Batch-scored selector pools == per-site assess() pools."""
    candidates, profile, sites = _scoring_fixture(name)
    selector = SlackProfileSelector(variant=variant)
    native = selector.build_pool(sites, profile, candidates)
    monkeypatch.setenv("REPRO_PURE_PY", "1")
    reference = selector.build_pool(sites, profile, candidates)
    monkeypatch.delenv("REPRO_PURE_PY")
    assert [site.id for site in native] == [site.id for site in reference]


@needs_kernel
@pytest.mark.parametrize("name", ["crc32", "fft"])
def test_scoring_verdicts_match_per_site_assess(name):
    """The verdict bitmask agrees with assess() site for site."""
    candidates, profile, sites = _scoring_fixture(name)
    verdicts = assess_batch(candidates, profile)
    assert verdicts is not None
    for site in sites:
        expected = assess(site.candidate, profile)
        verdict = int(verdicts[site.id])
        if expected is None:
            assert verdict == 0, f"site {site.id}"
        else:
            assert verdict & VERDICT_PROFILED
            assert bool(verdict & VERDICT_DEGRADES) == \
                expected.degrades
            assert bool(verdict & VERDICT_DELAY_ONLY) == \
                expected.degrades_delay_only
            assert bool(verdict & VERDICT_SIAL) == \
                expected.degrades_sial


@pytest.mark.parametrize("name", WORKLOADS)
def test_read_port_pool_ignores_the_candidate_list(name):
    """Read-Port admits each site off the site itself: handing it the
    candidate list changes no pool on the tune space's default grid."""
    candidates, profile, sites = _scoring_fixture(name)
    grid = DEFAULT_SELECTOR_GRIDS["read-port"]
    for port_budget in grid["port_budget"]:
        for pressure_weight in grid["pressure_weight"]:
            selector = ReadPortAwareSelector(port_budget, pressure_weight)
            with_list = selector.build_pool(sites, profile, candidates)
            per_site = selector.build_pool(sites, profile)
            assert [site.id for site in with_list] == \
                [site.id for site in per_site], selector.display_name


# ---------------------------------------------------------------------
# Degrade paths
# ---------------------------------------------------------------------

def test_pure_python_env_disables_every_plan_kernel(monkeypatch):
    """REPRO_PURE_PY routes every entry point to the reference path."""
    monkeypatch.setenv("REPRO_PURE_PY", "1")
    program = _program("crc32")
    result = _fresh_enumeration(program, 4, 3)
    assert not isinstance(result, PackedCandidateSet)
    assert ckern.profile_build(None, 0, 0, None, None, 0, 0, 64) is None
    assert ckern.plan_enumerate(None, None, None, None, None, None,
                                4, 3) is None
    assert assess_batch(result or [], None) is None


@needs_kernel
def test_oversize_shapes_degrade_to_python():
    """Sizes the packed encoding cannot carry fall back cleanly."""
    program = _program("dijkstra")
    oversize = _fresh_enumeration(program, 5, 3)
    assert not isinstance(oversize, PackedCandidateSet)
    wide = _fresh_enumeration(program, 4, 4)
    assert not isinstance(wide, PackedCandidateSet)


@needs_kernel
def test_library_loss_degrades_to_python(monkeypatch):
    """available() flipping false mid-session falls back, not crashes."""
    program = _program("crc32")
    native = list(_fresh_enumeration(program, 4, 3))
    monkeypatch.setattr(ckern, "available", lambda: False)
    reference = list(_fresh_enumeration(program, 4, 3))
    assert [_candidate_fields(c) for c in native] == \
        [_candidate_fields(c) for c in reference]


@needs_kernel
def test_plan_kernel_counters_advance():
    """collect_ckern's plan-side counters move when the kernels run."""
    before = dict(ckern.counters)
    candidates, profile, sites = _scoring_fixture("crc32")
    SlackProfileSelector().build_pool(sites, profile, candidates)
    assert ckern.counters["profiles_built_native"] > \
        before.get("profiles_built_native", 0)
    assert ckern.counters["candidates_enumerated_native"] > \
        before.get("candidates_enumerated_native", 0)
    assert ckern.counters["scoring_calls"] > \
        before.get("scoring_calls", 0)
    # Each entry point's native calls are counted and timed, and
    # collect_ckern exports both per entry.
    for entry in ("profile_build", "plan_enumerate", "plan_score"):
        assert ckern.counters[f"{entry}_calls"] > before[f"{entry}_calls"]
        assert ckern.counters[f"{entry}_ns"] > before[f"{entry}_ns"]
    registry = MetricsRegistry()
    collect_ckern(registry)
    values = registry.snapshot()
    for entry in ckern.ENTRY_POINTS:
        assert values[f"ckern.{entry}.calls"] == \
            ckern.counters[f"{entry}_calls"]
        assert values[f"ckern.{entry}.ns"] == ckern.counters[f"{entry}_ns"]
    assert values["ckern.fold_fallbacks"] == ckern.counters["fold_fallbacks"]


# ---------------------------------------------------------------------
# Global-slack fold
# ---------------------------------------------------------------------

@needs_kernel
@pytest.mark.parametrize("name", ["crc32", "fft"])
def test_global_fold_bit_identical(name, monkeypatch):
    """repro_global_fold == a ``REPRO_PURE_PY`` run's in-loop observer,
    profile for profile (the Python tap decode is
    ``test_declined_global_fold_decodes_in_python``)."""
    from repro.analysis.global_slack import GlobalSlackCollector

    program = _program(name)
    config = config_by_name(PROFILE_CONFIG)
    packed = RUNNER.trace(name, "train").packed()

    def capture():
        collector = GlobalSlackCollector(program, config_name=config.name,
                                         input_name="train")
        core = OoOCore(config, packed, collector=collector,
                       warm_caches=True)
        core.run()
        return collector.profile(), collector.global_profile()

    native_local, native_global = capture()
    monkeypatch.setenv("REPRO_PURE_PY", "1")
    ref_local, ref_global = capture()
    monkeypatch.delenv("REPRO_PURE_PY")
    assert pickle.dumps(native_local) == pickle.dumps(ref_local)
    assert pickle.dumps(native_global) == pickle.dumps(ref_global)
