"""Limit study (Figure 8) machinery with a truncated subset sweep."""

import pickle

import pytest

from repro.analysis import SubsetPoint, run_limit_study, \
    top_nonoverlapping_sites
from repro.analysis.limit_study import (
    CHUNK, evaluate_chunk_cached, subset_plan,
)
from repro.exec.store import ArtifactStore
from repro.harness import Runner
from repro.minigraph.selectors import FixedSetSelector, make_plan
from repro.minigraph.transform import fold_records, fold_trace
from repro.pipeline import OoOCore, ckern, full_config, reduced_config

needs_kernel = pytest.mark.skipif(not ckern.available(),
                                  reason="compiled kernel unavailable")


@pytest.fixture(scope="module")
def study():
    return run_limit_study(Runner(), subset_cap=32)


@pytest.mark.parametrize("cap", [0, -1])
def test_cap_below_one_is_rejected_before_any_work(tmp_path, cap):
    with pytest.raises(ValueError, match="subset_cap"):
        run_limit_study(Runner(store=ArtifactStore(tmp_path)),
                        subset_cap=cap)
    assert not any(tmp_path.rglob("*.pkl"))


def test_top_sites_nonoverlapping():
    runner = Runner()
    sites = top_nonoverlapping_sites(runner, "adpcm", "tiny", 10)
    assert len(sites) == 10
    ordered = sorted(sites, key=lambda s: s.start)
    for a, b in zip(ordered, ordered[1:]):
        assert a.end <= b.start
    assert all(site.frequency > 0 for site in sites)


def test_empty_set_is_no_minigraph_baseline(study):
    empty = study.empty_set
    assert empty.coverage == 0.0
    assert empty.relative_ipc > 0


def test_coverage_monotone_in_mask_size(study):
    """Supersets of a subset never have lower coverage."""
    by_mask = {p.mask: p for p in study.points}
    for point in study.points:
        for bit in range(10):
            smaller = point.mask & ~(1 << bit)
            if smaller != point.mask and smaller in by_mask:
                assert by_mask[smaller].coverage <= point.coverage + 1e-9


def test_selector_points_present(study):
    assert {"struct-all", "struct-none", "struct-bounded",
            "slack-profile", "slack-dynamic"} <= set(study.selector_points)


def test_struct_all_has_max_coverage(study):
    struct_all = study.selector_points["struct-all"]
    assert struct_all.mask == (1 << 10) - 1
    for point in study.selector_points.values():
        assert point.coverage <= struct_all.coverage + 1e-9


def test_struct_none_has_min_coverage_of_selectors(study):
    struct_none = study.selector_points["struct-none"]
    for name, point in study.selector_points.items():
        if name not in ("struct-none", "slack-dynamic"):
            assert struct_none.coverage <= point.coverage + 1e-9


def test_render(study):
    text = study.render()
    assert "exhaustive best" in text
    assert "struct-all" in text


def test_subset_members():
    from repro.analysis import SubsetPoint
    point = SubsetPoint(0b1010001101, 0.5, 1.0)
    assert point.members() == [0, 2, 3, 7, 9]
    # A 12-candidate study's Struct-All mask lists all twelve sites.
    assert SubsetPoint(0xfff, 0.5, 1.0).members() == list(range(12))


def test_full_mask_has_max_coverage():
    """The all-candidates subset dominates coverage over any partial one."""
    study = run_limit_study(Runner(), subset_cap=16)
    by_mask = {p.mask: p for p in study.points}
    full_point = study.selector_points["struct-all"]
    for point in study.points:
        assert point.coverage <= full_point.coverage + 1e-9


def test_selector_points_relative_ipc_positive():
    study = run_limit_study(Runner(), subset_cap=4)
    for point in study.selector_points.values():
        assert point.relative_ipc > 0


#: Every 37th mask plus the extremes: a spread of subset sizes.
SAMPLE_MASKS = sorted(set(range(0, 1024, 37)) | {1, 512, 1023})


@needs_kernel
def test_subset_fold_arenas_match_reference():
    """Over a sample of masks, subset plans built on the runner's hoisted
    sites pickle like freshly grouped ones, and ``repro_fold``'s arena
    equals ``marshal`` of the reference fold."""
    runner = Runner()
    sites = top_nonoverlapping_sites(runner, "adpcm", "tiny", 10)
    trace = runner.trace("adpcm", "tiny")
    program = runner._bench("adpcm").program("tiny")
    for mask in SAMPLE_MASKS:
        plan = subset_plan(runner, "adpcm", "tiny", sites, mask)
        allowed = {site.id for i, site in enumerate(sites)
                   if mask & (1 << i)}
        fresh = make_plan(program, trace.dynamic_count_of(),
                          FixedSetSelector(allowed), budget=runner.budget,
                          candidates=runner.candidates("adpcm", "tiny"))
        assert pickle.dumps(plan) == pickle.dumps(fresh), mask
        folded = fold_trace(trace, plan)
        assert folded.arena.columns() == \
            ckern.marshal(fold_records(trace, plan)).columns(), mask


@needs_kernel
def test_subset_point_builds_no_records(record_objects):
    """A limit-study subset folds and runs in C: once the trace exists,
    no TraceRecord or MGHandleRecord is constructed."""
    runner = Runner()
    sites = top_nonoverlapping_sites(runner, "adpcm", "tiny", 10)
    baseline_ipc = runner.baseline("adpcm", full_config(), "tiny").ipc
    record_objects.update(TraceRecord=0, MGHandleRecord=0)
    point, = evaluate_chunk_cached(runner, "adpcm", "tiny",
                                   reduced_config(), 10, 1023, 1,
                                   baseline_ipc, sites=sites)
    assert point.coverage > 0
    assert record_objects == {"TraceRecord": 0, "MGHandleRecord": 0}


def test_chunks_match_mask_by_mask_evaluation():
    """A cap of 70 is a chunk of 64 masks and one of 6; point for point
    they equal each mask planned, folded and run on its own."""
    study = run_limit_study(Runner(), subset_cap=CHUNK + 6)
    runner = Runner()
    config = reduced_config()
    sites = top_nonoverlapping_sites(runner, "adpcm", "tiny", 10)
    trace = runner.trace("adpcm", "tiny")
    baseline_ipc = runner.baseline("adpcm", full_config(), "tiny").ipc
    reference = []
    for mask in range(CHUNK + 6):
        plan = subset_plan(runner, "adpcm", "tiny", sites, mask)
        stats = OoOCore(config, fold_trace(trace, plan),
                        warm_caches=runner.warm_caches).run()
        reference.append(SubsetPoint(mask, stats.coverage,
                                     stats.ipc / baseline_ipc))
    assert study.points == reference


def test_capped_sweep_stores_one_artifact_per_chunk(tmp_path):
    """One ``subset`` file per chunk of the sweep, holding its points in
    mask order, plus a chunk of one per selector mask outside it."""
    runner = Runner(store=ArtifactStore(tmp_path))
    study = run_limit_study(runner, subset_cap=CHUNK + 6)
    baseline_ipc = runner.baseline("adpcm", full_config(), "tiny").ipc

    def chunk_key(first, count):
        return runner.store.key("subset", runner.subset_params(
            "adpcm", "tiny", reduced_config(), 10, first, count,
            baseline_ipc))

    outside = {point.mask for name, point in study.selector_points.items()
               if name != "slack-dynamic" and point.mask >= CHUNK + 6}
    assert (1 << 10) - 1 in outside         # Struct-All's full set
    expected = {chunk_key(0, CHUNK), chunk_key(CHUNK, 6)} | {
        chunk_key(mask, 1) for mask in outside}
    stored = {key for key, kind, _ in runner.store.backend.entries()
              if kind == "subset"}
    assert stored == expected
    reread = ArtifactStore(tmp_path)
    assert reread.get(chunk_key(CHUNK, 6), "subset") == study.points[CHUNK:]
