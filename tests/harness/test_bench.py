"""``repro bench`` harness: measurement, serialization, regression gates."""

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.harness.bench import (
    BenchPoint, check_against, check_speedups, load_report, run_bench,
    write_report,
)
from repro.pipeline import ckern

needs_kernel = pytest.mark.skipif(
    not ckern.available(),
    reason="compiled kernel unavailable (no C compiler or REPRO_PURE_PY)")

BENCH_FILES = sorted(
    (Path(__file__).resolve().parents[2] / "benchmarks").glob("BENCH_*.json"))


@pytest.fixture(scope="module")
def report(runner_module):
    return run_bench(benchmarks=("crc32",),
                     selectors=("none", "struct-all"),
                     label="test", repeat=2, runner=runner_module)


@pytest.fixture(scope="module")
def runner_module():
    from repro.harness import Runner
    return Runner()


def test_report_shape(report):
    assert [(p.bench, p.selector) for p in report.points] == \
        [("crc32", "none"), ("crc32", "struct-all")]
    for point in report.points:
        assert point.cycles > 0
        assert point.instructions > 0
        assert point.kips > 0
        assert 0.0 <= point.coverage <= 1.0
    assert report.total_instructions == \
        sum(p.instructions for p in report.points)
    assert report.kips > 0
    assert report.repeat == 2


def test_fidelity_fields_are_deterministic(report, runner_module):
    """Cycles/IPC/coverage must not depend on the measurement run."""
    again = run_bench(benchmarks=("crc32",), selectors=("none",),
                      label="again", runner=runner_module)
    first = next(p for p in report.points if p.selector == "none")
    assert (again.points[0].cycles, again.points[0].ipc,
            again.points[0].coverage, again.points[0].instructions) == \
        (first.cycles, first.ipc, first.coverage, first.instructions)


def test_write_and_load_roundtrip(report, tmp_path):
    path = write_report(report, tmp_path)
    assert path.name == "BENCH_test.json"
    loaded = load_report(path)
    assert loaded.label == report.label
    assert loaded.schema == report.schema
    assert loaded.points == report.points
    # The file is plain sorted JSON, diffable in review.
    data = json.loads(path.read_text())
    assert list(data) == sorted(data)


def test_check_against_passes_itself(report):
    assert check_against(report, report) == []


def test_check_against_flags_fidelity_drift(report):
    drifted = dataclasses.replace(report)
    drifted.points = [dataclasses.replace(p) for p in report.points]
    drifted.points[0].cycles += 1
    failures = check_against(drifted, report)
    assert len(failures) == 1
    assert "cycles diverged" in failures[0]


def test_check_against_gates_aggregate_kips(report):
    slow = dataclasses.replace(report)
    slow.points = list(report.points)
    slow.kips = report.kips * 0.5
    failures = check_against(slow, report, tolerance=0.20)
    assert len(failures) == 1
    assert "KIPS regressed" in failures[0]
    # Within tolerance is not a failure; per-point KIPS is never gated.
    slow.kips = report.kips * 0.85
    assert check_against(slow, report, tolerance=0.20) == []


def test_check_against_requires_overlap(report):
    other = dataclasses.replace(report)
    other.points = [dataclasses.replace(p, bench="fft")
                    for p in report.points]
    failures = check_against(other, report)
    assert failures == ["no overlapping matrix points with the baseline"]


def test_render_mentions_every_point(report):
    text = report.render()
    assert "crc32" in text and "struct-all" in text
    assert "KIPS" in text


def test_unknown_selector_rejected(runner_module):
    with pytest.raises(ValueError, match="unknown selector"):
        run_bench(benchmarks=("crc32",), selectors=("bogus",),
                  runner=runner_module)


def test_point_is_serializable():
    point = BenchPoint(bench="b", selector="s", config="c",
                       instructions=1, cycles=1, ipc=1.0, coverage=0.0,
                       ms={"run": 1.0}, counts={"records": 1})
    assert json.loads(json.dumps(dataclasses.asdict(point)))


def test_report_embeds_run_manifest(report, tmp_path):
    """Every BENCH json carries git SHA / config digest / salt."""
    from repro.exec.store import code_version
    manifest = report.manifest
    for key in ("git_sha", "config_digest", "salt", "created", "label"):
        assert key in manifest, key
    assert manifest["salt"] == code_version()
    loaded = load_report(write_report(report, tmp_path))
    assert loaded.manifest == manifest


def test_load_report_pre_manifest_files(report, tmp_path):
    """BENCH files written before the manifest field still load."""
    path = write_report(report, tmp_path)
    data = json.loads(path.read_text())
    del data["manifest"]
    data["future_field"] = "ignored"  # unknown fields are dropped, not fatal
    path.write_text(json.dumps(data))
    loaded = load_report(path)
    assert loaded.manifest == {}
    assert loaded.points == report.points


def test_bench_with_telemetry_spans_points(runner_module, tmp_path):
    from repro.obs.telemetry import TelemetryWriter, validate_file

    writer = TelemetryWriter(tmp_path / "bench.jsonl")
    traced = run_bench(benchmarks=("crc32",), selectors=("none",),
                       label="traced", runner=runner_module,
                       telemetry=writer)
    writer.close()
    assert traced.manifest is writer.manifest
    summary = validate_file(writer.path)
    assert summary["cats"].get("bench") == 1
    with open(writer.path) as handle:
        lines = [json.loads(line) for line in handle]
    span = next(l for l in lines[1:] if l.get("cat") == "bench")
    assert span["name"] == "crc32/none" and span["ph"] == "X"
    assert span["args"]["cycles"] == traced.points[0].cycles


# -- comparisons: native leg vs reference leg ---------------------------------

#: One comparison per mode: ``run_bench`` keyword arguments.
COMPARISONS = {
    "batch": {"mode": "batch"},
    "plan": {"mode": "plan"},
    "observed": {"selectors": ("observed",)},
}


@pytest.fixture(scope="module", params=sorted(COMPARISONS))
def comparison(request, tmp_path_factory):
    if not ckern.available():
        pytest.skip("compiled kernel unavailable (no C compiler or "
                    "REPRO_PURE_PY)")
    from repro.exec.store import ArtifactStore
    from repro.harness import Runner
    store = ArtifactStore(tmp_path_factory.mktemp(request.param))
    report = run_bench(benchmarks=("crc32",), label=request.param,
                       runner=Runner(store=store),
                       **COMPARISONS[request.param])
    return request.param, report


def test_comparison_roundtrips_and_passes_its_gate(comparison, tmp_path):
    mode, report = comparison
    loaded = load_report(write_report(report, tmp_path))
    assert loaded == report
    assert loaded.points and all(p.reference_ms for p in loaded.points)
    for point in loaded.points:
        assert set(point.reference_ms) <= set(point.ms)
        assert point.cycles > 0 and point.instructions > 0
    assert check_speedups(loaded, min_speedup=1.0) == []


def test_comparison_below_its_bound_fails_the_gate(comparison):
    mode, report = comparison
    doctored = dataclasses.replace(report, points=[
        dataclasses.replace(p) for p in report.points])
    slow = doctored.points[-1]
    slow.reference_ms = {layer: slow.ms[layer] / 2
                         for layer in slow.reference_ms}
    failures = check_speedups(doctored, min_speedup=1.0)
    assert len(failures) == 1
    assert f"{slow.bench}/{slow.selector}: native only 0.50x" \
        in failures[0]


@needs_kernel
def test_comparison_whose_legs_disagree_raises(monkeypatch, runner_module):
    """The reference leg's results must match the native leg's before
    either timing counts."""
    from repro.pipeline.core import OoOCore

    real_run = OoOCore.run

    def skewed_run(self, *args, **kwargs):
        stats = real_run(self, *args, **kwargs)
        if os.environ.get("REPRO_PURE_PY"):
            stats.cycles += 1
        return stats

    monkeypatch.setattr(OoOCore, "run", skewed_run)
    with pytest.raises(RuntimeError, match="diverged from the reference"):
        run_bench(benchmarks=("crc32",), selectors=("observed",),
                  runner=runner_module)


def test_non_comparison_points_are_not_gated(report):
    assert all(not p.reference_ms for p in report.points)
    assert check_speedups(report, min_speedup=1e9) == []


# -- the committed reports ------------------------------------------------------

def test_committed_reports_load():
    assert BENCH_FILES
    for path in BENCH_FILES:
        report = load_report(path)
        assert report.schema == 2, path.name
        assert report.points, path.name
        for point in report.points:
            assert point.ms and all(ms > 0 for ms in point.ms.values())
    baseline = load_report(BENCH_FILES[0].with_name("BENCH_baseline.json"))
    assert check_against(baseline, baseline) == []
