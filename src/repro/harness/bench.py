"""``repro bench``: the performance harness for the simulator itself.

The paper's evidence is simulator output, so this module checks that
the simulator producing it stays exact and fast. Every bench writes one
report shape: a :class:`BenchReport` is a run manifest plus points, and
each :class:`BenchPoint` carries its simulated results (``instructions``,
``cycles``, ``ipc``, ``coverage``) and a table of wall milliseconds per
timed layer (``ms``). Every layer keeps the fastest of ``repeat``
timings; the simulated results are asserted identical across repeats.

The benches (:data:`MODES`):

``kips`` (the default)
    A benchmark x selector matrix. Layer ``run`` times
    ``OoOCore.run()`` alone; ``prepare`` is the ungated plan, fold and
    core set-up around it (the trace is generated beforehand). The
    aggregate ``kips`` counts committed original-program instructions
    (a retired mini-graph handle counts its constituents) per
    run-second, so it is comparable across selectors.
``batch``
    For each selector, the benchmark x machine matrix as one
    ``repro_run_batch`` call against one pool task per point (layer
    ``dispatch``; the reference leg's workers set their point up and run
    it, writing nothing to the store).
``plan``
    Plan construction from one captured event-tap log: the slack
    profile (``profile``), candidate enumeration (``enumerate``) and the
    selector's scoring (``score``).

Batch and plan points are comparisons, and so is the selector
``observed`` in the ``kips`` matrix: a slack-profiling run on the
kernel's event tap against the Python observer loop. A comparison times
a native leg (``ms``) and a reference leg (``reference_ms``: the pool
for ``batch``, ``REPRO_PURE_PY`` set in-process otherwise), asserts the
two agree before either timing counts, and reports ``speedup``, which
:func:`check_speedups` gates per point. :func:`check_against` gates a
report against a committed one on fidelity and aggregate KIPS. Every
point is set up as the pipeline sets it up: through the Runner's
``*_prepared`` helpers. See ``docs/performance.md``.
"""

from __future__ import annotations

import json
import os
import pickle
import platform
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..exec.batch import DEFAULT_MAX_CYCLES
from ..pipeline.config import MachineConfig, config_by_name
from .runner import Runner

#: The default matrix: a deliberate mix of compute-bound (crafty, fft),
#: branchy (gzip, dijkstra), serial (g721pred) and memory-bound (mcf)
#: workloads so aggregate KIPS cannot be gamed by one behaviour class.
DEFAULT_BENCHMARKS = ("crc32", "dijkstra", "fft", "g721pred", "mcf",
                      "gzip", "crafty", "patricia")
DEFAULT_SELECTORS = ("none", "struct-all", "slack-profile")

#: ``--quick`` matrix for CI smoke runs.
QUICK_BENCHMARKS = ("crc32", "dijkstra", "mcf")
QUICK_SELECTORS = ("none", "struct-all")

#: Each bench's default selectors. Besides the registered selector
#: families, ``none`` is the singleton baseline and ``observed`` a
#: slack-profiling run.
MODES = {"kips": DEFAULT_SELECTORS, "batch": ("none", "observed"),
         "plan": ("slack-profile",)}

#: The simulated results a point may record, all compared exactly by
#: :func:`check_against`.
RESULTS = ("cycles", "ipc", "coverage", "instructions")

SCHEMA_VERSION = 2


@dataclass
class BenchPoint:
    """One point: a benchmark x selector x machine, or a batch's matrix
    (comma-joined names). A result it does not record is None."""

    bench: str
    selector: str
    config: str
    instructions: Optional[int] = None
    cycles: Optional[int] = None
    ipc: Optional[float] = None
    coverage: Optional[float] = None
    #: Wall milliseconds per timed layer (the native leg's, in a
    #: comparison).
    ms: Dict[str, float] = field(default_factory=dict)
    #: A comparison's reference leg, for the layers it compares.
    reference_ms: Dict[str, float] = field(default_factory=dict)
    #: Sizes of the work: trace ``records``; a batch's ``points`` and
    #: ``threads``; a plan's ``static`` instructions, ``candidates`` and
    #: ``tap_words``.
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def kips(self) -> float:
        """Thousands of instructions per second of the ``run`` layer."""
        run = self.ms.get("run")
        return self.instructions / run if run and self.instructions else 0.0

    @property
    def speedup(self) -> float:
        """Reference over native milliseconds, on the compared layers."""
        native = sum(self.ms[layer] for layer in self.reference_ms)
        return sum(self.reference_ms.values()) / native if native else 0.0


@dataclass
class BenchReport:
    """A bench run, serialized to ``BENCH_<label>.json``."""

    label: str
    schema: int = SCHEMA_VERSION
    python: str = ""
    platform: str = ""
    repeat: int = 1
    #: Run manifest (git SHA, config digest, code-version salt, created,
    #: …) shared with the telemetry subsystem.
    manifest: Dict = field(default_factory=dict)
    points: List[BenchPoint] = field(default_factory=list)
    #: Aggregate KIPS over every point's ``run`` layer (0 without one).
    kips: float = 0.0
    peak_rss_kb: int = 0

    @property
    def total_instructions(self) -> int:
        return sum(p.instructions or 0 for p in self.points)

    def finalize(self) -> None:
        runs = [p for p in self.points if "run" in p.ms and p.instructions]
        run_ms = sum(p.ms["run"] for p in runs)
        self.kips = sum(p.instructions for p in runs) / run_ms \
            if run_ms else 0.0
        self.peak_rss_kb = peak_rss_kb()

    def to_dict(self) -> Dict:
        return asdict(self)

    def render(self) -> str:
        lines = [f"{'bench':<10s} {'selector':<14s} {'config':<8s} "
                 f"{'cycles':>9s} {'ipc':>6s} {'cover':>6s} {'KIPS':>8s} "
                 f"{'speedup':>8s}  ms per layer (native/reference)"]
        for p in self.points:
            layers = "  ".join(
                f"{layer} {ms:.3f}" + (f"/{p.reference_ms[layer]:.3f}"
                                       if layer in p.reference_ms else "")
                for layer, ms in p.ms.items())
            speedup = f"{p.speedup:.1f}x" if p.reference_ms else "-"
            lines.append(
                f"{p.bench:<10s} {p.selector:<14s} {p.config:<8s} "
                f"{_show(p.cycles, 'd'):>9s} {_show(p.ipc, '.3f'):>6s} "
                f"{_show(p.coverage, '.1%'):>6s} {p.kips:>8.1f} "
                f"{speedup:>8s}  {layers}")
        lines.append(f"aggregate KIPS {self.kips:.1f}   peak RSS "
                     f"{self.peak_rss_kb} kB   ({self.python}, "
                     f"{self.platform}, repeat {self.repeat}, keep fastest)")
        return "\n".join(lines)


def _show(value, spec: str) -> str:
    return "-" if value is None else format(value, spec)


def peak_rss_kb() -> int:
    """Peak resident set size of this process in kB (0 if unavailable)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kB, macOS bytes.
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        peak //= 1024
    return int(peak)


# -- point set-up and timing ---------------------------------------------------

def _prepared(runner: Runner, bench: str, selector: str,
              config: MachineConfig):
    """``(core, finalize)`` for one point, set up as the pipeline does."""
    if selector == "none":
        return runner.baseline_prepared(bench, config)
    if selector == "observed":
        return runner.profile_prepared(bench, config)
    from ..minigraph.selectors import selector_from_spec
    return runner.selector_prepared(
        bench, selector_from_spec({"kind": selector}), config)


@contextmanager
def _pure_python():
    """Route every kernel entry point to its Python reference inside the
    block: ``ckern.available()`` rereads ``REPRO_PURE_PY`` per call."""
    prior = os.environ.get("REPRO_PURE_PY")
    os.environ["REPRO_PURE_PY"] = "1"
    try:
        yield
    finally:
        if prior is None:
            del os.environ["REPRO_PURE_PY"]
        else:
            os.environ["REPRO_PURE_PY"] = prior


def _ms(start: float) -> float:
    return (time.perf_counter() - start) * 1e3


def _fastest(name: str, leg: Callable[[], Tuple[Dict[str, float], Any]],
             repeat: int) -> Tuple[Dict[str, float], Any]:
    """Run ``leg() -> (ms per layer, result)`` ``repeat`` times, keeping
    each layer's fastest time; the result may not vary between runs."""
    best, first = leg()
    for _ in range(max(1, repeat) - 1):
        ms, result = leg()
        if result != first:
            raise RuntimeError(f"{name}: non-deterministic rerun "
                               f"({result!r:.200} vs {first!r:.200})")
        best = {layer: min(t, ms[layer]) for layer, t in best.items()}
    return best, first


def _parity(name: str, native: Any, reference: Any) -> None:
    if native != reference:
        raise RuntimeError(f"{name}: the native leg diverged from the "
                           f"reference ({native!r:.200} != "
                           f"{reference!r:.200})")


def _results(stats) -> Dict[str, Any]:
    return {"instructions": stats.original_committed,
            "cycles": stats.cycles, "ipc": stats.ipc,
            "coverage": stats.coverage}


def _run_point(runner: Runner, bench: str, selector: str,
               config: MachineConfig, repeat: int) -> BenchPoint:
    """One ``kips`` matrix point (an ``observed`` one is a comparison)."""
    name = f"{bench}/{selector}"
    runner.trace(bench)

    def leg():
        start = time.perf_counter()
        core, finalize = _prepared(runner, bench, selector, config)
        prepare = _ms(start)
        start = time.perf_counter()
        stats = core.run()
        run = _ms(start)
        # Every run completes, so each trace record commits once.
        result = (_results(stats), stats.slots_committed)
        if selector == "observed":
            result += (pickle.dumps(finalize(stats)),)
        return {"prepare": prepare, "run": run}, result

    ms, result = _fastest(name, leg, repeat)
    point = BenchPoint(bench, selector, config.name, ms=ms,
                       counts={"records": result[1]}, **result[0])
    if selector == "observed":
        with _pure_python():
            reference_ms, reference = _fastest(name, leg, repeat)
        _parity(name, result, reference)
        # The Python loop against the tap, on the run alone.
        point.reference_ms = {"run": reference_ms["run"]}
    return point


def _dispatch_point(spec: Dict) -> Tuple[int, int]:
    """One pool task of the batch reference leg: set up, run, summarize."""
    from ..exec.tasks import _runner
    core, _ = _prepared(_runner(spec), spec["bench"], spec["selector"],
                        config_by_name(spec["config"]))
    stats = core.run()
    return stats.cycles, stats.original_committed


def _batch_point(runner: Runner, benchmarks: Sequence[str], selector: str,
                 configs: Sequence[MachineConfig],
                 repeat: int) -> BenchPoint:
    """One selector's matrix: batched native call vs per-point pool."""
    from concurrent.futures import ProcessPoolExecutor

    from ..exec.tasks import runner_params
    from ..pipeline import ckern
    name = f"batch/{selector}"
    threads = max(1, min(8, (os.cpu_count() or 2) - 1))
    matrix = [(bench, config) for bench in benchmarks for config in configs]
    # Set-up first, so profiles are stored before the pool reads.
    cores = [_prepared(runner, bench, selector, config)[0]
             for bench, config in matrix]

    def native():
        # Fresh descriptors per leg: the kernel updates a Slack-Dynamic
        # point's policy state in place.
        entries = [core.kernel_batch_entry(DEFAULT_MAX_CYCLES)
                   for core in cores]
        if None in entries:
            raise RuntimeError(f"{name}: a point cannot take the kernel")
        start = time.perf_counter()
        outcome = ckern.run_batch(entries, threads)
        return {"dispatch": _ms(start)}, outcome

    ms, outcome = _fastest(name, native, repeat)
    summaries = []
    for core, result in zip(cores, outcome):
        stats = core.apply_kernel_result(*result)
        if stats is None:
            raise RuntimeError(f"{name}: a batched point fell back")
        summaries.append((stats.cycles, stats.original_committed))

    specs = [{**runner_params(runner), "bench": bench,
              "config": config.name, "selector": selector}
             for bench, config in matrix]

    def reference():
        start = time.perf_counter()
        with ProcessPoolExecutor(max_workers=threads) as pool:
            outcome = list(pool.map(_dispatch_point, specs))
        return {"dispatch": _ms(start)}, outcome

    reference_ms, per_point = _fastest(name, reference, repeat)
    _parity(name, summaries, per_point)
    return BenchPoint(
        ",".join(benchmarks), selector,
        ",".join(config.name for config in configs),
        instructions=sum(insts for _, insts in summaries),
        cycles=sum(cycles for cycles, _ in summaries), ms=ms,
        reference_ms=reference_ms,
        counts={"points": len(matrix), "threads": threads})


def _plan_point(runner: Runner, bench: str, selector: str,
                config: MachineConfig, repeat: int) -> BenchPoint:
    """Plan construction from one tap log, native vs Python reference."""
    from ..minigraph import candidates as candidates_mod
    from ..minigraph.candidates import enumerate_candidates
    from ..minigraph.selectors import selector_from_spec
    from ..minigraph.slack import SlackCollector
    from ..minigraph.templates import build_templates
    from ..pipeline import ckern
    name = f"plan/{bench}/{selector}"
    scorer = selector_from_spec({"kind": selector})
    program = runner._bench(bench).program("train")
    counts = runner.trace(bench).dynamic_count_of()
    # Capture one event log from the pipeline's profiling core (untimed).
    core, _ = runner.profile_prepared(bench, config)
    entry = core.kernel_batch_entry(DEFAULT_MAX_CYCLES)
    if entry is None:
        raise RuntimeError(f"{name}: the profiling core cannot take the "
                           f"kernel")
    (tap,) = ckern.run_batch([entry], 1)
    stats = core.apply_kernel_result(*tap)
    if stats is None:
        raise RuntimeError(f"{name}: tap capture failed (rc={tap[0]})")
    _rc, out, events, n_words, _overflowed = tap
    committed = out[ckern.OUT_SLOTS_COMMITTED]

    def leg():
        start = time.perf_counter()
        collector = SlackCollector(program, config_name=config.name,
                                   input_name="train")
        collector.ingest_ckern_tap(core.records, events, n_words, committed)
        profile = collector.profile()
        ms = {"profile": _ms(start)}
        start = time.perf_counter()
        # Charge the native leg its packed-column build and rehydration.
        candidates_mod._static.pop(program, None)
        candidates = enumerate_candidates(program,
                                          max_size=runner.max_mg_size)
        listed = list(candidates)
        ms["enumerate"] = _ms(start)
        sites = [site for template in build_templates(listed, counts)
                 for site in template.sites]
        start = time.perf_counter()
        pool = scorer.build_pool(sites, profile, candidates)
        ms["score"] = _ms(start)
        return ms, (pickle.dumps(profile), pickle.dumps(listed),
                    [site.id for site in pool], len(listed))

    ms, result = _fastest(name, leg, repeat)
    with _pure_python():
        reference_ms, reference = _fastest(name, leg, repeat)
    _parity(name, result, reference)
    return BenchPoint(bench, selector, config.name, ms=ms,
                      reference_ms=reference_ms,
                      counts={"static": len(program),
                              "candidates": result[3],
                              "tap_words": n_words},
                      **_results(stats))


# -- the bench -----------------------------------------------------------------

def run_bench(benchmarks: Sequence[str] = DEFAULT_BENCHMARKS,
              selectors: Optional[Sequence[str]] = None,
              config: Optional[MachineConfig] = None,
              label: str = "local",
              repeat: int = 1,
              runner: Optional[Runner] = None,
              log: Optional[Callable[[str], None]] = None,
              telemetry=None,
              mode: str = "kips") -> BenchReport:
    """Run one bench (a key of :data:`MODES`) and return its report.

    ``selectors`` defaults to the mode's; ``config`` to the reduced
    machine, or for ``batch`` to reduced and full. ``batch`` pool
    workers load slack profiles from the runner's store, so without a
    persistent one it runs over a scratch directory.
    ``telemetry`` optionally takes a
    :class:`~repro.obs.telemetry.TelemetryWriter`: every point becomes
    a ``bench`` span and the report embeds the writer's manifest.
    """
    from ..obs.telemetry import run_manifest
    if selectors is None:
        selectors = MODES[mode]
    configs = [config] if config is not None else \
        [config_by_name(name) for name in
         (("reduced", "full") if mode == "batch" else ("reduced",))]
    if runner is None:
        runner = Runner()
    if mode == "batch" and not runner.store.persistent:
        # The pool workers load profiles from the store: give them one.
        import tempfile

        from ..exec.store import ArtifactStore
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as scratch:
            store = ArtifactStore(scratch)
            store.telemetry = runner.store.telemetry
            return run_bench(benchmarks, selectors, config, label, repeat,
                             Runner(store=store), log, telemetry, mode)
    if mode != "kips":
        from ..pipeline import ckern
        if not ckern.available():
            raise RuntimeError(f"the {mode} bench needs the compiled "
                               f"kernel (C compiler available, "
                               f"REPRO_PURE_PY unset)")
    report = BenchReport(
        label=label, python=platform.python_version(),
        platform=f"{platform.system()}-{platform.machine()}",
        repeat=repeat,
        manifest=(telemetry.manifest if telemetry is not None
                  else run_manifest(config=configs[0], label=label)))
    if mode == "batch":
        work = [(_batch_point, (benchmarks, selector, configs))
                for selector in selectors]
    else:
        measure = _plan_point if mode == "plan" else _run_point
        work = [(measure, (bench, selector, cfg)) for bench in benchmarks
                for selector in selectors for cfg in configs]
    for measure, args in work:
        point = measure(runner, *args, repeat)
        report.points.append(point)
        if telemetry is not None:
            dur = int(sum(point.ms.values()) * 1e3)
            telemetry.event(
                f"{point.bench}/{point.selector}", "bench", "X",
                ts=max(0, telemetry.now_us() - dur), dur=dur,
                args={"cycles": point.cycles, "ipc": point.ipc,
                      "instructions": point.instructions,
                      "kips": point.kips, "speedup": point.speedup})
        if log is not None:
            log(f"[bench] {point.bench}/{point.selector}: "
                + (f"{point.speedup:.1f}x the reference"
                   if point.reference_ms else f"{point.kips:.1f} KIPS")
                + f" ({point.cycles} cycles)")
    report.finalize()
    return report


def write_report(report: BenchReport, out_dir: Path = Path(".")) -> Path:
    """Write ``BENCH_<label>.json`` and return its path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{report.label}.json"
    with open(path, "w") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_report(path) -> BenchReport:
    """Load a ``BENCH_*.json`` back into a :class:`BenchReport`.

    Fields this schema does not know are dropped, so a reader survives
    a newer writer's additions.
    """
    with open(path) as handle:
        data = json.load(handle)
    known = set(BenchPoint.__dataclass_fields__)
    points = [BenchPoint(**{k: v for k, v in p.items() if k in known})
              for p in data.pop("points", [])]
    known = set(BenchReport.__dataclass_fields__)
    report = BenchReport(**{k: v for k, v in data.items() if k in known})
    report.points = points
    return report


# -- gates ---------------------------------------------------------------------

def check_speedups(report: BenchReport,
                   min_speedup: float = 3.0) -> List[str]:
    """Gate: every comparison point's native leg must beat its
    reference by ``min_speedup`` — per point, so a large benchmark
    cannot amortize a regression on a small one."""
    return [f"{p.bench}/{p.selector}: native only {p.speedup:.2f}x the "
            f"reference (gate {min_speedup:.1f}x; {p.ms} vs "
            f"{p.reference_ms} ms)"
            for p in report.points
            if p.reference_ms and p.speedup < min_speedup]


def check_against(current: BenchReport, baseline: BenchReport,
                  tolerance: float = 0.20) -> List[str]:
    """Regression-gate ``current`` against a committed ``baseline``.

    Returns a list of failures (empty = pass):

    * fidelity — every point present in both reports must agree exactly
      on each result of :data:`RESULTS` the baseline records (the
      simulated results are deterministic; any drift is a correctness
      bug, not noise);
    * throughput — aggregate KIPS must not fall more than ``tolerance``
      below the baseline's, when it has one (per-point KIPS is reported
      but not gated: it is too noisy on shared CI runners).
    """
    failures: List[str] = []
    base_points = {(p.bench, p.selector, p.config): p
                   for p in baseline.points}
    compared = 0
    for point in current.points:
        base = base_points.get((point.bench, point.selector, point.config))
        if base is None:
            continue
        compared += 1
        for fld in RESULTS:
            got, want = getattr(point, fld), getattr(base, fld)
            if want is not None and got != want:
                failures.append(
                    f"{point.bench}/{point.selector}: {fld} diverged "
                    f"from baseline ({got!r} != {want!r})")
    if not compared:
        failures.append("no overlapping matrix points with the baseline")
        return failures
    if baseline.kips > 0:
        floor = baseline.kips * (1.0 - tolerance)
        if current.kips < floor:
            failures.append(
                f"aggregate KIPS regressed: {current.kips:.1f} < "
                f"{floor:.1f} (baseline {baseline.kips:.1f} "
                f"- {tolerance:.0%})")
    return failures
