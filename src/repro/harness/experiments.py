"""Per-figure experiment drivers (the paper's evaluation, §3 and §5).

Each ``fig*`` function regenerates the data series of one paper figure over
a benchmark population and returns an :class:`ExperimentResult` whose
``render()`` prints the same rows/series the paper reports (S-curves with
means/medians). Absolute numbers differ from the paper — the substrate is
a different simulator and workload population — but the *shapes* (selector
ordering, crossovers, who compensates for the reduced machine) are the
reproduction targets; see EXPERIMENTS.md.

Run from the command line::

    python -m repro.harness.experiments fig6 --suites spec media --limit 10
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..minigraph.selectors import (
    SlackProfileSelector, StructAll, StructBounded, StructNone,
)
from ..pipeline.config import (
    cross_2way_config, cross_8way_config, cross_dmem4_config, full_config,
    reduced_config,
)
from ..workloads.suite import all_benchmarks
from .runner import Runner
from .scurve import SCurve, relative, render_scurves, summarize


@dataclass
class ExperimentResult:
    """Named groups of S-curves plus free-form notes."""

    name: str
    groups: Dict[str, List[SCurve]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def curve(self, group: str, label: str) -> SCurve:
        """Look up one curve by group and label."""
        for curve in self.groups[group]:
            if curve.label == label:
                return curve
        raise KeyError(f"{group}/{label}")

    def render(self, full_tables: bool = False) -> str:
        """Human-readable report: per-group summaries (and full tables)."""
        lines = [f"=== {self.name} ==="]
        for group, curves in self.groups.items():
            lines.append(f"\n--- {group} ---")
            lines.append(summarize(curves))
            if full_tables:
                lines.append(render_scurves(curves))
        if self.notes:
            lines.append("")
            lines.extend(self.notes)
        return "\n".join(lines)


def _population(suites: Optional[Sequence[str]] = None,
                limit: Optional[int] = None,
                include_synthetic: bool = True) -> list:
    benches = all_benchmarks(suites=suites,
                             include_synthetic=include_synthetic)
    if limit is not None:
        benches = benches[:limit]
    return benches


def _full_baseline_ipcs(runner: Runner, benches) -> Dict[str, float]:
    full = full_config()
    return {b.name: runner.baseline(b, full).ipc for b in benches}


def _selector_curves(runner: Runner, benches, selectors, config,
                     baselines: Dict[str, float]):
    """Relative-performance and coverage curves for each selector."""
    perf_curves: List[SCurve] = []
    cov_curves: List[SCurve] = []
    for selector in selectors:
        perf: Dict[str, float] = {}
        coverage: Dict[str, float] = {}
        for bench in benches:
            run = runner.run_selector(bench, selector, config)
            perf[bench.name] = run.ipc
            coverage[bench.name] = run.coverage
        perf_curves.append(SCurve(selector.name, relative(perf, baselines)))
        cov_curves.append(SCurve(selector.name, coverage))
    return perf_curves, cov_curves


def _no_mg_curve(runner: Runner, benches, config,
                 baselines: Dict[str, float]) -> SCurve:
    perf = {b.name: runner.baseline(b, config).ipc for b in benches}
    return SCurve("no-mini-graphs", relative(perf, baselines))


# ---------------------------------------------------------------------------
# Figure 3: serialization-blind selection
# ---------------------------------------------------------------------------

def fig3(runner: Runner, benches) -> ExperimentResult:
    """Struct-All vs Struct-None on the reduced and full machines."""
    result = ExperimentResult("FIG3 naive structural selectors")
    baselines = _full_baseline_ipcs(runner, benches)
    reduced = reduced_config()
    full = full_config()
    selectors = [StructAll(), StructNone()]

    perf_red, cov = _selector_curves(runner, benches, selectors, reduced,
                                     baselines)
    perf_red.insert(0, _no_mg_curve(runner, benches, reduced, baselines))
    result.groups["performance on reduced (rel. full baseline)"] = perf_red

    perf_full, _ = _selector_curves(runner, benches, selectors, full,
                                    baselines)
    result.groups["performance on full (rel. full baseline)"] = perf_full
    result.groups["coverage"] = cov

    all_red = result.curve(
        "performance on reduced (rel. full baseline)", "struct-all")
    none_red = result.curve(
        "performance on reduced (rel. full baseline)", "struct-none")
    result.notes.append(
        f"struct-all/struct-none cross on reduced: "
        f"{all_red.crossover_with(none_red)}")
    return result


# ---------------------------------------------------------------------------
# Figure 6 (and Figure 1): serialization-aware selection
# ---------------------------------------------------------------------------

def fig6(runner: Runner, benches) -> ExperimentResult:
    """All five selectors: reduced perf, full perf, coverage."""
    result = ExperimentResult("FIG6 serialization-aware selectors")
    baselines = _full_baseline_ipcs(runner, benches)
    reduced = reduced_config()
    full = full_config()
    static_selectors = [StructAll(), StructNone(), StructBounded(),
                        SlackProfileSelector()]

    for config, group in ((reduced, "performance on reduced"),
                          (full, "performance on full")):
        perf, cov = _selector_curves(runner, benches, static_selectors,
                                     config, baselines)
        dynamic_perf: Dict[str, float] = {}
        dynamic_cov: Dict[str, float] = {}
        for bench in benches:
            run = runner.run_slack_dynamic(bench, config)
            dynamic_perf[bench.name] = run.ipc
            dynamic_cov[bench.name] = run.coverage
        perf.append(SCurve("slack-dynamic",
                           relative(dynamic_perf, baselines)))
        perf.insert(0, _no_mg_curve(runner, benches, config, baselines))
        result.groups[f"{group} (rel. full baseline)"] = perf
        if config is reduced:
            cov.append(SCurve("slack-dynamic", dynamic_cov))
            result.groups["coverage"] = cov
    return result


def fig1(runner: Runner, benches) -> ExperimentResult:
    """Headline: Slack-Profile vs the naive selectors on the reduced machine."""
    result = ExperimentResult("FIG1 headline S-curve")
    baselines = _full_baseline_ipcs(runner, benches)
    reduced = reduced_config()
    selectors = [StructAll(), StructNone(), SlackProfileSelector()]
    perf, _ = _selector_curves(runner, benches, selectors, reduced,
                               baselines)
    perf.insert(0, _no_mg_curve(runner, benches, reduced, baselines))
    result.groups["performance on reduced (rel. full baseline)"] = perf
    slack = result.curve("performance on reduced (rel. full baseline)",
                         "slack-profile")
    result.notes.append(
        f"slack-profile mean relative performance: {slack.mean:.3f} "
        f"(paper: 1.02)")
    return result


# ---------------------------------------------------------------------------
# Figure 7: model component breakdowns
# ---------------------------------------------------------------------------

def fig7(runner: Runner, benches) -> ExperimentResult:
    """Slack-Profile and Slack-Dynamic ablations on the reduced machine."""
    result = ExperimentResult("FIG7 model breakdowns")
    baselines = _full_baseline_ipcs(runner, benches)
    reduced = reduced_config()

    profile_selectors = [StructAll(), StructNone(),
                         SlackProfileSelector("sial"),
                         SlackProfileSelector("delay"),
                         SlackProfileSelector("full")]
    perf, _ = _selector_curves(runner, benches, profile_selectors, reduced,
                               baselines)
    result.groups["slack-profile breakdown (reduced)"] = perf

    dynamic_variants = [
        ("slack-dynamic", dict(mode="full", outlining_penalty=True)),
        ("ideal-slack-dynamic", dict(mode="full", outlining_penalty=False)),
        ("ideal-slack-dynamic-delay",
         dict(mode="delay", outlining_penalty=False)),
        ("ideal-slack-dynamic-sial",
         dict(mode="sial", outlining_penalty=False)),
    ]
    curves: List[SCurve] = []
    for label, kwargs in dynamic_variants:
        perf_values: Dict[str, float] = {}
        for bench in benches:
            run = runner.run_slack_dynamic(bench, reduced, **kwargs)
            perf_values[bench.name] = run.ipc
        curves.append(SCurve(label, relative(perf_values, baselines)))
    result.groups["slack-dynamic breakdown (reduced)"] = curves
    return result


# ---------------------------------------------------------------------------
# Figure 9: slack profile robustness
# ---------------------------------------------------------------------------

def fig9_machines(runner: Runner, benches) -> ExperimentResult:
    """Cross-training across microarchitectures (Figure 9 top)."""
    result = ExperimentResult("FIG9 robustness to machine configuration")
    baselines = _full_baseline_ipcs(runner, benches)
    reduced = reduced_config()
    trainers = [("self (reduced)", reduced),
                ("cross 2-way", cross_2way_config()),
                ("cross 8-way", cross_8way_config()),
                ("cross dmem/4", cross_dmem4_config())]
    curves = []
    for label, train_config in trainers:
        perf: Dict[str, float] = {}
        for bench in benches:
            run = runner.run_selector(bench, SlackProfileSelector(), reduced,
                                      profile_config=train_config)
            perf[bench.name] = run.ipc
        curves.append(SCurve(label, relative(perf, baselines)))
    result.groups["slack-profile perf on reduced, by training machine"] = \
        curves
    self_curve, rest = curves[0], curves[1:]
    for curve in rest:
        gap = abs(curve.mean - self_curve.mean)
        result.notes.append(
            f"{curve.label}: |mean - self| = {gap:.3f}")
    return result


def fig9_inputs(runner: Runner, benches) -> ExperimentResult:
    """Cross-training across program inputs (Figure 9 bottom)."""
    result = ExperimentResult("FIG9 robustness to input data sets")
    baselines = _full_baseline_ipcs(runner, benches)
    reduced = reduced_config()
    curves = []
    for label, profile_input in (("self (train)", "train"),
                                 ("cross (ref)", "ref")):
        perf: Dict[str, float] = {}
        for bench in benches:
            run = runner.run_selector(bench, SlackProfileSelector(), reduced,
                                      profile_input=profile_input)
            perf[bench.name] = run.ipc
        curves.append(SCurve(label, relative(perf, baselines)))
    result.groups["slack-profile perf on reduced, by training input"] = \
        curves
    gap = abs(curves[1].mean - curves[0].mean)
    result.notes.append(f"cross-input |mean - self| = {gap:.3f} "
                        f"(paper: <2% absolute)")
    return result


# ---------------------------------------------------------------------------
# Figure 8: exhaustive limit study (delegates to repro.analysis)
# ---------------------------------------------------------------------------

def fig8(runner: Runner, benches) -> ExperimentResult:
    """Exhaustive 1024-subset limit study on the ADPCM coder (§5.4).

    The benchmark population argument is unused — the study is defined on
    one short-running program, as in the paper. Parallelized over subset
    masks when the runner carries ``jobs > 1``.
    """
    from ..analysis.limit_study import run_limit_study
    study = run_limit_study(runner, jobs=runner.jobs)
    result = ExperimentResult("FIG8 limit study (adpcm)")
    result.notes.append(study.render())
    return result


EXPERIMENTS = {
    "fig1": fig1,
    "fig3": fig3,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9-machines": fig9_machines,
    "fig9-inputs": fig9_inputs,
}


# ---------------------------------------------------------------------------
# Grid declarations: the same points the drivers above walk serially,
# expressed as repro.exec grid Points so --jobs can prewarm the artifact
# store in parallel before the driver replays them from cache.
# ---------------------------------------------------------------------------

def grid_points(name: str, benches) -> list:
    """The (bench × selector × machine) points behind one experiment."""
    from ..exec.grid import baseline_point, dynamic_point, selector_point
    points = []
    names = [b.name for b in benches]
    if name == "fig8":
        return points  # run_limit_study schedules its own subset tasks
    for bench in names:
        points.append(baseline_point(bench, "full"))

    def selectors_on(configs, selectors):
        for bench in names:
            for config in configs:
                for selector in selectors:
                    points.append(selector_point(bench, selector, config))

    if name == "fig1":
        points.extend(baseline_point(b, "reduced") for b in names)
        selectors_on(["reduced"], [StructAll(), StructNone(),
                                   SlackProfileSelector()])
    elif name == "fig3":
        points.extend(baseline_point(b, "reduced") for b in names)
        selectors_on(["reduced", "full"], [StructAll(), StructNone()])
    elif name == "fig6":
        for bench in names:
            for config in ("reduced", "full"):
                points.append(baseline_point(bench, config))
                points.append(dynamic_point(bench, config, mode="full",
                                            outlining_penalty=True))
        selectors_on(["reduced", "full"],
                     [StructAll(), StructNone(), StructBounded(),
                      SlackProfileSelector()])
    elif name == "fig7":
        selectors_on(["reduced"],
                     [StructAll(), StructNone(),
                      SlackProfileSelector("sial"),
                      SlackProfileSelector("delay"),
                      SlackProfileSelector("full")])
        for bench in names:
            for mode, penalty in (("full", True), ("full", False),
                                  ("delay", False), ("sial", False)):
                points.append(dynamic_point(bench, "reduced", mode=mode,
                                            outlining_penalty=penalty))
    elif name == "fig9-machines":
        for bench in names:
            for trainer in ("reduced", "cross-2way", "cross-8way",
                            "cross-dmem4"):
                points.append(selector_point(bench, SlackProfileSelector(),
                                             "reduced",
                                             profile_config=trainer))
    elif name == "fig9-inputs":
        for bench in names:
            for profile_input in ("train", "ref"):
                points.append(selector_point(bench, SlackProfileSelector(),
                                             "reduced",
                                             profile_input=profile_input))
    return points


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: regenerate one figure (or all) and print it."""
    parser = argparse.ArgumentParser(
        description="Regenerate a paper figure's data series.")
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["all"])
    parser.add_argument("--suites", nargs="*", default=None,
                        help="restrict to suites (spec media comm embedded "
                             "synth)")
    parser.add_argument("--limit", type=int, default=None,
                        help="use only the first N benchmarks")
    parser.add_argument("--no-synthetic", action="store_true")
    parser.add_argument("--full-tables", action="store_true",
                        help="print complete S-curve tables")
    parser.add_argument("--plot", action="store_true",
                        help="draw terminal S-curve plots per group")
    parser.add_argument("--budget", type=int, default=512,
                        help="MGT template budget")
    parser.add_argument("--jobs", type=str, default="1",
                        help="worker processes for the experiment grid "
                             "(1 = serial in-process), or 'threads:N' for "
                             "batched native dispatch: each wave of ready "
                             "timing points runs as one C call over N "
                             "threads (in-process, no persistent store "
                             "needed; see docs/performance.md)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the scheduler progress stream on "
                             "stderr (telemetry, if enabled, still "
                             "records every event)")
    parser.add_argument("--check", action="store_true",
                        help="add a lockstep+lint validation node per "
                             "(program, selector) point; any divergence "
                             "fails the run (see docs/correctness.md)")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent artifact store directory "
                             "(default: $REPRO_CACHE_DIR, else none)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore --cache-dir/$REPRO_CACHE_DIR; "
                             "memory-only memoization")
    parser.add_argument("--ledger", default=None, metavar="PATH",
                        help="journal DAG completion to PATH so a killed "
                             "run resumes with `repro resume PATH` "
                             "(single figure only; see docs/distributed.md)")
    parser.add_argument("--save-json", default=None, metavar="PATH",
                        help="archive the regenerated curves as JSON "
                             "(see repro.harness.reporting)")
    parser.add_argument("--telemetry", default=None, metavar="PATH",
                        help="write run telemetry (manifest + Chrome "
                             "trace-event JSONL) to PATH; see "
                             "docs/observability.md")
    args = parser.parse_args(argv)

    import sys as _sys

    from ..exec import ArtifactStore, ProgressPrinter, resolve_cache_dir
    from ..exec.grid import parse_jobs, run_points

    try:
        jobs, threads = parse_jobs(args.jobs)
    except ValueError as error:
        print(f"experiments: {error}", file=_sys.stderr)
        return 2
    cache_dir = resolve_cache_dir(args.cache_dir, args.no_cache)
    if args.ledger and args.experiment == "all":
        print("experiments: --ledger needs a single figure (one ledger "
              "describes one workload)", file=_sys.stderr)
        return 2
    if args.ledger and cache_dir is None:
        print("experiments: --ledger needs a persistent store; "
              "pass --cache-dir or set $REPRO_CACHE_DIR",
              file=_sys.stderr)
        return 2
    scratch = None
    if jobs > 1 and cache_dir is None:
        # Workers hand artifacts back through the store, so parallel
        # execution needs a disk layer even when the user asked for no
        # persistent cache; use a run-scoped scratch directory.
        import tempfile
        scratch = tempfile.TemporaryDirectory(prefix="repro-exec-")
        cache_dir = scratch.name

    benches = _population(args.suites, args.limit,
                          include_synthetic=not args.no_synthetic)
    runner = Runner(budget=args.budget,
                    store=ArtifactStore(cache_dir),
                    jobs=jobs)
    telemetry = None
    if args.telemetry:
        from ..obs.telemetry import (attach_store_telemetry, run_manifest,
                                     scheduler_telemetry, TelemetryWriter)
        telemetry = TelemetryWriter(
            args.telemetry,
            run_manifest(label=f"experiments-{args.experiment}",
                         argv=argv if argv is not None else _sys.argv[1:]))
        attach_store_telemetry(runner.store, telemetry)
    names = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    results = []
    try:
        for name in names:
            start = time.time()
            if jobs > 1 or threads or args.check or args.ledger:
                points = grid_points(name, benches)
                if points:
                    from ..exec.dag import TaskError
                    on_event = None if args.quiet else ProgressPrinter()
                    if telemetry is not None:
                        on_event = scheduler_telemetry(telemetry, on_event)
                    ledger = None
                    if args.ledger:
                        from ..dist.resume import (
                            open_ledger, workload_for_points,
                        )
                        ledger = open_ledger(
                            args.ledger, runner,
                            workload_for_points(points, check=args.check,
                                                label=name),
                            extra={"jobs": jobs})
                    try:
                        report = run_points(runner, points, jobs=jobs,
                                            on_event=on_event,
                                            check=args.check,
                                            raise_on_failure=args.check,
                                            ledger=ledger,
                                            threads=threads)
                    except TaskError as error:
                        print(f"experiments: check failed: {error}",
                              file=_sys.stderr)
                        return 1
                    finally:
                        if ledger is not None:
                            ledger.close()
                    if not args.quiet:
                        print(report.render(), file=_sys.stderr)
            if telemetry is not None:
                with telemetry.span(name, "experiment"):
                    result = EXPERIMENTS[name](runner, benches)
            else:
                result = EXPERIMENTS[name](runner, benches)
            results.append(result)
            print(result.render(full_tables=args.full_tables))
            if args.plot:
                from .plot import plot_scurves
                for group, curves in result.groups.items():
                    print()
                    print(plot_scurves(curves, title=group, reference=1.0))
            print(f"[{name}: {time.time() - start:.1f}s, "
                  f"{len(benches)} programs]\n")
    finally:
        if telemetry is not None:
            telemetry.close()
            print(f"[telemetry] {telemetry.events_written} events -> "
                  f"{telemetry.path}", file=_sys.stderr)
        if scratch is not None:
            scratch.cleanup()
    if runner.store.persistent and scratch is None:
        print(runner.store.stats.render(), file=_sys.stderr)
    if args.save_json:
        from .reporting import save_results
        path = save_results(results, args.save_json)
        print(f"[saved {len(results)} experiment(s) to {path}]",
              file=_sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
