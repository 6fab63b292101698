"""Top-level command-line interface.

Subcommands::

    python -m repro list                       # benchmark population
    python -m repro run crc32 --selector slack-profile
    python -m repro trace crc32 --first 20 --last 45
    python -m repro validate all
    python -m repro experiments fig1 ...       # figure regeneration
    python -m repro limit-study --jobs 4 --cache-dir DIR   # Figure 8
    python -m repro cache stats                # artifact store maintenance
    python -m repro metrics crc32 --out m.json  # metrics registry export
    python -m repro attribution --benchmarks crc32 # predicted-vs-observed
    python -m repro telemetry trace.jsonl      # validate a telemetry file

Each command is a thin veneer over the library API, so it doubles as a
usage example. Commands that simulate accept ``--cache-dir`` (or honor
``$REPRO_CACHE_DIR``) to persist intermediates in the content-addressed
artifact store of :mod:`repro.exec`; rerunning a killed command with the
same store recomputes only the artifacts it is missing.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager, nullcontext
from typing import List, Optional

from .exec import ArtifactStore, resolve_cache_dir
from .harness.experiments import EXPERIMENTS, grid_points
from .harness.runner import Runner
from .isa.interp import ExecutionLimitExceeded, MemoryFault
from .isa.validate import ValidationError
from .minigraph.selectors import selector_from_spec
from .pipeline.config import config_by_name
from .workloads.suite import SUITES, all_benchmarks, benchmark

#: The ``--selector`` names of ``run``, ``trace``, ``report``,
#: ``lint-plan`` and ``metrics``, before each adds ``slack-dynamic`` or
#: ``none``. A name is a family ``kind``: it resolves through the family
#: registry (``selector_from_spec({"kind": name})``).
SELECTORS = ("read-port", "slack-profile", "struct-all", "struct-bounded",
             "struct-none")


def _cmd_list(args) -> int:
    benches = all_benchmarks(suites=args.suites)
    print(f"{'name':<14s} {'suite':<9s} {'inputs':<18s} description")
    print("-" * 72)
    for bench in benches:
        print(f"{bench.name:<14s} {bench.suite:<9s} "
              f"{','.join(bench.inputs):<18s} {bench.description}")
    print(f"\n{len(benches)} benchmarks")
    return 0


def _store_for(args) -> ArtifactStore:
    cache_dir = resolve_cache_dir(getattr(args, "cache_dir", None),
                                  getattr(args, "no_cache", False))
    return ArtifactStore(cache_dir)


def _add_cache_flags(parser) -> None:
    parser.add_argument("--cache-dir", default=None,
                        help="persistent artifact store directory "
                             "(default: $REPRO_CACHE_DIR, else none)")
    parser.add_argument("--no-cache", action="store_true",
                        help="memory-only memoization")


@contextmanager
def _run_store(args, jobs: int):
    """The store of a command that schedules: ``--cache-dir``, else
    ``$REPRO_CACHE_DIR``, unless ``--no-cache``.

    Pool workers hand artifacts back through the store, so ``jobs > 1``
    without a disk store runs over a scratch directory, deleted on exit.
    A persistent store prints its two ``[cache]`` lines when the block
    finishes.
    """
    store = _store_for(args)
    if jobs > 1 and not store.persistent:
        import tempfile
        print(f"repro: no --cache-dir; the --jobs {jobs} workers share a "
              f"temporary store, deleted on exit", file=sys.stderr)
        with tempfile.TemporaryDirectory(prefix="repro-exec-") as scratch:
            yield ArtifactStore(scratch)
        return
    yield store
    if store.persistent:
        print(store.stats.render(), file=sys.stderr)


def _add_telemetry_flag(parser) -> None:
    parser.add_argument("--telemetry", default=None, metavar="PATH",
                        help="write run telemetry (manifest + Chrome "
                             "trace-event JSONL) to PATH; see "
                             "docs/observability.md")


@contextmanager
def _telemetry(path, store, **manifest):
    """A writer to ``path`` (``--telemetry``), attached to ``store``;
    ``None`` without a path. ``manifest`` holds the fields of
    :func:`~repro.obs.telemetry.run_manifest`. On exit, also a failed
    one, the writer is closed and its ``[telemetry]`` line printed."""
    if not path:
        yield None
        return
    from .obs.telemetry import (
        TelemetryWriter, attach_store_telemetry, count_events, run_manifest,
    )
    telemetry = TelemetryWriter(path, run_manifest(**manifest))
    attach_store_telemetry(store, telemetry)
    try:
        yield telemetry
    finally:
        telemetry.close()
        print(f"[telemetry] {count_events(telemetry.path)} events -> "
              f"{telemetry.path}", file=sys.stderr)


def _cmd_run(args) -> int:
    runner = Runner(store=_store_for(args))
    config = config_by_name(args.config)
    full = config_by_name("full")
    base_full = runner.baseline(args.benchmark, full, args.input)
    base = runner.baseline(args.benchmark, config, args.input)
    print(f"{args.benchmark} on {config.name} ({args.input} input)")
    print(f"  no mini-graphs : IPC {base.ipc:.3f} "
          f"({base.ipc / base_full.ipc:.3f}x of full baseline)")
    if args.selector == "none":
        return 0
    selector = selector_from_spec({"kind": args.selector})
    run = runner.run_selector(args.benchmark, selector, config,
                              input_name=args.input)
    plan = runner.plan(args.benchmark, selector, input_name=args.input)
    stats = run.stats
    print(f"  {run.selector:<15s}: IPC {stats.ipc:.3f} "
          f"({stats.ipc / base_full.ipc:.3f}x), "
          f"coverage {stats.coverage:.1%}, "
          f"{stats.handles_committed} handles, "
          f"{plan.n_templates} templates")
    if stats.mg_serialized_instances:
        print(f"  serialization  : {stats.mg_serialized_instances} "
              f"serialized instances, {stats.mg_consumer_delays} "
              f"propagated to consumers")
    return 0


def _cmd_trace(args) -> int:
    from .pipeline.pipetrace import pipetrace
    runner = Runner()
    config = config_by_name(args.config)
    if args.selector == "none":
        records = runner.trace(args.benchmark, args.input).packed()
    else:
        from .minigraph.transform import fold_trace
        selector = selector_from_spec({"kind": args.selector})
        plan = runner.plan(args.benchmark, selector, input_name=args.input)
        records = fold_trace(runner.trace(args.benchmark, args.input), plan)
    print(pipetrace(config, records, first=args.first, last=args.last))
    return 0


def _cmd_validate(args) -> int:
    from .isa.validate import ValidationError, check
    names = [b.name for b in all_benchmarks()] \
        if args.benchmark == "all" else [args.benchmark]
    failures = 0
    for name in names:
        program = benchmark(name).program("train")
        try:
            warnings = check(program)
        except ValidationError as error:
            failures += 1
            print(f"{name}: ERROR {error}")
            continue
        status = f"{len(warnings)} warnings" if warnings else "clean"
        print(f"{name}: {status}")
    return 1 if failures else 0


def _cmd_report(args) -> int:
    from .analysis.report import suite_report
    selector = selector_from_spec({"kind": args.selector})
    report = suite_report(Runner(), selector,
                          limit_per_suite=args.limit_per_suite)
    print(report.render())
    return 0


def _cmd_experiments(args) -> int:
    import time

    from .exec import ProgressPrinter, TaskError
    from .exec.grid import parse_jobs, run_points
    jobs, threads = parse_jobs(args.jobs)
    if args.limit is not None and args.limit < 1:
        raise ValueError(f"--limit must be >= 1, got {args.limit}")
    benches = all_benchmarks(suites=args.suites,
                             include_synthetic=not args.no_synthetic)
    benches = benches[:args.limit]
    if not benches:
        raise ValueError("no benchmark matches the --suites and "
                         "--no-synthetic filters")
    names = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    results = []
    # A failed --check leaves the store's block by exception, so it
    # prints no [cache] lines.
    try:
        with _run_store(args, jobs) as store, \
                _telemetry(args.telemetry, store,
                           label=f"experiments-{args.experiment}",
                           argv=args.argv) as telemetry:
            runner = Runner(budget=args.budget, store=store, jobs=jobs)
            for name in names:
                start = time.time()
                points = grid_points(name, benches) \
                    if jobs > 1 or threads or args.check else []
                if points:
                    on_event = None if args.quiet else ProgressPrinter()
                    if telemetry is not None:
                        from .obs.telemetry import scheduler_telemetry
                        on_event = scheduler_telemetry(telemetry, on_event)
                    report = run_points(runner, points, jobs=jobs,
                                        on_event=on_event, check=args.check,
                                        raise_on_failure=args.check,
                                        threads=threads)
                    if not args.quiet:
                        print(report.render(), file=sys.stderr)
                with nullcontext() if telemetry is None \
                        else telemetry.span(name, "experiment"):
                    result = EXPERIMENTS[name](runner, benches)
                results.append(result)
                print(result.render(full_tables=args.full_tables))
                if args.plot:
                    from .harness.plot import plot_scurves
                    for group, curves in result.groups.items():
                        print()
                        print(plot_scurves(curves, title=group,
                                           reference=1.0))
                print(f"[{name}: {time.time() - start:.1f}s, "
                      f"{len(benches)} programs]\n")
    except TaskError as error:
        print(f"experiments: check failed: {error}", file=sys.stderr)
        return 1
    if args.save_json:
        from .harness.reporting import save_results
        path = save_results(results, args.save_json)
        print(f"[saved {len(results)} experiment(s) to {path}]",
              file=sys.stderr)
    return 0


def _cmd_limit_study(args) -> int:
    from .analysis.limit_study import run_limit_study
    from .exec.grid import parse_jobs
    parse_jobs(args.jobs)          # --jobs < 1 is a one-line error
    if args.cap is not None and args.cap < 1:
        raise ValueError(f"bad --cap value {args.cap}: must be >= 1")
    with _run_store(args, args.jobs) as store, \
            _telemetry(args.telemetry, store,
                       label="limit-study") as telemetry:
        with nullcontext() if telemetry is None else telemetry.span(
                "limit-study", "experiment", args={"jobs": args.jobs}):
            result = run_limit_study(Runner(store=store),
                                     subset_cap=args.cap, jobs=args.jobs)
    print(result.render())
    return 0


def _parse_duration(text: str) -> float:
    """``"60"``, ``"60s"``, ``"2m"`` → seconds."""
    text = text.strip().lower()
    scale = 1.0
    if text.endswith("ms"):
        text, scale = text[:-2], 0.001
    elif text.endswith("s"):
        text = text[:-1]
    elif text.endswith("m"):
        text, scale = text[:-1], 60.0
    try:
        seconds = float(text) * scale
    except ValueError:
        raise ValueError(f"bad duration {text!r} (try 60s, 90, or 2m)") \
            from None
    if seconds <= 0:
        raise ValueError("duration must be positive")
    return seconds


def _fuzz_selectors(names):
    from .check.fuzz import default_selectors
    if not names:
        return None
    by_name = {s.name: s for s in default_selectors()}
    missing = [n for n in names if n not in by_name]
    if missing:
        raise ValueError(
            f"unknown selector(s) {', '.join(missing)} "
            f"(choose from {', '.join(sorted(by_name))})")
    return [by_name[n] for n in names]


def _cmd_fuzz(args) -> int:
    from .check.fuzz import replay, run_fuzz
    selectors = _fuzz_selectors(args.selectors)
    if args.replay is not None:
        failure = replay(args.replay, selectors=selectors)
        if failure is None:
            print(f"replay {args.replay}: no failure")
            return 0
        print(f"replay {args.replay}: {failure.render()}")
        return 1
    report = run_fuzz(budget=_parse_duration(args.budget),
                      seed=args.seed, max_programs=args.programs,
                      selectors=selectors,
                      artifacts_dir=args.artifacts,
                      shrink=not args.no_shrink,
                      log=lambda line: print(line, file=sys.stderr))
    print(report.render())
    return 0 if report.ok else 1


def _cmd_lint_plan(args) -> int:
    from .check.lint import lint_plan
    runner = Runner(budget=args.budget, store=_store_for(args))
    selector = selector_from_spec({"kind": args.selector})
    names = [b.name for b in all_benchmarks()] \
        if args.benchmark == "all" else [args.benchmark]
    failures = 0
    for name in names:
        plan = runner.plan(name, selector, input_name=args.input)
        program = benchmark(name).program(args.input)
        issues = lint_plan(program, plan, max_size=runner.max_mg_size,
                           budget=runner.budget)
        if issues:
            failures += 1
            print(f"{name}/{selector.name}: {len(issues)} issue(s)")
            for issue in issues:
                print(f"  {issue.render()}")
        else:
            print(f"{name}/{selector.name}: OK "
                  f"({len(plan.sites)} sites, {plan.n_templates} "
                  f"templates)")
    return 1 if failures else 0


def _cmd_gen(args) -> int:
    from .isa.validate import check
    from .workloads.generator import synth_program
    program = synth_program(
        args.seed, args.input, profile=args.profile,
        n_loops=args.n_loops, trips=args.trips, ops=args.ops,
        array_sizes=args.array_sizes)
    check(program)
    print(f"# {program.name}: {len(program)} instructions, "
          f"{len(program.data)} data words (seed {args.seed}, "
          f"{args.input} input)")
    print(program.listing())
    return 0


def _cmd_bench(args) -> int:
    from .harness.bench import (
        DEFAULT_BENCHMARKS, QUICK_BENCHMARKS, QUICK_SELECTORS, check_against,
        check_speedups, load_report, run_bench, write_report,
    )
    mode = "batch" if args.batch else "plan" if args.plan else "kips"
    benchmarks = args.benchmarks or \
        (QUICK_BENCHMARKS if args.quick else DEFAULT_BENCHMARKS)
    # None leaves each bench its own default selectors.
    selectors = args.selectors or \
        (QUICK_SELECTORS if args.quick and mode == "kips" else None)
    config = config_by_name(args.config) if args.config else None
    runner = Runner(store=_store_for(args))
    with _telemetry(args.telemetry, runner.store,
                    config=config or config_by_name("reduced"),
                    label=args.label) as telemetry:
        report = run_bench(benchmarks, selectors, config=config,
                           label=args.label, repeat=args.repeat,
                           runner=runner, telemetry=telemetry,
                           log=lambda line: print(line, file=sys.stderr),
                           mode=mode)
    print(report.render())
    print(f"wrote {write_report(report, args.out)}")
    failures = check_speedups(report, min_speedup=args.min_speedup)
    if args.check_against is not None:
        baseline = load_report(args.check_against)
        failures += check_against(report, baseline, tolerance=args.tolerance)
    for failure in failures:
        print(f"bench: FAIL {failure}", file=sys.stderr)
    if failures:
        return 1
    if args.check_against is not None:
        print(f"bench: OK against {args.check_against} "
              f"(KIPS {report.kips:.1f} vs baseline {baseline.kips:.1f})")
    return 0


def _cmd_metrics(args) -> int:
    import json as _json

    from .obs.attribution import AttributionCollector
    from .obs.metrics import run_registry, validate_metrics

    runner = Runner(store=_store_for(args))
    config = config_by_name(args.config)
    # Attach an (empty-handed for selector=none) attribution collector.
    # Whichever path the core picks — the compiled kernel writes every
    # cache/TLB/branch/store-set counter back, the Python loop counts in
    # place — the structures hold real per-run counts for the harvest.
    collector = AttributionCollector()
    if args.selector == "none":
        core, finalize = runner.baseline_prepared(
            args.benchmark, config, args.input, attribution=collector)
    else:
        selector = selector_from_spec({"kind": args.selector})
        core, finalize = runner.selector_prepared(
            args.benchmark, selector, config, input_name=args.input,
            attribution=collector)
    finalize(core.run())
    registry = run_registry(core=core, store=runner.store)
    doc = registry.to_json()
    validate_metrics(doc)
    text = _json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        from pathlib import Path
        Path(args.out).write_text(text)
        print(f"wrote {len(registry)} metrics to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_attribution(args) -> int:
    from .harness.bench import DEFAULT_BENCHMARKS
    from .obs.attribution import (
        ATTRIBUTION_SELECTORS, render_table, run_attribution,
    )
    runner = Runner(budget=args.budget, store=_store_for(args))
    benchmarks = list(args.benchmarks or DEFAULT_BENCHMARKS)
    selectors = list(args.selectors or ATTRIBUTION_SELECTORS)
    points = run_attribution(
        runner, benchmarks, selectors, config=config_by_name(args.config),
        log=lambda line: print(line, file=sys.stderr))
    print(render_table(points, per_template=args.per_template))
    return 0


def _cmd_telemetry(args) -> int:
    from .obs.telemetry import validate_file
    summary = validate_file(args.file)
    manifest = summary["manifest"]
    print(f"{args.file}: OK ({summary['events']} events, "
          f"{summary['spans']} spans, {summary['instants']} instants)")
    print(f"manifest: git {manifest['git_sha'][:12]} "
          f"config {manifest['config_digest']} salt {manifest['salt']} "
          f"label {manifest['label']!r} created {manifest['created']}")
    if summary["cats"]:
        print("categories: " + ", ".join(
            f"{cat}={count}"
            for cat, count in sorted(summary["cats"].items())))
    return 0


def _cmd_tune(args) -> int:
    from .exec.grid import parse_jobs
    from .tune import SearchSpace, run_tune
    from .tune.report import tune_doc, write_doc, write_plot
    if args.space:
        space = SearchSpace.from_file(args.space)
    else:
        space = SearchSpace.from_cli(
            args.selectors or ["struct-all", "read-port"],
            args.configs or ["full", "reduced"],
            benchmarks=args.benchmarks or None,
            input_name=args.input)
    jobs, threads = parse_jobs(args.jobs)
    log = None if args.quiet \
        else (lambda line: print(line, file=sys.stderr))
    with _run_store(args, jobs) as store:
        result = run_tune(
            space, strategy=args.strategy, trials=args.trials,
            seed=args.seed, store=store, budget=args.budget,
            jobs=jobs, threads=threads, max_insts=args.max_insts,
            halving_eta=args.halving_eta,
            halving_min_insts=args.halving_min_insts, log=log)
    print(result.render())
    if args.out:
        doc = tune_doc(space, result.evals, result.frontier,
                       stats=result.stats.as_dict())
        print(f"wrote {write_doc(args.out, doc)}")
    if args.metrics:
        import json as _json
        from pathlib import Path

        from .obs.metrics import MetricsRegistry, collect_tune
        registry = MetricsRegistry()
        collect_tune(registry, result.stats)
        Path(args.metrics).write_text(
            _json.dumps(registry.to_json(), indent=2) + "\n")
        print(f"wrote {len(registry)} metrics to {args.metrics}")
    if args.plot:
        try:
            print(f"wrote {write_plot(args.plot, result.evals, result.frontier)}")
        except ValueError as error:
            print(f"repro: plot skipped: {error}", file=sys.stderr)
    return 0


def _cmd_cache(args) -> int:
    cache_dir = resolve_cache_dir(args.cache_dir)
    if cache_dir is None:
        print("no cache directory: pass --cache-dir or set "
              "$REPRO_CACHE_DIR", file=sys.stderr)
        return 1
    store = ArtifactStore(cache_dir)
    if args.action == "stats":
        summary = store.disk_summary()
        total_count = sum(e["count"] for e in summary.values())
        total_bytes = sum(e["bytes"] for e in summary.values())
        print(f"artifact store at {store.root}")
        print(f"{'kind':<12s} {'count':>7s} {'bytes':>12s}")
        for kind in sorted(summary):
            entry = summary[kind]
            print(f"{kind:<12s} {entry['count']:>7d} {entry['bytes']:>12d}")
        print(f"{'total':<12s} {total_count:>7d} {total_bytes:>12d}")
        print(f"code-version salt: {store.salt}")
    elif args.action == "clear":
        print(f"removed {store.clear()} artifacts from {store.root}")
    elif args.action == "dedup":
        result = store.dedup()
        print(f"deduplicated {store.root}: {result['groups']} duplicate "
              f"groups, {result['linked']} payloads hard-linked, "
              f"{result['bytes_saved']} bytes saved")
    else:  # prune
        max_age = args.max_age_days * 86400.0 \
            if args.max_age_days is not None else None
        removed = store.prune(max_age=max_age, kinds=args.kinds or None)
        print(f"pruned {removed} artifacts from {store.root}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Serialization-aware mini-graphs (MICRO 2006 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list the benchmark population")
    p_list.add_argument("--suites", nargs="+", choices=SUITES)
    p_list.set_defaults(fn=_cmd_list)

    p_run = sub.add_parser("run", help="run one benchmark")
    p_run.add_argument("benchmark")
    p_run.add_argument("--config", default="reduced")
    p_run.add_argument("--input", default="train")
    p_run.add_argument("--selector", default="slack-profile",
                       choices=[*SELECTORS, "slack-dynamic", "none"])
    _add_cache_flags(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_trace = sub.add_parser("trace", help="pipetrace a benchmark window")
    p_trace.add_argument("benchmark")
    p_trace.add_argument("--config", default="reduced")
    p_trace.add_argument("--input", default="train")
    p_trace.add_argument("--selector", default="none",
                         choices=[*SELECTORS, "none"])
    p_trace.add_argument("--first", type=int, default=0)
    p_trace.add_argument("--last", type=int, default=32)
    p_trace.set_defaults(fn=_cmd_trace)

    p_val = sub.add_parser("validate", help="statically validate programs")
    p_val.add_argument("benchmark", help="a benchmark name or 'all'")
    p_val.set_defaults(fn=_cmd_validate)

    p_report = sub.add_parser("report",
                              help="per-suite headline breakdown")
    p_report.add_argument("--selector", default="slack-profile",
                          choices=SELECTORS)
    p_report.add_argument("--limit-per-suite", type=int, default=None)
    p_report.set_defaults(fn=_cmd_report)

    p_exp = sub.add_parser(
        "experiments", help="regenerate paper figures",
        description="Regenerate a paper figure's data series.")
    p_exp.add_argument("experiment", choices=[*sorted(EXPERIMENTS), "all"])
    p_exp.add_argument("--suites", nargs="+", default=None, choices=SUITES,
                       help="restrict to suites")
    p_exp.add_argument("--limit", type=int, default=None,
                       help="use only the first N benchmarks")
    p_exp.add_argument("--no-synthetic", action="store_true")
    p_exp.add_argument("--full-tables", action="store_true",
                       help="print complete S-curve tables")
    p_exp.add_argument("--plot", action="store_true",
                       help="draw terminal S-curve plots per group")
    p_exp.add_argument("--budget", type=int, default=512,
                       help="MGT template budget")
    p_exp.add_argument("--jobs", type=str, default="1",
                       help="worker processes for the experiment grid "
                            "(1 = serial in-process), or 'threads:N' for "
                            "batched native dispatch: each wave of ready "
                            "timing points runs as one C call over N "
                            "threads (in-process, no persistent store "
                            "needed; see docs/performance.md)")
    p_exp.add_argument("--quiet", action="store_true",
                       help="suppress the scheduler progress stream on "
                            "stderr (telemetry, if enabled, still "
                            "records every event)")
    p_exp.add_argument("--check", action="store_true",
                       help="add a lockstep+lint validation node per "
                            "(program, selector) point; any divergence "
                            "fails the run (see docs/correctness.md)")
    _add_cache_flags(p_exp)
    p_exp.add_argument("--save-json", default=None, metavar="PATH",
                       help="archive the regenerated curves as JSON "
                            "(see repro.harness.reporting)")
    _add_telemetry_flag(p_exp)
    # The telemetry manifest records the words after "experiments".
    p_exp.set_defaults(fn=_cmd_experiments, argv=argv[1:])

    p_limit = sub.add_parser("limit-study",
                             help="Figure 8 exhaustive study")
    p_limit.add_argument("--cap", type=int, default=None,
                         help="truncate the subset sweep")
    p_limit.add_argument("--jobs", type=int, default=1,
                         help="worker processes for the subset sweep")
    _add_telemetry_flag(p_limit)
    _add_cache_flags(p_limit)
    p_limit.set_defaults(fn=_cmd_limit_study)

    p_fuzz = sub.add_parser(
        "fuzz", help="property-based fuzz of the mini-graph pipeline")
    p_fuzz.add_argument("--budget", default="60s",
                        help="time budget, e.g. 60s, 90, 2m (default 60s)")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="campaign seed (disjoint spec streams)")
    p_fuzz.add_argument("--programs", type=int, default=None,
                        help="stop after N programs even under budget")
    p_fuzz.add_argument("--selectors", nargs="*", default=None,
                        help="restrict to these selectors "
                             "(default: all five)")
    p_fuzz.add_argument("--artifacts", default=None, metavar="DIR",
                        help="write shrunk reproducers here")
    p_fuzz.add_argument("--no-shrink", action="store_true",
                        help="skip delta-debugging minimization")
    p_fuzz.add_argument("--replay", type=int, default=None, metavar="SEED",
                        help="re-check one spec seed instead of fuzzing")
    p_fuzz.set_defaults(fn=_cmd_fuzz)

    p_lint = sub.add_parser(
        "lint-plan", help="audit a selection plan against the paper's "
                          "structural contract")
    p_lint.add_argument("benchmark", help="a benchmark name or 'all'")
    p_lint.add_argument("--selector", default="slack-profile",
                        choices=[*SELECTORS, "slack-dynamic"])
    p_lint.add_argument("--input", default="train")
    p_lint.add_argument("--budget", type=int, default=512,
                        help="MGT template budget")
    _add_cache_flags(p_lint)
    p_lint.set_defaults(fn=_cmd_lint_plan)

    p_gen = sub.add_parser(
        "gen", help="print one synthetic generator program")
    p_gen.add_argument("--seed", type=int, required=True,
                       help="generator seed (exact reproducer)")
    p_gen.add_argument("--input", default="train",
                       choices=["train", "ref"])
    p_gen.add_argument("--profile", default=None,
                       choices=["compute", "memory", "branchy", "serial"])
    p_gen.add_argument("--n-loops", type=int, default=None)
    p_gen.add_argument("--trips", type=int, default=None)
    p_gen.add_argument("--ops", type=int, default=None)
    p_gen.add_argument("--array-sizes", type=int, nargs="*", default=None,
                       help="power-of-two array sizes")
    p_gen.set_defaults(fn=_cmd_gen)

    p_bench = sub.add_parser(
        "bench", help="simulator benches: throughput (KIPS) over a "
                      "benchmark x selector matrix, or --batch/--plan "
                      "native-vs-reference comparisons")
    p_bench.add_argument("--quick", action="store_true",
                         help="small matrix for CI smoke runs")
    p_bench.add_argument("--benchmarks", nargs="*", default=None,
                         help="override the benchmark list")
    p_bench.add_argument("--selectors", nargs="*", default=None,
                         help="override the selector list: none, observed "
                              "(tap vs Python observer) or a selector "
                              "family (struct-all, slack-profile, ...)")
    p_bench.add_argument("--config", default=None,
                         help="machine (default: reduced; --batch runs "
                              "reduced and full)")
    p_bench.add_argument("--label", default="local",
                         help="writes BENCH_<label>.json")
    p_bench.add_argument("--out", default=".",
                         help="directory for the BENCH json "
                              "(default: current directory)")
    p_bench.add_argument("--repeat", type=int, default=1,
                         help="time each layer N times, keep the fastest")
    p_bench.add_argument("--check-against", default=None, metavar="FILE",
                         help="fail on fidelity drift or aggregate KIPS "
                              "regression vs this BENCH json")
    p_bench.add_argument("--tolerance", type=float, default=0.20,
                         help="allowed fractional KIPS regression "
                              "(default 0.20)")
    _add_telemetry_flag(p_bench)
    mode = p_bench.add_mutually_exclusive_group()
    mode.add_argument("--batch", action="store_true",
                      help="batched native dispatch vs one pool task per "
                           "point, per selector")
    mode.add_argument("--plan", action="store_true",
                      help="native plan construction (profile build, "
                           "enumeration, scoring) vs the pure-Python "
                           "reference")
    p_bench.add_argument("--min-speedup", type=float, default=3.0,
                         help="every comparison point (--batch, --plan, "
                              "the observed selector) must beat its "
                              "reference by this factor (default 3.0)")
    _add_cache_flags(p_bench)
    p_bench.set_defaults(fn=_cmd_bench)

    p_metrics = sub.add_parser(
        "metrics", help="run one point and export the unified metrics "
                        "registry as JSON")
    p_metrics.add_argument("benchmark", nargs="?", default="crc32")
    p_metrics.add_argument("--config", default="reduced")
    p_metrics.add_argument("--input", default="train")
    p_metrics.add_argument("--selector", default="none",
                           choices=[*SELECTORS, "none"])
    p_metrics.add_argument("--out", default=None, metavar="PATH",
                           help="write the export here instead of stdout")
    _add_cache_flags(p_metrics)
    p_metrics.set_defaults(fn=_cmd_metrics)

    p_attr = sub.add_parser(
        "attribution",
        help="predicted-vs-observed mini-graph serialization delay "
             "(all five selectors; see docs/observability.md)")
    p_attr.add_argument("--benchmarks", nargs="*", default=None,
                        help="override the default benchmark suite")
    p_attr.add_argument("--selectors", nargs="*", default=None,
                        help="override the selector list (struct-all "
                             "struct-none struct-bounded slack-profile "
                             "slack-dynamic)")
    p_attr.add_argument("--config", default="reduced")
    p_attr.add_argument("--budget", type=int, default=512,
                        help="MGT template budget")
    p_attr.add_argument("--per-template", action="store_true",
                        help="append the worst-templates detail section")
    _add_cache_flags(p_attr)
    p_attr.set_defaults(fn=_cmd_attribution)

    p_tele = sub.add_parser(
        "telemetry", help="validate a telemetry JSONL file against the "
                          "documented schema and summarize it")
    p_tele.add_argument("file", help="path to a --telemetry output file")
    p_tele.set_defaults(fn=_cmd_telemetry)

    p_tune = sub.add_parser(
        "tune", help="design-space autotuner: search selector families x "
                     "machine configs, report Pareto frontiers "
                     "(see docs/tuning.md)")
    p_tune.add_argument("--space", default=None, metavar="FILE",
                        help="search-space spec file (.json, or .toml on "
                             "Python >= 3.11)")
    p_tune.add_argument("--selectors", nargs="*", metavar="KIND",
                        help="selector families when no --space file "
                             "(default grids apply; default: struct-all "
                             "read-port)")
    p_tune.add_argument("--configs", nargs="*", metavar="SPEC",
                        help="config specs: names or base@knob=value,... "
                             "(default: full reduced)")
    p_tune.add_argument("--benchmarks", nargs="*")
    p_tune.add_argument("--input", default="train")
    p_tune.add_argument("--strategy", default="grid",
                        choices=["grid", "random", "halving"])
    p_tune.add_argument("--trials", type=int, default=None,
                        help="trial cap (the random sample size; an "
                             "optional truncation for grid/halving)")
    p_tune.add_argument("--seed", type=int, default=0,
                        help="random-strategy sampling seed")
    p_tune.add_argument("--jobs", default="1",
                        help="N processes or threads:N batched native "
                             "dispatch (as in repro experiments)")
    p_tune.add_argument("--budget", type=int, default=512,
                        help="MGT entries per plan")
    p_tune.add_argument("--max-insts", type=int, default=2_000_000,
                        help="full-evaluation trace length")
    p_tune.add_argument("--halving-eta", type=int, default=2,
                        help="successive-halving promotion factor")
    p_tune.add_argument("--halving-min-insts", type=int, default=50_000,
                        help="shortest successive-halving rung")
    p_tune.add_argument("--out", default=None, metavar="FILE",
                        help="write the benchmarks/-style JSON artifact")
    p_tune.add_argument("--plot", default=None, metavar="PNG",
                        help="coverage-vs-IPC scatter (needs matplotlib)")
    p_tune.add_argument("--metrics", default=None, metavar="FILE",
                        help="export tune.* metrics as JSON")
    p_tune.add_argument("--quiet", action="store_true",
                        help="suppress progress on stderr")
    _add_cache_flags(p_tune)
    p_tune.set_defaults(fn=_cmd_tune)

    p_cache = sub.add_parser("cache",
                             help="artifact store maintenance")
    p_cache.add_argument("action", choices=["stats", "clear", "prune",
                                            "dedup"])
    p_cache.add_argument("--cache-dir", default=None,
                         help="store directory (default: $REPRO_CACHE_DIR)")
    p_cache.add_argument("--max-age-days", type=float, default=None,
                         help="prune: drop artifacts older than this")
    p_cache.add_argument("--kinds", nargs="*", default=None,
                         help="prune: restrict to artifact kinds "
                              "(profile baseline run run-dynamic subset; "
                              "an older store also holds trace "
                              "candidates plan)")
    p_cache.set_defaults(fn=_cmd_cache)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `python -m repro list | head`
        return 0
    except (ValidationError, MemoryFault, ExecutionLimitExceeded,
            ValueError) as error:
        # Anticipated failures (bad benchmark/selector names, assembler
        # and validation errors, runaway or faulting programs) get a
        # one-line diagnostic, not a traceback.
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
