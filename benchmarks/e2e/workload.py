"""One invocation of an end-to-end benchmark workload.

``run.py`` spawns this script once per measured invocation, with a clean
environment and ``src`` on ``PYTHONPATH``. It calls the public functions
``python -m repro.harness.experiments`` calls, in the same order:
``all_benchmarks``, ``Runner(store=ArtifactStore(dir))``, then per figure
``grid_points`` + ``run_points`` + ``EXPERIMENTS[name]`` (Figure 8:
``run_limit_study``). It writes a small JSON result for ``run.py``: when
set-up finished, a SHA-256 of each figure's output, the operations
attempted and failed, and its own peak RSS.

Set-up, the part before ``ready``, is what every user command pays
before work starts: the interpreter, ``import repro``, loading the
compiled kernel and building the benchmark registry. A process that
finds the compiled kernel unavailable exits with status 3 rather than
time the Python fallback.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="One benchmark invocation.")
    parser.add_argument("--result", required=True,
                        help="where to write the JSON result")
    parser.add_argument("--programs", default="",
                        help="comma-separated benchmark names")
    parser.add_argument("--figures", default="",
                        help="comma-separated EXPERIMENTS names, in order")
    parser.add_argument("--jobs", default="1", help="as experiments --jobs")
    parser.add_argument("--store", help="artifact store directory")
    parser.add_argument("--subset-cap", type=int, default=None,
                        help="truncate the Figure 8 sweep (smoke runs)")
    parser.add_argument("--trace-dir", default=None,
                        help="record layer spans into this directory")
    args = parser.parse_args(argv)

    from repro.analysis import limit_study
    from repro.exec import ArtifactStore
    from repro.exec.grid import parse_jobs, run_points
    from repro.harness import Runner
    from repro.harness.experiments import EXPERIMENTS, grid_points
    from repro.pipeline import ckern
    from repro.workloads import all_benchmarks

    if not ckern.available():
        print("workload: the compiled kernel is unavailable; refusing to "
              "time the Python fallback", file=sys.stderr)
        return 3
    population = all_benchmarks()
    ready = time.monotonic()
    result = {"ready": ready, "digests": {}, "attempted": 0, "failed": 0,
              "errors": []}
    if args.store is None:
        return _write(args.result, result)

    recorder = None
    if args.trace_dir:
        import spans
        recorder = spans.install(args.trace_dir)

    def span(name):
        return recorder.span(name) if recorder else contextlib.nullcontext()

    wanted = set(filter(None, args.programs.split(",")))
    benches = [bench for bench in population if bench.name in wanted]
    jobs, threads = parse_jobs(args.jobs)
    runner = Runner(store=ArtifactStore(args.store), jobs=jobs)
    for name in filter(None, args.figures.split(",")):
        result["attempted"] += 1  # the figure function itself
        try:
            if name == "fig8":
                with span("harness.figure"):
                    study = limit_study.run_limit_study(
                        runner, jobs=runner.jobs,
                        subset_cap=args.subset_cap)
                result["attempted"] += len(study.points)
                text = study.render()
            else:
                report = run_points(runner, grid_points(name, benches),
                                    jobs=jobs, threads=threads)
                result["attempted"] += len(report.results) \
                    + len(report.failures)
                result["failed"] += len(report.failures)
                result["errors"].extend(
                    f"{task}: {error}"
                    for task, error in sorted(report.failures.items()))
                with span("harness.figure"):
                    text = EXPERIMENTS[name](runner, benches).render(
                        full_tables=True)
        except Exception as error:  # noqa: BLE001 - counted, then reported
            result["failed"] += 1
            result["errors"].append(f"{name}: {type(error).__name__}: "
                                    f"{error}")
            continue
        result["digests"][name] = hashlib.sha256(text.encode()).hexdigest()
    if recorder is not None:
        recorder.flush(counters=dict(ckern.counters))
    from run import peak_rss_kb
    result["peak_rss_kb"] = peak_rss_kb("self")
    _write(args.result, result)
    return 1 if result["failed"] else 0


def _write(path, result) -> int:
    with open(path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
