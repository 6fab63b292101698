#!/usr/bin/env python
"""Quantify the "fewer resources" claim and the code-motion extension.

Prints a per-structure activity report (fetch/rename/IQ/register-file/
commit events per program instruction) for a benchmark with and without
mini-graphs, then shows what dependence-preserving in-block code motion
(`repro.minigraph.schedule`) adds on top — the contiguity-lifting
extension described in DESIGN.md.

Run:  python examples/amplification_report.py [benchmark]
"""

import argparse

from repro.isa.interp import execute
from repro.minigraph import (
    SlackProfileSelector, fold_trace, make_plan, reschedule,
)
from repro.minigraph.slack import SlackCollector
from repro.pipeline import amplification_report, reduced_config
from repro.pipeline.core import OoOCore
from repro.workloads import benchmark as get_benchmark


def _mg_stats(program, reduced):
    trace = execute(program)
    collector = SlackCollector(program, config_name="reduced")
    OoOCore(reduced, trace.packed(), collector=collector,
            warm_caches=True).run()
    plan = make_plan(program, trace.dynamic_count_of(),
                     SlackProfileSelector(), profile=collector.profile())
    stats = OoOCore(reduced, fold_trace(trace, plan),
                    warm_caches=True).run()
    return trace, stats


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("benchmark", nargs="?", default="bitcount")
    args = parser.parse_args()

    reduced = reduced_config()
    program = get_benchmark(args.benchmark).program("train")
    trace = execute(program)
    baseline = OoOCore(reduced, trace.packed(), warm_caches=True).run()
    _, mg = _mg_stats(program, reduced)

    print(f"benchmark: {args.benchmark} on the reduced machine\n")
    print("structure activity per original instruction:")
    print(amplification_report(baseline.activity, mg.activity,
                               baseline.original_committed))
    print(f"\nIPC {baseline.ipc:.3f} -> {mg.ipc:.3f} "
          f"at {mg.coverage:.0%} coverage (slack-profile selection)")

    moved = reschedule(program, verify=True)
    _, mg_moved = _mg_stats(moved, reduced)
    print(f"\nwith in-block code motion: IPC {mg_moved.ipc:.3f} "
          f"at {mg_moved.coverage:.0%} coverage")


if __name__ == "__main__":
    main()
