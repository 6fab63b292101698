#!/usr/bin/env python
"""Compare all five mini-graph selectors on one benchmark (paper §5.1).

Runs a chosen suite benchmark on both Table 1 machines under every
selector and prints performance (relative to the fully-provisioned
baseline) and dynamic coverage — one program's slice of Figure 6.

Run:  python examples/selector_comparison.py [benchmark] [--input ref]
"""

import argparse

from repro.harness import Runner
from repro.minigraph import (
    SlackDynamicSelector, SlackProfileSelector, StructAll, StructBounded,
    StructNone,
)
from repro.pipeline import full_config, reduced_config


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("benchmark", nargs="?", default="adpcm")
    parser.add_argument("--input", default="train")
    args = parser.parse_args()

    runner = Runner()
    full, reduced = full_config(), reduced_config()
    base_full = runner.baseline(args.benchmark, full, args.input).ipc
    base_reduced = runner.baseline(args.benchmark, reduced, args.input).ipc

    print(f"benchmark: {args.benchmark} ({args.input} input)")
    print(f"full baseline IPC: {base_full:.3f}   "
          f"reduced (no mini-graphs): {base_reduced / base_full:.3f}x\n")
    header = (f"{'selector':>16s} {'reduced rel':>12s} {'full rel':>10s} "
              f"{'coverage':>9s} {'sites':>6s} {'templates':>9s}")
    print(header)
    print("-" * len(header))

    selectors = [StructAll(), StructNone(), StructBounded(),
                 SlackProfileSelector()]
    for selector in selectors:
        on_reduced = runner.run_selector(args.benchmark, selector, reduced,
                                         input_name=args.input)
        on_full = runner.run_selector(args.benchmark, selector, full,
                                      input_name=args.input)
        plan = runner.plan(args.benchmark, selector, input_name=args.input)
        print(f"{selector.name:>16s} {on_reduced.ipc / base_full:12.3f} "
              f"{on_full.ipc / base_full:10.3f} "
              f"{on_reduced.coverage:9.1%} "
              f"{len(plan.sites):6d} {plan.n_templates:9d}")

    dynamic = runner.run_slack_dynamic(args.benchmark, reduced,
                                       input_name=args.input)
    dynamic_full = runner.run_slack_dynamic(args.benchmark, full,
                                            input_name=args.input)
    plan = runner.plan(args.benchmark, SlackDynamicSelector(),
                       input_name=args.input)
    print(f"{'slack-dynamic':>16s} {dynamic.ipc / base_full:12.3f} "
          f"{dynamic_full.ipc / base_full:10.3f} "
          f"{dynamic.coverage:9.1%} "
          f"{len(plan.sites):6d} {plan.n_templates:9d}")
    print(f"\n(slack-dynamic disabled instances: "
          f"{dynamic.stats.mg_disabled_instances}, "
          f"outline jumps paid: {dynamic.stats.outline_jumps_committed})")


if __name__ == "__main__":
    main()
