#!/usr/bin/env python
"""Quickstart: mini-graphs recover the performance of a reduced machine.

Builds a small kernel with the assembler DSL, measures it on the
fully-provisioned and reduced machines (Table 1 of the paper), then lets
the Slack-Profile selector aggregate mini-graphs and shows the reduced
machine catching back up.

Run:  python examples/quickstart.py
"""

from repro.isa import Assembler
from repro.isa.interp import execute
from repro.minigraph import SlackProfileSelector, fold_trace, make_plan
from repro.minigraph.slack import SlackCollector
from repro.pipeline import full_config, reduced_config
from repro.pipeline.core import OoOCore


def build_kernel():
    """A saturating-add DSP-style loop with aggregable dataflow."""
    a = Assembler("quickstart")
    n = 256
    src = a.data_words([((i * 37) % 509) for i in range(n)], label="src")
    dst = a.data_zeros(n, label="dst")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", src)
    a.li("r2", dst)
    a.li("r3", n)
    a.li("r7", 255)            # saturation limit
    a.label("loop")
    a.ld("r4", "r1", 0)
    a.slli("r5", "r4", 1)      # gain of 2
    a.addi("r5", "r5", 16)     # bias
    a.blt("r5", "r7", "ok")    # saturate
    a.mov("r5", "r7")
    a.label("ok")
    a.st("r5", "r2", 0)
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", 1)
    a.addi("r3", "r3", -1)
    a.bne("r3", "r0", "loop")
    a.st("r5", "r0", result)
    a.halt()
    return a.build()


def main():
    program = build_kernel()
    trace = execute(program)
    full, reduced = full_config(), reduced_config()
    print(f"program: {program.name}  "
          f"({len(program)} static / {len(trace)} dynamic instructions)\n")

    # 1. Baselines: no mini-graphs.
    ipc_full = OoOCore(full, trace.packed(), warm_caches=True).run().ipc
    ipc_reduced = OoOCore(reduced, trace.packed(), warm_caches=True).run().ipc
    print(f"4-wide full machine   : {ipc_full:5.2f} IPC")
    print(f"3-wide reduced machine: {ipc_reduced:5.2f} IPC "
          f"({ipc_reduced / ipc_full - 1:+.1%})\n")

    # 2. Slack-profile the singleton execution on the reduced machine.
    collector = SlackCollector(program, config_name="reduced")
    OoOCore(reduced, trace.packed(), collector=collector,
            warm_caches=True).run()
    profile = collector.profile()

    # 3. Select mini-graphs and re-run the reduced machine.
    plan = make_plan(program, trace.dynamic_count_of(),
                     SlackProfileSelector(), profile=profile)
    stats = OoOCore(reduced, fold_trace(trace, plan),
                    warm_caches=True).run()
    print(f"selected {len(plan.sites)} mini-graph sites "
          f"({plan.n_templates} MGT templates)")
    print(f"reduced + mini-graphs : {stats.ipc:5.2f} IPC "
          f"({stats.ipc / ipc_full - 1:+.1%} vs full baseline, "
          f"coverage {stats.coverage:.0%})")


if __name__ == "__main__":
    main()
