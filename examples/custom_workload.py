#!/usr/bin/env python
"""Author a custom kernel and inspect its mini-graph anatomy.

Shows the analysis layers below selection: candidate enumeration,
structural serialization classes (§4.2), and the Slack-Profile delay
rules #1–#4 (§4.3) applied to each candidate, with the verdicts each
selector would reach.

Run:  python examples/custom_workload.py
"""

from repro.isa import Assembler
from repro.isa.interp import execute
from repro.minigraph import enumerate_candidates
from repro.minigraph.delay_model import assess
from repro.minigraph.slack import SlackCollector
from repro.pipeline import reduced_config
from repro.pipeline.core import OoOCore


def build_kernel():
    """A histogram loop with one deliberately serializing pattern."""
    a = Assembler("custom")
    n = 192
    data = a.data_words([(i * 31 + 7) % 64 for i in range(n)],
                        label="data")
    hist = a.data_zeros(64, label="hist")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", data)
    a.li("r2", n)
    a.li("r3", hist)
    a.li("r9", 0)
    a.label("loop")
    a.ld("r4", "r1", 0)        # bin index (late-arriving value)
    a.andi("r5", "r4", 63)
    a.add("r6", "r3", "r5")
    a.ld("r7", "r6", 0)        # hist[bin]
    a.addi("r7", "r7", 1)
    a.st("r7", "r6", 0)
    a.add("r9", "r9", "r4")    # running checksum
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "loop")
    a.st("r9", "r0", result)
    a.halt()
    return a.build()


def main():
    program = build_kernel()
    print(program.listing())
    trace = execute(program)

    collector = SlackCollector(program, config_name="reduced")
    OoOCore(reduced_config(), trace.packed(), collector=collector,
            warm_caches=True).run()
    profile = collector.profile()

    print(f"\n{len(trace)} dynamic instructions; "
          f"candidates of the hot block:\n")
    header = (f"{'span':>9s} {'shape':>10s} {'ext-in':>7s} {'out':>4s} "
              f"{'delay(out)':>10s} {'slack(out)':>10s} {'verdict':>8s}")
    print(header)
    print("-" * len(header))
    for candidate in enumerate_candidates(program):
        assessment = assess(candidate, profile)
        if assessment is None:
            continue
        delay = assessment.max_output_delay
        slack = "-"
        if assessment.output_indices:
            pcs = list(candidate.pcs)
            slack = min(profile.get(pcs[i]).slack
                        for i in assessment.output_indices)
            slack = f"{slack:10.2f}"
        verdict = "reject" if assessment.degrades else "accept"
        print(f"[{candidate.start:3d},{candidate.end:3d}) "
              f"{candidate.serialization.value:>10s} "
              f"{len(candidate.ext_inputs):7d} "
              f"{'r' + str(candidate.out_reg) if candidate.output else '-':>4s} "
              f"{delay:10.2f} {slack:>10s} {verdict:>8s}")

    print("\nlegend: shape 'none' = no serialization potential; "
          "'bounded'/'unbounded' per Struct-Bounded (§4.2);")
    print("verdict = Slack-Profile rule #4 on the self-trained profile.")


if __name__ == "__main__":
    main()
