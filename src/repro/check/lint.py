"""Static invariant linting of :class:`MiniGraphPlan` objects.

The paper's structural contract (§2) is what makes a mini-graph
hardware-legal: ≤4 constituents, ≤3 external register inputs, ≤1 live
register output, ≤1 memory operation, ≤1 control transfer (which must be
the final constituent), all confined to one basic block. A selector that
violates any of these produces plans the MGT could never encode — and
would silently skew IPC results.

:func:`lint_plan` audits a plan against that contract *and* against
internal consistency: sites must not overlap, each candidate's stored
interface (``ext_inputs``/``output``/``edges``/``serialization``) must
match a fresh recomputation from the program (dataflow closure), and each
site's template must carry the candidate's canonical shape. It is pure
and returns a list of :class:`PlanIssue`; :func:`check_plan` is the
raising wrapper used as a library assertion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional

from ..isa import opcodes as oc
from ..isa.program import Program
from ..minigraph.candidates import MAX_EXT_INPUTS, MAX_MG_SIZE
from ..minigraph.dataflow import (
    group_interface, internal_edges, liveness,
)
from ..minigraph.selection import MiniGraphPlan
from ..minigraph.serialization import classify
from ..minigraph.templates import canonical_key

_AGGREGABLE = (oc.OC_SIMPLE, oc.OC_LOAD, oc.OC_STORE, oc.OC_BRANCH)


@dataclass(frozen=True)
class PlanIssue:
    """One invariant violation found in a plan."""

    site_id: int    # offending site, or -1 for plan-level issues
    rule: str       # short machine-readable rule name
    message: str

    def render(self) -> str:
        where = f"site #{self.site_id}" if self.site_id >= 0 else "plan"
        return f"{where}: [{self.rule}] {self.message}"


class PlanInvariantError(AssertionError):
    """Raised by :func:`check_plan` when a plan violates the contract."""

    def __init__(self, program_name: str, issues: List[PlanIssue]):
        self.issues = issues
        lines = [f"plan for {program_name} violates "
                 f"{len(issues)} invariant(s):"]
        lines.extend("  " + issue.render() for issue in issues)
        super().__init__("\n".join(lines))


def _lint_site(program: Program, site, live_out_sets,
               max_size: int, issues: List[PlanIssue]) -> None:
    cand = site.candidate
    sid = site.id
    n = len(program.instructions)

    def issue(rule: str, message: str) -> None:
        issues.append(PlanIssue(sid, rule, message))

    if not (0 <= cand.start < cand.end <= n):
        issue("bounds", f"range [{cand.start},{cand.end}) outside "
                        f"program of {n} instructions")
        return
    if cand.program is not program:
        # A plan built over another copy of the program (a pickled plan,
        # or a program built again) cannot share its objects — but the
        # constituent instructions must match the program being checked.
        for pc in range(cand.start, cand.end):
            if cand.program.instructions[pc].render() \
                    != program.instructions[pc].render():
                issue("program-mismatch",
                      f"candidate instruction at pc {pc} "
                      f"({cand.program.instructions[pc].render()}) does "
                      f"not match the program "
                      f"({program.instructions[pc].render()})")
                return

    # -- paper constraints ------------------------------------------------
    size = cand.size
    if not 2 <= size <= max_size:
        issue("size", f"{size} constituents (legal: 2..{max_size})")
    block = program.block_of(cand.start)
    if cand.end > block.end:
        issue("basic-block", f"range [{cand.start},{cand.end}) crosses "
                             f"the block boundary at {block.end}")
    mem_ops = 0
    for offset, inst in enumerate(cand.instructions()):
        if inst.opclass not in _AGGREGABLE:
            issue("opclass", f"constituent at pc {cand.start + offset} "
                             f"({inst.render()}) is not aggregable")
        if inst.is_memory:
            mem_ops += 1
        if inst.is_control and offset != size - 1:
            issue("control-position",
                  f"control transfer at pc {cand.start + offset} is not "
                  f"the final constituent")
    if mem_ops > 1:
        issue("memory-ops", f"{mem_ops} memory operations (legal: ≤1)")

    # -- dataflow closure: stored interface vs. recomputation -------------
    ext_inputs, outputs = group_interface(program, cand.start, cand.end,
                                          live_out_sets)
    if len(ext_inputs) > MAX_EXT_INPUTS:
        issue("ext-inputs", f"{len(ext_inputs)} external register inputs "
                            f"(legal: ≤{MAX_EXT_INPUTS})")
    if len(outputs) > 1:
        issue("outputs", f"{len(outputs)} live register outputs "
                         f"{sorted(r for r, _ in outputs)} (legal: ≤1)")
    if list(cand.ext_inputs) != list(ext_inputs):
        issue("stale-inputs",
              f"stored ext_inputs {cand.ext_inputs} != recomputed "
              f"{ext_inputs}")
    expected_output = outputs[0] if len(outputs) == 1 else None
    if len(outputs) <= 1 and cand.output != expected_output:
        issue("stale-output", f"stored output {cand.output} != "
                              f"recomputed {expected_output}")
    edges = internal_edges(program, cand.start, cand.end)
    if list(cand.edges) != list(edges):
        issue("stale-edges",
              f"stored edges {cand.edges} != recomputed {edges}")
    expected_class = classify(size, ext_inputs, edges,
                              expected_output[1] if expected_output
                              else None)
    if len(outputs) <= 1 and cand.serialization is not expected_class:
        issue("stale-serialization",
              f"stored class {cand.serialization.value} != recomputed "
              f"{expected_class.value}")

    # -- template shape ---------------------------------------------------
    if site.template is None:
        issue("template", "site has no template")
    else:
        key = canonical_key(cand)
        if site.template.key != key:
            issue("template-shape",
                  f"template #{site.template.id} key does not match the "
                  f"candidate's canonical shape")
        if site.template.size != size:
            issue("template-shape",
                  f"template #{site.template.id} size "
                  f"{site.template.size} != candidate size {size}")


def lint_plan(program: Program, plan: MiniGraphPlan,
              max_size: int = MAX_MG_SIZE,
              budget: Optional[int] = None,
              live_out_sets: Optional[List[FrozenSet[int]]] = None
              ) -> List[PlanIssue]:
    """Audit ``plan`` against ``program``; return all violations found.

    ``budget`` (if given) additionally checks the MGT template budget.
    Pass precomputed ``live_out_sets`` (from
    :func:`repro.minigraph.dataflow.liveness`) to amortize analysis cost
    across many lints of the same program.
    """
    issues: List[PlanIssue] = []
    if budget is not None and len(plan.templates) > budget:
        issues.append(PlanIssue(
            -1, "budget", f"{len(plan.templates)} templates exceed the "
                          f"MGT budget of {budget}"))
    template_ids = {t.id for t in plan.templates}
    if len(template_ids) != len(plan.templates):
        issues.append(PlanIssue(-1, "duplicate-template",
                                "plan lists a template id twice"))
    if live_out_sets is None:
        live_out_sets = liveness(program)
    prev_end = -1
    prev_id = -1
    for site in plan.sites:  # sorted by start (MiniGraphPlan invariant)
        if site.start < prev_end:
            issues.append(PlanIssue(
                site.id, "overlap",
                f"site #{site.id} [{site.start},{site.end}) overlaps "
                f"site #{prev_id} ending at {prev_end}"))
        prev_end = max(prev_end, site.end)
        prev_id = site.id
        if site.template is not None \
                and site.template.id not in template_ids:
            issues.append(PlanIssue(
                site.id, "orphan-site",
                f"site #{site.id} uses template #{site.template.id} "
                f"absent from the plan's template list"))
        _lint_site(program, site, live_out_sets, max_size, issues)
    return issues


def check_plan(program: Program, plan: MiniGraphPlan,
               max_size: int = MAX_MG_SIZE,
               budget: Optional[int] = None) -> MiniGraphPlan:
    """Assert ``plan`` is legal; raise :class:`PlanInvariantError` if not.

    Returns the plan unchanged so selectors can tail-call it.
    """
    issues = lint_plan(program, plan, max_size=max_size, budget=budget)
    if issues:
        raise PlanInvariantError(program.name, issues)
    return plan
