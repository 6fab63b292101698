"""Property-based fuzzing of the mini-graph pipeline.

The property under test: for *every* program the generator can produce
and *every* selector, the selected plan passes the static invariant
linter and the transformed trace is architecturally indistinguishable
from the original program (differential lockstep). The fuzzer samples
that space — randomized mix parameters into
:func:`repro.workloads.generator.synth_program`, every default selector
per program — until a time or program budget runs out.

Reproducibility is exact: a program is a pure function of its
:class:`FuzzSpec`, and every spec is derived deterministically from one
integer (``FuzzSpec.derive(seed)``), so a failure is reproduced by
``repro fuzz --replay SEED`` with no campaign state. Failures are
minimized by the delta-debugging shrinker (:mod:`repro.check.shrink`) —
first at the spec level (fewer loops, fewer trips, smaller bodies), then
instruction by instruction — and written to an artifacts directory as a
self-contained reproducer.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from ..isa import validate
from ..isa.interp import (
    ExecutionLimitExceeded, MemoryFault, Trace, execute,
)
from ..isa.program import Program
from ..minigraph.candidates import enumerate_candidates
from ..minigraph.selection import MiniGraphPlan
from ..minigraph.templates import build_templates
from ..minigraph.selectors import (
    ReadPortAwareSelector, Selector, SlackDynamicSelector,
    SlackProfileSelector, StructAll, StructBounded, StructNone, make_plan,
)
from ..workloads.generator import PROFILES, synth_program
from .lint import PlanIssue, lint_plan
from .lockstep import Divergence, lockstep_check
from .shrink import shrink_program

DEFAULT_MAX_INSTS = 200_000
_SPEC_STRIDE = 1_000_003  # campaign seed -> per-program spec seeds


def default_selectors() -> List[Selector]:
    """The five paper selectors plus the searchable read-port family."""
    return [StructAll(), StructNone(), StructBounded(),
            SlackProfileSelector(), SlackDynamicSelector(),
            ReadPortAwareSelector()]


@dataclass(frozen=True)
class FuzzSpec:
    """Exact reproducer for one generated program."""

    seed: int
    profile: str
    n_loops: int
    trips: int
    ops: int
    array_sizes: Tuple[int, ...]

    @classmethod
    def derive(cls, seed: int) -> "FuzzSpec":
        """The spec for ``seed`` — deterministic, no campaign state.

        Parameters skew small relative to the registered benchmarks: the
        fuzzer wants *many* structurally diverse programs per minute, not
        long-running ones.
        """
        rng = random.Random(seed * 48271 + 11)
        return cls(
            seed=seed,
            profile=rng.choice(list(PROFILES)),
            n_loops=rng.randint(1, 3),
            trips=rng.randint(4, 32),
            ops=rng.randint(2, 10),
            array_sizes=tuple(rng.choice([16, 32, 64, 128])
                              for _ in range(rng.randint(1, 3))))

    def build(self) -> Program:
        return synth_program(
            self.seed, "train", name=f"fuzz{self.seed}",
            profile=self.profile, n_loops=self.n_loops, trips=self.trips,
            ops=self.ops, array_sizes=self.array_sizes)

    def to_dict(self) -> dict:
        return {"seed": self.seed, "profile": self.profile,
                "n_loops": self.n_loops, "trips": self.trips,
                "ops": self.ops, "array_sizes": list(self.array_sizes)}

    @classmethod
    def from_dict(cls, d: dict) -> "FuzzSpec":
        return cls(seed=d["seed"], profile=d["profile"],
                   n_loops=d["n_loops"], trips=d["trips"], ops=d["ops"],
                   array_sizes=tuple(d["array_sizes"]))


@dataclass(frozen=True)
class CheckFailure:
    """One funnel failure for a (program, selector) pair."""

    kind: str       # "validate" | "execution" | "lockstep" | "lint"
    selector: str   # "" for selector-independent failures
    message: str
    divergence: Optional[Divergence] = None
    issues: Tuple[PlanIssue, ...] = ()

    @property
    def signature(self) -> Tuple[str, str]:
        """What must match for a shrunk program to count as "the same
        failure"."""
        return (self.kind, self.selector)

    def render(self) -> str:
        head = f"[{self.kind}]" + (f" selector={self.selector}"
                                   if self.selector else "")
        return f"{head} {self.message}"


def _slack_profile(program: Program, trace: Trace):
    """Self-trained slack profile on the reduced machine (as the paper's
    profiling flow does), computed directly — the fuzzer bypasses the
    Runner because its programs are not registered benchmarks."""
    from ..minigraph.slack import SlackCollector
    from ..pipeline.config import config_by_name
    from ..pipeline.core import OoOCore
    config = config_by_name("reduced")
    collector = SlackCollector(program, config_name=config.name,
                               input_name="fuzz")
    OoOCore(config, trace.packed(), collector=collector,
            warm_caches=True).run()
    return collector.profile()


def check_program(program: Program,
                  selectors: Optional[Sequence[Selector]] = None,
                  budget: int = 512, max_size: int = 4,
                  max_insts: int = DEFAULT_MAX_INSTS,
                  lint_plans: bool = True,
                  plan_hook: Optional[Callable[
                      [Program, Selector, MiniGraphPlan],
                      MiniGraphPlan]] = None) -> Optional[CheckFailure]:
    """Funnel one program through validate → lockstep → lint.

    Returns the first :class:`CheckFailure`, or ``None`` if every
    selector's plan checks out. Lockstep runs *before* lint so dynamic
    divergence is attributed to the lockstep engine even when the linter
    would also have flagged the plan statically. ``plan_hook`` lets tests
    substitute a (deliberately broken) plan per selector.
    """
    try:
        validate.check(program)
    except validate.ValidationError as error:
        return CheckFailure("validate", "", str(error))
    try:
        trace = execute(program, max_insts=max_insts)
    except (MemoryFault, ExecutionLimitExceeded) as error:
        return CheckFailure("execution", "",
                            f"{type(error).__name__}: {error}")
    freq_counts = trace.dynamic_count_of()
    # Enumeration and template grouping are selector-independent: hoist
    # both out of the per-selector loop (folds reassign the per-site
    # scratch pcs, so sharing sites across sequential plan/fold/check
    # rounds cannot leak state between selectors).
    candidates = enumerate_candidates(program, max_size=max_size)
    templates = build_templates(candidates, freq_counts)
    sites = [site for template in templates for site in template.sites]
    profile = None
    for selector in (selectors if selectors is not None
                     else default_selectors()):
        if selector.needs_profile and profile is None:
            profile = _slack_profile(program, trace)
        plan = make_plan(program, freq_counts, selector,
                         profile=profile if selector.needs_profile
                         else None,
                         budget=budget, max_size=max_size,
                         candidates=candidates, sites=sites)
        if plan_hook is not None:
            plan = plan_hook(program, selector, plan)
        report = lockstep_check(program, plan, trace=trace,
                                selector=selector.name,
                                max_insts=max_insts)
        if report.divergence is not None:
            return CheckFailure("lockstep", selector.name,
                                report.divergence.render(),
                                divergence=report.divergence)
        if lint_plans:
            issues = lint_plan(program, plan, max_size=max_size,
                               budget=budget)
            if issues:
                return CheckFailure(
                    "lint", selector.name,
                    "; ".join(i.render() for i in issues[:5]),
                    issues=tuple(issues))
    return None


@dataclass
class FuzzFailure:
    """A failing spec plus its minimized reproducers."""

    spec: FuzzSpec
    failure: CheckFailure
    shrunk_spec: Optional[FuzzSpec] = None
    shrunk_program: Optional[Program] = None
    shrunk_failure: Optional[CheckFailure] = None
    artifact_paths: List[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"seed {self.spec.seed}: {self.failure.render()}",
                 f"  replay: repro fuzz --replay {self.spec.seed}"]
        if self.shrunk_program is not None:
            lines.append(f"  shrunk to {len(self.shrunk_program)} "
                         f"instructions")
        for path in self.artifact_paths:
            lines.append(f"  artifact: {path}")
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Outcome of one fuzzing campaign."""

    seed: int
    programs: int = 0
    checks: int = 0          # (program, selector) lockstep+lint passes
    selectors: Tuple[str, ...] = ()
    elapsed: float = 0.0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [f"fuzz: seed {self.seed}, {self.programs} programs, "
                 f"{self.checks} (program, selector) checks over "
                 f"{len(self.selectors)} selectors "
                 f"[{', '.join(self.selectors)}] in {self.elapsed:.1f}s"]
        if self.ok:
            lines.append("fuzz: no divergences")
        else:
            for failure in self.failures:
                lines.append(failure.render())
        return "\n".join(lines)


def _spec_shrink_steps(spec: FuzzSpec) -> List[FuzzSpec]:
    """Simpler variants of ``spec``, most aggressive first."""
    steps: List[FuzzSpec] = []
    if spec.n_loops > 1:
        steps.append(replace(spec, n_loops=1))
    for trips in (2, 4, 8):
        if trips < spec.trips:
            steps.append(replace(spec, trips=trips))
    for ops in (1, 2, 4):
        if ops < spec.ops:
            steps.append(replace(spec, ops=ops))
    if len(spec.array_sizes) > 1:
        steps.append(replace(spec, array_sizes=spec.array_sizes[:1]))
    if any(size > 16 for size in spec.array_sizes):
        steps.append(replace(
            spec, array_sizes=tuple(min(size, 16)
                                    for size in spec.array_sizes)))
    return steps


def shrink_failure(spec: FuzzSpec, failure: CheckFailure,
                   check: Callable[[Program], Optional[CheckFailure]],
                   max_evals: int = 400
                   ) -> Tuple[FuzzSpec, Program, CheckFailure]:
    """Minimize a failing spec: parameter-level, then instruction-level.

    ``check`` is the funnel restricted to the campaign's settings (the
    fuzzer passes only the failing selector for speed). Returns the
    smallest (spec, program, failure) triple with the original failure
    signature.
    """
    signature = failure.signature

    def fails_same(program: Program) -> Optional[CheckFailure]:
        try:
            found = check(program)
        except Exception:   # a crash is a *different* bug; don't chase it
            return None
        return found if found is not None \
            and found.signature == signature else None

    # Parameter-level: keep applying the first simplification that still
    # fails, until none does.
    best_spec, best_failure = spec, failure
    progress = True
    while progress:
        progress = False
        for candidate in _spec_shrink_steps(best_spec):
            found = fails_same(candidate.build())
            if found is not None:
                best_spec, best_failure = candidate, found
                progress = True
                break
    best_program = best_spec.build()

    # Instruction-level ddmin on the reduced program.
    shrunk = shrink_program(best_program,
                            lambda p: fails_same(p) is not None,
                            max_evals=max_evals)
    final = fails_same(shrunk)
    if final is None:  # shrinker returned the unreduced program
        shrunk, final = best_program, best_failure
    return best_spec, shrunk, final


def _write_artifacts(directory: str, result: FuzzFailure) -> List[str]:
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    seed = result.spec.seed
    paths: List[str] = []
    meta = {
        "spec": result.spec.to_dict(),
        "failure": {"kind": result.failure.kind,
                    "selector": result.failure.selector,
                    "message": result.failure.message},
        "replay": f"repro fuzz --replay {seed}",
    }
    if result.shrunk_spec is not None:
        meta["shrunk_spec"] = result.shrunk_spec.to_dict()
    if result.shrunk_program is not None:
        meta["shrunk_instructions"] = len(result.shrunk_program)
    json_path = root / f"reproducer-{seed}.json"
    json_path.write_text(json.dumps(meta, indent=2) + "\n")
    paths.append(str(json_path))
    lines = [f"# fuzz reproducer, seed {seed}",
             f"# {result.failure.render()}", ""]
    if result.shrunk_program is not None:
        lines += [f"# shrunk program "
                  f"({len(result.shrunk_program)} instructions):",
                  result.shrunk_program.listing(), ""]
        if result.shrunk_failure is not None:
            lines += ["# failure on the shrunk program:",
                      result.shrunk_failure.render(), ""]
    lines += ["# original program:", result.spec.build().listing()]
    txt_path = root / f"reproducer-{seed}.txt"
    txt_path.write_text("\n".join(lines) + "\n")
    paths.append(str(txt_path))
    return paths


def run_fuzz(budget: float = 60.0, seed: int = 0,
             max_programs: Optional[int] = None,
             selectors: Optional[Sequence[Selector]] = None,
             artifacts_dir: Optional[str] = None,
             shrink: bool = True,
             lint_plans: bool = True,
             plan_hook: Optional[Callable] = None,
             mgt_budget: int = 512, max_size: int = 4,
             max_insts: int = DEFAULT_MAX_INSTS,
             shrink_max_evals: int = 400,
             log: Optional[Callable[[str], None]] = None) -> FuzzReport:
    """One fuzzing campaign; stops at the first failure.

    Runs until ``budget`` seconds elapse or ``max_programs`` programs
    have been checked, whichever comes first. Program ``i`` of campaign
    ``seed`` uses spec seed ``seed * 1_000_003 + i``, so campaigns with
    different seeds explore disjoint spec streams and any failure is
    replayable from its spec seed alone.
    """
    sel = list(selectors) if selectors is not None else default_selectors()
    report = FuzzReport(seed=seed,
                        selectors=tuple(s.name for s in sel))
    start = time.monotonic()
    index = 0
    while True:
        if max_programs is not None and index >= max_programs:
            break
        if time.monotonic() - start >= budget:
            break
        spec = FuzzSpec.derive(seed * _SPEC_STRIDE + index)
        index += 1
        failure = check_program(spec.build(), selectors=sel,
                                budget=mgt_budget, max_size=max_size,
                                max_insts=max_insts,
                                lint_plans=lint_plans,
                                plan_hook=plan_hook)
        report.programs += 1
        if failure is None:
            report.checks += len(sel)
            if log is not None and report.programs % 25 == 0:
                log(f"fuzz: {report.programs} programs ok "
                    f"({time.monotonic() - start:.1f}s)")
            continue
        result = FuzzFailure(spec=spec, failure=failure)
        if log is not None:
            log(f"fuzz: FAILURE at seed {spec.seed}: {failure.render()}")
        if shrink:
            failing_sel = [s for s in sel
                           if s.name == failure.selector] or sel

            def recheck(program: Program) -> Optional[CheckFailure]:
                return check_program(program, selectors=failing_sel,
                                     budget=mgt_budget,
                                     max_size=max_size,
                                     max_insts=max_insts,
                                     lint_plans=lint_plans,
                                     plan_hook=plan_hook)

            shrunk_spec, shrunk_program, shrunk_failure = shrink_failure(
                spec, failure, recheck, max_evals=shrink_max_evals)
            result.shrunk_spec = shrunk_spec
            result.shrunk_program = shrunk_program
            result.shrunk_failure = shrunk_failure
            if log is not None:
                log(f"fuzz: shrunk to {len(shrunk_program)} instructions")
        if artifacts_dir is not None:
            result.artifact_paths = _write_artifacts(artifacts_dir, result)
        report.failures.append(result)
        break
    report.elapsed = time.monotonic() - start
    return report


def replay(spec_seed: int,
           selectors: Optional[Sequence[Selector]] = None,
           **kwargs) -> Optional[CheckFailure]:
    """Re-run the funnel for one spec seed (``repro fuzz --replay``)."""
    return check_program(FuzzSpec.derive(spec_seed).build(),
                         selectors=selectors, **kwargs)
