"""Experiment runner: composes tracing, profiling, selection, and timing.

A :class:`Runner` memoizes every expensive intermediate (functional traces,
slack profiles, candidate enumerations, selection plans, timing runs)
through a content-addressed :class:`~repro.exec.store.ArtifactStore`.
Every memo key includes *all* parameters the value depends on —
benchmark, input, machine configuration (full sizing, not just the name),
selector parameters, ``budget``, ``max_mg_size``, ``max_insts``,
``warm_caches`` — plus a code-version salt, so a key can never alias two
different results. By default the store is memory-only and dies with the
process (the historical behavior); pass ``store=ArtifactStore(cache_dir)``
to persist artifacts across runs and share them with scheduler workers
(see :mod:`repro.exec`).

The mini-graph flow for one (program, selector, machine) run:

1. functional trace of the program (architectural, machine-independent);
2. slack profile, if the selector needs one — a singleton timing run on
   the *profiling* machine and input with a :class:`SlackCollector`;
3. candidate enumeration → template grouping → selector pool filter →
   greedy budgeted selection (the plan);
4. trace folding (outlining transform) and the timing run proper, with a
   :class:`SlackDynamicPolicy` attached for dynamic selectors.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Dict, List, Optional

from ..exec.store import ArtifactStore, FrozenParams
from ..isa.interp import Trace, execute
from ..minigraph.candidates import Candidate, enumerate_candidates
from ..minigraph.dynamic import MiniGraphPolicy, SlackDynamicPolicy
from ..minigraph.selection import MiniGraphPlan
from ..minigraph.selectors import Selector, SlackDynamicSelector, make_plan
from ..minigraph.slack import SlackCollector, SlackProfile
from ..minigraph.templates import build_templates
from ..minigraph.transform import fold_trace
from ..pipeline.config import MachineConfig, config_by_name
from ..pipeline.core import OoOCore
from ..pipeline.stats import RunStats
from ..workloads.suite import Benchmark, benchmark

DEFAULT_INPUT = "train"
DEFAULT_MAX_INSTS = 2_000_000


@dataclass(frozen=True)
class SelectorRun:
    """Outcome of one selector × machine × program timing run.

    Frozen: results are placed in the artifact store and shared between
    callers, so no field may be rebound after construction. Display-name
    variants (e.g. ``ideal-slack-dynamic-sial``) are passed into the
    constructor via :meth:`Runner.run_selector`'s ``label``. The plan the
    run timed is its input, not part of its outcome: :meth:`Runner.plan`
    with the run's own arguments returns it (the ``plan`` artifact).
    """

    program: str
    selector: str
    config: str
    stats: RunStats

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    @property
    def coverage(self) -> float:
        return self.stats.coverage


@lru_cache(maxsize=None)
def _config_params(config: MachineConfig) -> FrozenParams:
    """The complete machine sizing, not just the name: a custom
    ``config.scaled(...)`` must never collide with its namesake.

    Cached per (frozen, hashable) config instance, read-only, with its
    canonical JSON encoded on first use: the handful of configs a
    process touches are walked through ``asdict`` and encoded once, not
    once per store key (:meth:`ArtifactStore.key` splices the text in).
    """
    return FrozenParams(asdict(config))


class Runner:
    """Caching orchestrator for all paper experiments."""

    def __init__(self, budget: int = 512, max_mg_size: int = 4,
                 warm_caches: bool = True,
                 max_insts: int = DEFAULT_MAX_INSTS,
                 store: Optional[ArtifactStore] = None,
                 jobs: int = 1):
        self.budget = budget
        self.max_mg_size = max_mg_size
        self.warm_caches = warm_caches
        self.max_insts = max_insts
        self.store = store if store is not None else ArtifactStore()
        #: Degree of process fan-out used by drivers that schedule their
        #: own work through :mod:`repro.exec` (e.g. the limit study).
        self.jobs = jobs
        # Hoisted template sites per (bench, input, profile_input):
        # enumeration and template grouping are selector-independent,
        # so the per-selector plan loop shares one build_templates pass.
        # In memory only, for the runner's life: the store's memory
        # layer keeps the plans that hold these sites as long anyway.
        self._sites_memo: Dict = {}

    # -- benchmark helpers -----------------------------------------------------

    def _bench(self, bench) -> Benchmark:
        return benchmark(bench) if isinstance(bench, str) else bench

    # -- artifact-key params ---------------------------------------------------
    #
    # Every memoized phase builds its store key from one of the builders
    # below, and nothing else: external probes (the DAG pruner, see
    # :func:`repro.exec.grid.prune_cached`) construct the identical
    # params to ask "is this artifact already materialized?" without
    # computing anything.
    # Adding a parameter to a compute path means adding it here, once.

    def trace_params(self, bench_name: str, input_name: str) -> Dict:
        """Store-key params for :meth:`trace`."""
        return {"bench": bench_name, "input": input_name,
                "max_insts": self.max_insts}

    def candidates_params(self, bench_name: str, input_name: str) -> Dict:
        """Store-key params for :meth:`candidates`."""
        return {"bench": bench_name, "input": input_name,
                "max_mg_size": self.max_mg_size}

    def baseline_params(self, bench_name: str,
                        config: MachineConfig, input_name: str) -> Dict:
        """Store-key params for :meth:`baseline`."""
        return {"bench": bench_name, "input": input_name,
                "config": _config_params(config),
                "warm_caches": self.warm_caches,
                "max_insts": self.max_insts}

    def profile_params(self, bench_name: str, config: MachineConfig,
                       input_name: str, global_slack: bool) -> Dict:
        """Store-key params for :meth:`slack_profile`."""
        return {"bench": bench_name, "input": input_name,
                "config": _config_params(config),
                "global_slack": global_slack,
                "warm_caches": self.warm_caches,
                "max_insts": self.max_insts}

    def plan_params(self, bench_name: str, selector_spec: Dict,
                    input_name: str, profile_config: MachineConfig,
                    profile_input: str, global_slack: bool) -> Dict:
        """Store-key params for :meth:`plan` (resolved profiling args)."""
        return {"bench": bench_name, "selector": selector_spec,
                "input": input_name,
                "profile_config": _config_params(profile_config),
                "profile_input": profile_input,
                "budget": self.budget, "max_mg_size": self.max_mg_size,
                "global_slack": global_slack,
                "warm_caches": self.warm_caches,
                "max_insts": self.max_insts}

    def run_params(self, bench_name: str, selector_spec: Dict,
                   config: MachineConfig, input_name: str,
                   profile_config: MachineConfig, profile_input: str,
                   global_slack: bool, label: Optional[str]) -> Dict:
        """Store-key params for :meth:`run_selector` (resolved args)."""
        return {"bench": bench_name, "selector": selector_spec,
                "config": _config_params(config),
                "input": input_name,
                "profile_config": _config_params(profile_config),
                "profile_input": profile_input,
                "budget": self.budget, "max_mg_size": self.max_mg_size,
                "global_slack": global_slack,
                "warm_caches": self.warm_caches,
                "max_insts": self.max_insts,
                "label": label}

    def subset_params(self, bench_name: str, input_name: str,
                      config: MachineConfig, n_candidates: int,
                      first: int, count: int, baseline_ipc: float) -> Dict:
        """Store-key params for one chunk of limit-study subsets: the
        ``count`` masks from ``first`` on."""
        return {"bench": bench_name, "input": input_name,
                "config": _config_params(config),
                "n_candidates": n_candidates,
                "first": first, "count": count,
                "baseline_ipc": baseline_ipc,
                "budget": self.budget, "max_mg_size": self.max_mg_size,
                "warm_caches": self.warm_caches,
                "max_insts": self.max_insts}

    def dynamic_params(self, bench_name: str, config: MachineConfig,
                       input_name: str, mode: str,
                       outlining_penalty: bool, policy_kwargs: Dict) -> Dict:
        """Store-key params for :meth:`run_slack_dynamic`."""
        return {"bench": bench_name, "config": _config_params(config),
                "input": input_name, "mode": mode,
                "outlining_penalty": outlining_penalty,
                "policy": dict(sorted(policy_kwargs.items())),
                "budget": self.budget, "max_mg_size": self.max_mg_size,
                "warm_caches": self.warm_caches,
                "max_insts": self.max_insts}

    def trace(self, bench, input_name: str = DEFAULT_INPUT) -> Trace:
        """Functional (singleton) trace of a benchmark."""
        bench = self._bench(bench)
        params = self.trace_params(bench.name, input_name)

        def compute() -> Trace:
            program = bench.program(input_name)
            return execute(program, max_insts=self.max_insts,
                           input_name=input_name)

        return self.store.get_or_compute("trace", params, compute)

    def candidates(self, bench,
                   input_name: str = DEFAULT_INPUT) -> List[Candidate]:
        """Memoized candidate enumeration for a benchmark program."""
        bench = self._bench(bench)
        params = self.candidates_params(bench.name, input_name)

        def compute() -> List[Candidate]:
            program = bench.program(input_name)
            # Materialize: the native enumerator returns a lazy packed
            # set, but the stored artifact must be the same plain list
            # the Python reference produces (byte-identical pickles).
            return list(enumerate_candidates(program,
                                             max_size=self.max_mg_size))

        return self.store.get_or_compute("candidates", params, compute)

    # -- timing runs --------------------------------------------------------------

    # -- prepared (core, finalize) pairs ---------------------------------------
    #
    # Each ``*_prepared`` helper materializes every upstream artifact,
    # constructs the timing core *without running it*, and returns a
    # ``finalize(stats)`` closure that turns a finished run's stats into
    # the store artifact. The serial computes below are thin wrappers
    # (``finalize(core.run())``), and the batched executor
    # (:mod:`repro.exec.batch`) drives the same cores through one native
    # ``repro_run_batch`` call — the two paths cannot disagree on how a
    # point is set up or summarized because there is only one setup path.

    def baseline_prepared(self, bench, config: MachineConfig,
                          input_name: str = DEFAULT_INPUT):
        """``(core, finalize)`` for one singleton timing run."""
        bench = self._bench(bench)
        trace = self.trace(bench, input_name)
        core = OoOCore(config, trace.packed(), warm_caches=self.warm_caches)

        def finalize(stats: RunStats) -> RunStats:
            stats.program_name = bench.name
            return stats

        return core, finalize

    def profile_prepared(self, bench, config: MachineConfig,
                         input_name: str = DEFAULT_INPUT,
                         global_slack: bool = False):
        """``(core, finalize)`` for one slack-profiling run."""
        bench = self._bench(bench)
        trace = self.trace(bench, input_name)
        if global_slack:
            from ..analysis.global_slack import GlobalSlackCollector
            collector = GlobalSlackCollector(
                bench.program(input_name), config_name=config.name,
                input_name=input_name)
        else:
            collector = SlackCollector(bench.program(input_name),
                                       config_name=config.name,
                                       input_name=input_name)
        core = OoOCore(config, trace.packed(), collector=collector,
                       warm_caches=self.warm_caches)

        def finalize(stats: RunStats) -> SlackProfile:
            stats.program_name = bench.name
            return collector.global_profile() if global_slack \
                else collector.profile()

        return core, finalize

    def selector_prepared(self, bench, selector: Selector,
                          config: MachineConfig,
                          input_name: str = DEFAULT_INPUT,
                          profile_config: Optional[MachineConfig] = None,
                          profile_input: Optional[str] = None,
                          global_slack: bool = False,
                          label: Optional[str] = None,
                          policy: Optional[MiniGraphPolicy] = None):
        """``(core, finalize)`` for one selector timing run (plan, trace
        fold, and core construction — everything but the cycle loop).

        A :class:`SlackDynamicSelector` run gets the default
        :class:`SlackDynamicPolicy` unless ``policy`` is given: the
        selector is only the static half of Slack-Dynamic.
        """
        bench = self._bench(bench)
        if policy is None and isinstance(selector, SlackDynamicSelector):
            policy = SlackDynamicPolicy()
        plan = self.plan(bench, selector, input_name=input_name,
                         profile_config=profile_config,
                         profile_input=profile_input,
                         global_slack=global_slack)
        trace = self.trace(bench, input_name)
        records = fold_trace(trace, plan)
        core = OoOCore(config, records, policy=policy,
                       warm_caches=self.warm_caches)

        def finalize(stats: RunStats) -> SelectorRun:
            stats.program_name = bench.name
            return SelectorRun(bench.name, label or selector.name,
                               config.name, stats)

        return core, finalize

    def dynamic_prepared(self, bench, config: MachineConfig,
                         mode: str = "full", outlining_penalty: bool = True,
                         input_name: str = DEFAULT_INPUT, **policy_kwargs):
        """``(core, finalize)`` for one Slack-Dynamic run: the Struct-All
        pool under a fresh :class:`SlackDynamicPolicy`."""
        suffix = "" if mode == "full" else f"-{mode}"
        ideal = "" if outlining_penalty else "ideal-"
        policy = SlackDynamicPolicy(mode=mode,
                                    outlining_penalty=outlining_penalty,
                                    **policy_kwargs)
        return self.selector_prepared(
            bench, SlackDynamicSelector(), config, input_name=input_name,
            label=f"{ideal}slack-dynamic{suffix}", policy=policy)

    def baseline(self, bench, config: MachineConfig,
                 input_name: str = DEFAULT_INPUT) -> RunStats:
        """Singleton (no mini-graphs) timing run."""
        bench = self._bench(bench)
        params = self.baseline_params(bench.name, config, input_name)

        def compute() -> RunStats:
            core, finalize = self.baseline_prepared(bench, config,
                                                    input_name)
            return finalize(core.run())

        return self.store.get_or_compute("baseline", params, compute)

    def slack_profile(self, bench, config: MachineConfig,
                      input_name: str = DEFAULT_INPUT,
                      global_slack: bool = False) -> SlackProfile:
        """Self- or cross-trained slack profile (singleton profiling run).

        With ``global_slack`` the profile's slack field holds *global*
        slack (see :mod:`repro.analysis.global_slack`) — the §4.3
        alternative the paper argues against.
        """
        bench = self._bench(bench)
        params = self.profile_params(bench.name, config, input_name,
                                     global_slack)

        def compute() -> SlackProfile:
            core, finalize = self.profile_prepared(bench, config, input_name,
                                                   global_slack=global_slack)
            return finalize(core.run())

        return self.store.get_or_compute("profile", params, compute)

    def plan(self, bench, selector: Selector,
             input_name: str = DEFAULT_INPUT,
             profile_config: Optional[MachineConfig] = None,
             profile_input: Optional[str] = None,
             global_slack: bool = False) -> MiniGraphPlan:
        """Mini-graph selection for a benchmark under one selector.

        Template frequencies and (for slack selectors) the slack profile
        come from the *profiling* run: by default the same input on the
        reduced machine ("self-trained", §5.5); pass ``profile_config`` /
        ``profile_input`` to cross-train.
        """
        bench = self._bench(bench)
        profile_input = profile_input or input_name
        if profile_config is None:
            profile_config = config_by_name("reduced")
        params = self.plan_params(bench.name, selector.spec(), input_name,
                                  profile_config, profile_input,
                                  global_slack)

        def compute() -> MiniGraphPlan:
            profile = None
            if selector.needs_profile:
                profile = self.slack_profile(bench, profile_config,
                                             profile_input,
                                             global_slack=global_slack)
            freq_trace = self.trace(bench, profile_input)
            freq_counts = freq_trace.dynamic_count_of()
            program = bench.program(input_name)
            if profile_input != input_name:
                # Cross-input training: programs are rebuilt per input but
                # share static code structure only if the builder emits the
                # same instruction sequence; candidate enumeration runs on
                # the target program with frequencies from the profile run.
                freq_counts = self._align_counts(program, freq_counts)
            candidates = self.candidates(bench, input_name)
            sites = self._hoisted_sites(bench.name, input_name,
                                        profile_input, candidates,
                                        freq_counts)
            return make_plan(
                program, freq_counts, selector, profile=profile,
                budget=self.budget, max_size=self.max_mg_size,
                candidates=candidates, sites=sites)

        return self.store.get_or_compute("plan", params, compute)

    def _hoisted_sites(self, bench_name: str, input_name: str,
                       profile_input: str, candidates, freq_counts):
        """Template sites shared across the per-selector plan loop.

        Enumeration and ``build_templates`` are selector-independent, so
        an experiment matrix that plans the same (bench, input) under
        many selectors reuses one grouping pass. Safe to share: folds
        reassign the per-site scratch pcs before reading them, and
        pickled sites normalize those pcs (``MGSite.__getstate__``), so
        plans built from reused sites are bit-identical to fresh ones.
        """
        key = (bench_name, input_name, profile_input, self.max_mg_size)
        hit = self._sites_memo.get(key)
        if hit is not None:
            return hit
        templates = build_templates(candidates, freq_counts)
        sites = [site for template in templates for site in template.sites]
        self._sites_memo[key] = sites
        return sites

    @staticmethod
    def _align_counts(program, counts: List[int]) -> List[int]:
        """Pad/truncate profile counts to the target program length."""
        if len(counts) < len(program):
            return counts + [0] * (len(program) - len(counts))
        return counts[:len(program)]

    def run_selector(self, bench, selector: Selector, config: MachineConfig,
                     input_name: str = DEFAULT_INPUT,
                     profile_config: Optional[MachineConfig] = None,
                     profile_input: Optional[str] = None,
                     global_slack: bool = False,
                     label: Optional[str] = None) -> SelectorRun:
        """Full pipeline for one (program, selector, machine) point,
        memoized through the store."""
        bench = self._bench(bench)
        # Key on the *resolved* profiling parameters (the same defaults
        # plan() applies) so an explicit profile_config=reduced_config()
        # and the default share one artifact.
        resolved_profile = profile_config if profile_config is not None \
            else config_by_name("reduced")
        params = self.run_params(bench.name, selector.spec(), config,
                                 input_name, resolved_profile,
                                 profile_input or input_name,
                                 global_slack, label)

        def compute() -> SelectorRun:
            core, finalize = self.selector_prepared(
                bench, selector, config, input_name=input_name,
                profile_config=profile_config, profile_input=profile_input,
                global_slack=global_slack, label=label)
            return finalize(core.run())

        return self.store.get_or_compute("run", params, compute)

    def run_slack_dynamic(self, bench, config: MachineConfig,
                          mode: str = "full",
                          outlining_penalty: bool = True,
                          input_name: str = DEFAULT_INPUT,
                          **policy_kwargs) -> SelectorRun:
        """Slack-Dynamic: Struct-All pool + run-time disabling policy."""
        bench = self._bench(bench)
        params = self.dynamic_params(bench.name, config, input_name, mode,
                                     outlining_penalty, policy_kwargs)

        def compute() -> SelectorRun:
            core, finalize = self.dynamic_prepared(
                bench, config, mode, outlining_penalty, input_name,
                **policy_kwargs)
            return finalize(core.run())

        return self.store.get_or_compute("run-dynamic", params, compute)
