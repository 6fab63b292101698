"""The paper's evaluation (§3 and §5), one declaration per figure.

Each S-curve figure is a :class:`Figure`: its title, its groups in
render order, each group's :class:`Curve`\\ s, and a notes function
(crossovers, headline means, cross-training gaps). A curve is a label
and the grid :class:`~repro.exec.grid.Point` it reads for one program;
it plots that run's dynamic coverage, or its IPC relative to the
program's full-machine baseline. Calling a figure reads each distinct
point once, through :func:`~repro.exec.grid.point_result`, and
:func:`grid_points` derives the figure's DAG from the same declaration,
so a figure cannot read a point its grid did not schedule. Adding a
figure is one declaration in :data:`EXPERIMENTS`.

A figure returns an :class:`ExperimentResult` whose ``render()`` prints
the same rows/series the paper reports (S-curves with means/medians).
Absolute numbers differ from the paper — the substrate is a different
simulator and workload population — but the *shapes* (selector
ordering, crossovers, who compensates for the reduced machine) are the
reproduction targets; see EXPERIMENTS.md.

Run from the command line::

    python -m repro experiments fig6 --suites spec media --limit 10
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..exec.grid import (
    Point, baseline_point, dynamic_point, point_result, selector_point,
)
from ..minigraph.selectors import (
    SlackProfileSelector, StructAll, StructBounded, StructNone,
)
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


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Curve:
    """One S-curve: its label and the point it reads for a program.

    A coverage curve plots the run's dynamic coverage; any other plots
    its IPC relative to the program's full-machine baseline.
    """

    label: str
    point: Callable[[str], Point]
    coverage: bool = False


def _no_notes(result: ExperimentResult) -> List[str]:
    return []


@dataclass(frozen=True)
class Figure:
    """One S-curve figure: groups of curves in render order, plus the
    notes drawn from the finished curves."""

    title: str
    groups: Sequence[Tuple[str, Sequence[Curve]]]
    notes: Callable[[ExperimentResult], List[str]] = _no_notes

    def __call__(self, runner: Runner, benches) -> ExperimentResult:
        """Read the figure over ``benches``, each distinct point once."""
        names = [bench.name for bench in benches]
        runs: Dict[Point, Any] = {}

        def read(point: Point):
            if point not in runs:
                runs[point] = point_result(runner, point)
            return runs[point]

        full = {name: read(baseline_point(name, "full")).ipc
                for name in names}

        def values(curve: Curve) -> Dict[str, float]:
            if curve.coverage:
                return {name: read(curve.point(name)).coverage
                        for name in names}
            return relative({name: read(curve.point(name)).ipc
                             for name in names}, full)

        result = ExperimentResult(self.title)
        for group, curves in self.groups:
            result.groups[group] = [SCurve(curve.label, values(curve))
                                    for curve in curves]
        result.notes.extend(self.notes(result))
        return result

    def points(self, benches) -> List[Point]:
        """The figure's grid, deduplicated, in scheduling order.

        Every program's full-machine baseline first; then two blocks, in
        the order the figure first reads them: its static-selector runs
        and its other runs (baselines and Slack-Dynamic). Each block is
        program-major, with curves in declaration order.
        """
        names = [bench.name for bench in benches]
        runs = [curve.point(name) for name in names
                for _, curves in self.groups for curve in curves]
        static_first = bool(runs) and runs[0].kind == "selector"
        runs.sort(key=lambda point: (point.kind == "selector")
                  != static_first)
        return list(dict.fromkeys(
            [baseline_point(name, "full") for name in names] + runs))


# One helper per curve kind: each binds its arguments in its own call,
# so curves built in a comprehension do not share the last selector.

def _no_mg(config: str) -> Curve:
    return Curve("no-mini-graphs", lambda name: baseline_point(name, config))


def _selector(selector, config: str = "reduced", coverage: bool = False,
              label: Optional[str] = None, **training) -> Curve:
    spec = selector.spec()
    return Curve(label or selector.name,
                 lambda name: selector_point(name, spec, config, **training),
                 coverage)


def _dynamic(label: str, config: str = "reduced", coverage: bool = False,
             **policy) -> Curve:
    return Curve(label, lambda name: dynamic_point(name, config, **policy),
                 coverage)


_REDUCED = "performance on reduced (rel. full baseline)"
_FULL = "performance on full (rel. full baseline)"


# Figure 1: headline — Slack-Profile vs the naive selectors on the
# reduced machine.

def _headline(result: ExperimentResult) -> List[str]:
    slack = result.curve(_REDUCED, "slack-profile")
    return [f"slack-profile mean relative performance: {slack.mean:.3f} "
            f"(paper: 1.02)"]


fig1 = Figure("FIG1 headline S-curve", [
    (_REDUCED, [_no_mg("reduced")]
     + [_selector(s) for s in (StructAll(), StructNone(),
                               SlackProfileSelector())]),
], _headline)


# Figure 3: serialization-blind selection — Struct-All vs Struct-None
# on the reduced and full machines.

def _crossover(result: ExperimentResult) -> List[str]:
    crossed = result.curve(_REDUCED, "struct-all").crossover_with(
        result.curve(_REDUCED, "struct-none"))
    return [f"struct-all/struct-none cross on reduced: {crossed}"]


_NAIVE = (StructAll(), StructNone())
fig3 = Figure("FIG3 naive structural selectors", [
    (_REDUCED, [_no_mg("reduced")] + [_selector(s) for s in _NAIVE]),
    (_FULL, [_selector(s, "full") for s in _NAIVE]),
    ("coverage", [_selector(s, coverage=True) for s in _NAIVE]),
], _crossover)


# Figure 6: serialization-aware selection — all five selectors: reduced
# performance, coverage on the reduced machine, full performance.

def _aware(config: str, coverage: bool = False) -> List[Curve]:
    curves = [_selector(s, config, coverage)
              for s in (StructAll(), StructNone(), StructBounded(),
                        SlackProfileSelector())]
    curves.append(_dynamic("slack-dynamic", config, coverage, mode="full",
                           outlining_penalty=True))
    return curves if coverage else [_no_mg(config)] + curves


fig6 = Figure("FIG6 serialization-aware selectors", [
    (_REDUCED, _aware("reduced")),
    ("coverage", _aware("reduced", coverage=True)),
    (_FULL, _aware("full")),
])


# Figure 7: model component breakdowns — Slack-Profile and Slack-Dynamic
# ablations on the reduced machine.

fig7 = Figure("FIG7 model breakdowns", [
    ("slack-profile breakdown (reduced)", [
        _selector(s) for s in (StructAll(), StructNone(),
                               SlackProfileSelector("sial"),
                               SlackProfileSelector("delay"),
                               SlackProfileSelector("full"))]),
    ("slack-dynamic breakdown (reduced)", [
        _dynamic("slack-dynamic", mode="full", outlining_penalty=True),
        _dynamic("ideal-slack-dynamic", mode="full",
                 outlining_penalty=False),
        _dynamic("ideal-slack-dynamic-delay", mode="delay",
                 outlining_penalty=False),
        _dynamic("ideal-slack-dynamic-sial", mode="sial",
                 outlining_penalty=False)]),
])


# Figure 9: slack-profile robustness to the training machine (top) and
# the training input (bottom).

def _machine_gaps(result: ExperimentResult) -> List[str]:
    self_curve, *rest = next(iter(result.groups.values()))
    return [f"{curve.label}: |mean - self| = "
            f"{abs(curve.mean - self_curve.mean):.3f}" for curve in rest]


fig9_machines = Figure("FIG9 robustness to machine configuration", [
    ("slack-profile perf on reduced, by training machine", [
        _selector(SlackProfileSelector(), label=label, profile_config=trainer)
        for label, trainer in (("self (reduced)", "reduced"),
                               ("cross 2-way", "cross-2way"),
                               ("cross 8-way", "cross-8way"),
                               ("cross dmem/4", "cross-dmem4"))]),
], _machine_gaps)


def _input_gap(result: ExperimentResult) -> List[str]:
    self_curve, cross = next(iter(result.groups.values()))
    return [f"cross-input |mean - self| = "
            f"{abs(cross.mean - self_curve.mean):.3f} (paper: <2% absolute)"]


fig9_inputs = Figure("FIG9 robustness to input data sets", [
    ("slack-profile perf on reduced, by training input", [
        _selector(SlackProfileSelector(), label=label,
                  profile_input=profile_input)
        for label, profile_input in (("self (train)", "train"),
                                     ("cross (ref)", "ref"))]),
], _input_gap)


# ---------------------------------------------------------------------------
# Figure 8: exhaustive limit study (delegates to repro.analysis)
# ---------------------------------------------------------------------------

def fig8(runner: Runner, benches) -> ExperimentResult:
    """Exhaustive 1024-subset limit study on the ADPCM coder (§5.4).

    The benchmark population argument is unused — the study is defined on
    one short-running program, as in the paper. Parallelized over chunks
    of subset masks when the runner carries ``jobs > 1``.
    """
    from ..analysis.limit_study import run_limit_study
    study = run_limit_study(runner, jobs=runner.jobs)
    result = ExperimentResult("FIG8 limit study (adpcm)")
    result.notes.append(study.render())
    return result


EXPERIMENTS: Dict[str, Callable[[Runner, Sequence], ExperimentResult]] = {
    "fig1": fig1,
    "fig3": fig3,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9-machines": fig9_machines,
    "fig9-inputs": fig9_inputs,
}


def grid_points(name: str, benches) -> List[Point]:
    """The points behind one experiment (:meth:`Figure.points`); none
    for Figure 8, whose limit study schedules its own subset tasks."""
    figure = EXPERIMENTS[name]
    return figure.points(benches) if isinstance(figure, Figure) else []


if __name__ == "__main__":
    from ..__main__ import main
    sys.exit(main(["experiments", *sys.argv[1:]]))
