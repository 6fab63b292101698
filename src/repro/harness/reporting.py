"""Result persistence and report formatting.

Experiment drivers return in-memory :class:`ExperimentResult` objects;
this module serializes them (JSON) so that long regenerations can be
archived and diffed, and renders Markdown tables for EXPERIMENTS.md-style
records.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from .experiments import ExperimentResult
from .scurve import SCurve


def experiment_to_dict(result: ExperimentResult) -> Dict:
    """A JSON-serializable snapshot of an experiment's curves."""
    return {
        "name": result.name,
        "notes": list(result.notes),
        "groups": {
            group: [
                {
                    "label": curve.label,
                    "by_program": dict(sorted(curve.by_program.items())),
                    "mean": curve.mean,
                    "median": curve.median,
                    "min": curve.minimum,
                    "max": curve.maximum,
                }
                for curve in curves
            ]
            for group, curves in result.groups.items()
        },
    }


def experiment_from_dict(payload: Dict) -> ExperimentResult:
    """Inverse of :func:`experiment_to_dict` (summaries are recomputed).

    Round-trip property: ``experiment_from_dict(experiment_to_dict(r))``
    preserves name, notes, group order, curve labels, and per-program
    values; derived statistics (mean/median/min/max) are recomputed from
    the values and will match the archived ones, which are retained in
    the JSON purely for human diffing.
    """
    result = ExperimentResult(payload["name"])
    result.notes = list(payload.get("notes", ()))
    for group, curves in payload.get("groups", {}).items():
        result.groups[group] = [
            SCurve(entry["label"], entry["by_program"]) for entry in curves
        ]
    return result


def save_results(results: List[ExperimentResult],
                 path: Union[str, Path]) -> Path:
    """Write experiments to a JSON archive; returns the path."""
    path = Path(path)
    payload = [experiment_to_dict(result) for result in results]
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def load_results(path: Union[str, Path]) -> List[ExperimentResult]:
    """Read experiments back from a JSON archive."""
    payload = json.loads(Path(path).read_text())
    return [experiment_from_dict(entry) for entry in payload]


def load_experiment(path: Union[str, Path],
                    name: Optional[str] = None) -> ExperimentResult:
    """One experiment from an archive, by name (or the only one).

    Lets archived regenerations (``--save-json``) be reloaded and diffed
    against fresh runs without indexing into the full list.
    """
    results = load_results(path)
    if name is None:
        if len(results) != 1:
            raise ValueError(
                f"{path} holds {len(results)} experiments; pass name=")
        return results[0]
    for result in results:
        if result.name == name:
            return result
    known = [result.name for result in results]
    raise KeyError(f"no experiment named {name!r} in {path} "
                   f"(found {known})")


def markdown_table(result: ExperimentResult, group: str) -> str:
    """A Markdown summary table (mean/median/min/max per curve)."""
    curves = result.groups[group]
    lines = [f"**{result.name} — {group}**", "",
             "| curve | mean | median | min | max | n |",
             "|---|---|---|---|---|---|"]
    for curve in curves:
        lines.append(
            f"| {curve.label} | {curve.mean:.3f} | {curve.median:.3f} | "
            f"{curve.minimum:.3f} | {curve.maximum:.3f} | {len(curve)} |")
    return "\n".join(lines)
