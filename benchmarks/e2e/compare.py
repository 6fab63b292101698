"""Compare benchmark runs of a parent commit and a change, metric by metric.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py PARENT/*.json CHANGE/*.json

Each argument is a ``run.py --out`` file or a directory of them. Files
are grouped by directory: the first directory named holds the parent's
runs, the second the change's. Each run contributes one value (its
median over processes) per metric. Runs pair up in seed order, so run
both sides on the same seeds, alternating which side runs first.

For each workload and metric this prints each side's median and
quartiles, then a verdict against the bound BENCHMARK.json fixes:

* ``improved``: the change wins at least 9 of every 10 pairs (ties count
  for neither side) and the medians differ by more than the parent's
  interquartile range;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound, as a share of the parent's median;
* ``unresolved``: either side's interquartile range, as a share of its
  median, is wider than the bound, and not every change run beats every
  parent run;
* ``unchanged``: otherwise.

Per-layer metrics have no bound; they read ``improved``, ``worsened``
(the same rule with the sides swapped) or ``unchanged``. The exit status
is 1 when any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def _wins(parent: Sequence[float], change: Sequence[float],
          better: str) -> bool:
    """The change wins 9 in 10 pairs and the medians differ by more
    than the parent's interquartile range."""
    pairs = list(zip(parent, change))
    wins = sum(_beats(c, p, better) for p, c in pairs)
    q1, p_median, q3 = quartiles(parent)
    c_median = statistics.median(change)
    return bool(pairs) and wins >= 0.9 * len(pairs) \
        and _beats(c_median, p_median, better) \
        and abs(c_median - p_median) > q3 - q1


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: Optional[float]) -> str:
    """The verdict for one metric; ``bound`` None for per-layer ones."""
    if _wins(parent, change, better):
        return "improved"
    if bound is None:
        return "worsened" if _wins(change, parent, better) else "unchanged"
    p_median = statistics.median(parent)
    c_median = statistics.median(change)
    if _beats(p_median, c_median, better) \
            and abs(c_median - p_median) > bound * abs(p_median):
        return "regressed"

    def spread(values: Sequence[float]) -> float:
        q1, median, q3 = quartiles(values)
        return (q3 - q1) / abs(median) if median else 0.0

    dominated = all(_beats(c, p, better) for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not dominated:
        return "unresolved"
    return "unchanged"


def load_side(paths: Sequence[Path]) -> Dict[str, Dict[str, List[float]]]:
    """Workload -> metric -> per-run values, runs in seed order."""
    runs = []
    for path in paths:
        runs.extend(json.loads(path.read_text())["runs"])
    runs.sort(key=lambda run: run["seed"])
    side: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        metrics = side.setdefault(run["workload"], {})
        for name, metric in run["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return side


def group_args(args: Sequence[str]) -> List[List[Path]]:
    """Run files grouped by directory, in the order directories appear."""
    groups: Dict[Path, List[Path]] = {}
    for arg in args:
        path = Path(arg)
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for file in files:
            groups.setdefault(file.resolve().parent, []).append(file)
    return list(groups.values())


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    groups = group_args(args)
    if len(groups) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        print(f"compare.py: need run files from exactly two directories, "
              f"got {len(groups)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {metric["name"]: metric
                for metric in spec["end_to_end"] + spec["per_layer"]}
    parent, change = (load_side(group) for group in groups)
    regressed = False
    print(f"{'workload':13s} {'metric':34s} {'parent median [q1, q3]':>34s}"
          f" {'change median [q1, q3]':>34s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        for name, metric in declared.items():
            p_values = parent[workload].get(name)
            c_values = change[workload].get(name)
            if not p_values or not c_values:
                continue
            result = verdict(p_values, c_values, metric["better"],
                             metric.get("bound"))
            regressed |= result == "regressed"
            cells = []
            for values in (p_values, c_values):
                q1, median, q3 = quartiles(values)
                cells.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"{workload:13s} {name:34s} {cells[0]:>34s} "
                  f"{cells[1]:>34s}  {result} (n={len(p_values)}/"
                  f"{len(c_values)})")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
