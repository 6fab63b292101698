"""Declarative search spaces over selectors × machine configurations.

A space is a JSON-friendly document with three axes::

    {
      "benchmarks": ["crc32", "dijkstra"],
      "input": "train",
      "selectors": [
        {"kind": "struct-all"},
        {"kind": "read-port",
         "port_budget": [0, 1, 2], "pressure_weight": [1.0, 3.0]}
      ],
      "configs": ["full", "reduced"],
      "config_grid": {"base": "reduced", "width": [2, 3]}
    }

Selector entries name a registered family (``kind``) and, optionally,
per-hyperparameter value lists; the entry expands to the cartesian
product of its lists (scalars are singleton lists). ``configs`` lists
configuration spec strings accepted by
:func:`repro.pipeline.config.config_by_name` — named configs or
``base@knob=value`` override specs. ``config_grid`` is a convenience
that expands a knob grid over a named base into override specs.

The same document loads from JSON (always) or TOML (Python ≥ 3.11,
where :mod:`tomllib` exists) via :meth:`SearchSpace.from_file`, or is
assembled from CLI flags via :meth:`SearchSpace.from_cli` with
per-family default grids (:data:`DEFAULT_SELECTOR_GRIDS`).

Enumeration order is deterministic — selectors in listed order, each
grid expanded with hyperparameters in sorted-name order and values in
listed order, crossed with configs in listed order — so a trial list is
a pure function of the space and :meth:`SearchSpace.digest` names it
in the tune report.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..minigraph.selectors import SELECTOR_FAMILIES, selector_from_spec
from ..pipeline.config import config_by_name

#: Hyperparameter grids used when a CLI flag (or a spec entry with no
#: explicit grid) names a searchable family bare. Knob-free families
#: expand to their single default selector.
DEFAULT_SELECTOR_GRIDS: Dict[str, Dict[str, List[Any]]] = {
    "read-port": {"port_budget": [0, 1, 2], "pressure_weight": [1.0, 3.0]},
    "slack-profile": {"variant": ["full", "delay", "sial"]},
}

DEFAULT_BENCHMARKS = ("crc32", "dijkstra", "mcf")


def _canonical(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Trial:
    """One point of the search space: a selector spec on a config."""

    selector: Tuple[Tuple[str, Any], ...]   # frozen Selector.spec() items
    config: str                             # config spec string

    @property
    def selector_spec(self) -> Dict[str, Any]:
        return {key: value for key, value in self.selector}

    @property
    def trial_id(self) -> str:
        """Content id: stable across processes, orders, and sessions."""
        doc = {"selector": self.selector_spec, "config": self.config}
        return hashlib.sha256(_canonical(doc).encode()).hexdigest()[:16]

    @property
    def display_name(self) -> str:
        return selector_from_spec(self.selector_spec).display_name

    def to_doc(self) -> Dict[str, Any]:
        return {"selector": self.selector_spec, "config": self.config}


def _freeze_spec(spec: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    return tuple(sorted(spec.items()))


def _expand_selector_entry(entry: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One spec-file selector entry → concrete selector spec dicts."""
    entry = dict(entry)
    kind = entry.pop("kind", None)
    if kind not in SELECTOR_FAMILIES:
        known = ", ".join(sorted(SELECTOR_FAMILIES))
        raise ValueError(f"unknown selector kind {kind!r} in search space "
                         f"(choose from {known})")
    if not entry:
        entry = dict(DEFAULT_SELECTOR_GRIDS.get(kind, {}))
    names = sorted(entry)
    grids = [entry[name] if isinstance(entry[name], list)
             else [entry[name]] for name in names]
    specs = []
    for values in product(*grids):
        spec = {"kind": kind, **dict(zip(names, values))}
        selector_from_spec(spec)   # raises on bad hyperparameters
        specs.append(spec)
    return specs


def _expand_config_grid(grid: Dict[str, Any]) -> List[str]:
    """``{"base": name, knob: [values]}`` → override spec strings."""
    grid = dict(grid)
    base = grid.pop("base", "reduced")
    if not grid:
        return [base]
    names = sorted(grid)
    lists = [grid[name] if isinstance(grid[name], list) else [grid[name]]
             for name in names]
    specs = []
    for values in product(*lists):
        overrides = ",".join(f"{name}={value}"
                             for name, value in zip(names, values))
        specs.append(f"{base}@{overrides}")
    return specs


@dataclass(frozen=True)
class SearchSpace:
    """A validated, enumerable selector × config search space."""

    selectors: Tuple[Tuple[Tuple[str, Any], ...], ...]  # frozen spec items
    configs: Tuple[str, ...]
    benchmarks: Tuple[str, ...] = DEFAULT_BENCHMARKS
    input_name: str = "train"

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "SearchSpace":
        """Validate and normalize a space document (see module doc)."""
        if not isinstance(doc, dict):
            raise ValueError("search space must be a JSON/TOML object")
        unknown = set(doc) - {"selectors", "configs", "config_grid",
                              "benchmarks", "input"}
        if unknown:
            raise ValueError("unknown search-space field(s): "
                             + ", ".join(sorted(unknown)))
        entries = doc.get("selectors") or [{"kind": "struct-all"}]
        specs: List[Dict[str, Any]] = []
        for entry in entries:
            if isinstance(entry, str):
                entry = {"kind": entry}
            specs.extend(_expand_selector_entry(entry))
        configs = [str(c) for c in (doc.get("configs") or [])]
        if doc.get("config_grid"):
            configs.extend(_expand_config_grid(doc["config_grid"]))
        if not configs:
            configs = ["reduced"]
        for config in configs:
            config_by_name(config)   # raises on bad spec strings
        benchmarks = tuple(doc.get("benchmarks") or DEFAULT_BENCHMARKS)
        if not benchmarks:
            raise ValueError("search space lists no benchmarks")
        # Dedup either axis, preserving first-seen order.
        frozen = list(dict.fromkeys(_freeze_spec(s) for s in specs))
        configs = list(dict.fromkeys(configs))
        return cls(selectors=tuple(frozen), configs=tuple(configs),
                   benchmarks=benchmarks,
                   input_name=str(doc.get("input", "train")))

    @classmethod
    def from_file(cls, path) -> "SearchSpace":
        """Load a space from ``.json`` or ``.toml``."""
        path = Path(path)
        text = path.read_text()
        if path.suffix.lower() == ".toml":
            try:
                import tomllib
            except ImportError:
                raise ValueError(
                    f"cannot load {path}: TOML spaces need Python >= 3.11 "
                    "(tomllib); use the JSON form instead") from None
            try:
                doc = tomllib.loads(text)
            except tomllib.TOMLDecodeError as error:
                raise ValueError(f"bad TOML in {path}: {error}") from None
        else:
            try:
                doc = json.loads(text)
            except json.JSONDecodeError as error:
                raise ValueError(f"bad JSON in {path}: {error}") from None
        return cls.from_doc(doc)

    @classmethod
    def from_cli(cls, selectors: Sequence[str], configs: Sequence[str],
                 benchmarks: Optional[Sequence[str]] = None,
                 input_name: str = "train") -> "SearchSpace":
        """Assemble a space from flag values with the default grids."""
        return cls.from_doc({
            "selectors": [{"kind": kind} for kind in selectors],
            "configs": list(configs),
            "benchmarks": list(benchmarks or DEFAULT_BENCHMARKS),
            "input": input_name,
        })

    def to_doc(self) -> Dict[str, Any]:
        return {"selectors": [dict(items) for items in self.selectors],
                "configs": list(self.configs),
                "benchmarks": list(self.benchmarks),
                "input": self.input_name}

    def digest(self) -> str:
        """Content digest of the normalized space document."""
        return hashlib.sha256(_canonical(self.to_doc()).encode()) \
            .hexdigest()[:16]

    def enumerate(self) -> List[Trial]:
        """All trials, deterministically ordered and deduplicated."""
        trials = [Trial(selector=spec, config=config)
                  for spec in self.selectors for config in self.configs]
        seen: Dict[str, Trial] = {}
        for trial in trials:
            seen.setdefault(trial.trial_id, trial)
        return list(seen.values())

    def __len__(self) -> int:
        return len(self.enumerate())
