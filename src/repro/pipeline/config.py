"""Machine configurations (Table 1 of the paper).

Two primary configurations are modelled:

* :func:`full_config` — the fully-provisioned baseline: 4-way
  fetch/issue/commit, 30-entry issue queue, 144 physical registers.
* :func:`reduced_config` — 3-way fetch/issue/commit, 20-entry issue queue,
  120 physical registers, and narrower issue ports.

The robustness study (Figure 9) additionally uses :func:`cross_2way_config`,
:func:`cross_8way_config` and :func:`cross_dmem4_config`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int
    latency: int

    @property
    def n_sets(self) -> int:
        n = self.size_bytes // (self.assoc * self.line_bytes)
        if n <= 0 or n & (n - 1):
            raise ValueError("cache sets must be a positive power of two")
        return n


@dataclass(frozen=True)
class MachineConfig:
    """Complete parameterization of the simulated processor."""

    name: str

    # Widths (fetch = issue = commit width, per Table 1)
    width: int = 4

    # Issue queue / registers / window
    issue_queue: int = 30
    phys_regs: int = 144
    rob: int = 128
    load_queue: int = 48
    store_queue: int = 32

    # Per-class issue ports: simple int, complex, load, store
    ports_simple: int = 4
    ports_complex: int = 1
    ports_load: int = 2
    ports_store: int = 1

    # Pipeline depth (13 stages: 1 predict, 3 I$, 1 decode, 2 rename,
    # 1 schedule, 2 regread, 1 execute, 1 regwrite, 1 commit)
    stages_front: int = 7      # predict + I$ + decode + rename (fetch→rename)
    stages_regread: int = 2    # schedule→execute distance (drives resolve)
    stages_to_commit: int = 2  # regwrite + commit

    # Memory system
    il1: CacheConfig = field(default_factory=lambda: CacheConfig(
        32 * 1024, 2, 32, 3))
    dl1: CacheConfig = field(default_factory=lambda: CacheConfig(
        32 * 1024, 2, 32, 3))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        1024 * 1024, 4, 64, 12))
    mem_latency: int = 200

    # Branch prediction
    bimodal_bits: int = 12      # 4K-entry bimodal
    gshare_bits: int = 12       # 4K-entry gshare
    chooser_bits: int = 12      # 4K-entry chooser (24Kb total as in Table 1)
    btb_entries: int = 2048
    btb_assoc: int = 4
    ras_entries: int = 32

    # Memory dependence prediction
    store_sets: int = 1024

    # Store-to-load forwarding latency
    forward_latency: int = 2

    # Prefetchers (not present on the Table 1 machines; what-if knobs)
    il1_next_line_prefetch: bool = False
    dl1_stride_prefetch: bool = False

    # Mini-graph support
    mg_max_issue: int = 2        # ≤2 mini-graphs issued per cycle
    mg_max_mem_issue: int = 1    # of which ≤1 contains a memory op
    mg_alu_pipelines: int = 2    # number of ALU pipelines
    mg_alu_pipeline_depth: int = 4
    mgt_entries: int = 512

    def scaled(self, **overrides) -> "MachineConfig":
        """A copy with the given fields overridden."""
        return replace(self, **overrides)

    def summary(self) -> Dict[str, int]:
        """Key sizing knobs, for reports."""
        return {
            "width": self.width,
            "issue_queue": self.issue_queue,
            "phys_regs": self.phys_regs,
            "rob": self.rob,
            "ports_simple": self.ports_simple,
            "ports_load": self.ports_load,
        }


def full_config() -> MachineConfig:
    """Fully-provisioned baseline processor (Table 1)."""
    return MachineConfig(name="full")


def reduced_config() -> MachineConfig:
    """Reduced processor: 3-way, 20-entry IQ, 120 registers (Table 1)."""
    return MachineConfig(
        name="reduced", width=3, issue_queue=20, phys_regs=120,
        ports_simple=3, ports_complex=1, ports_load=1, ports_store=1)


def cross_2way_config() -> MachineConfig:
    """Further-reduced 2-way machine used for profile cross-training."""
    return MachineConfig(
        name="cross-2way", width=2, issue_queue=14, phys_regs=100,
        ports_simple=2, ports_complex=1, ports_load=1, ports_store=1)


def cross_8way_config() -> MachineConfig:
    """8-way machine used for profile cross-training."""
    return MachineConfig(
        name="cross-8way", width=8, issue_queue=60, phys_regs=224,
        ports_simple=8, ports_complex=2, ports_load=4, ports_store=2)


def cross_dmem4_config() -> MachineConfig:
    """Reduced machine with quarter-size data memory hierarchy (8KB D$, 256KB L2)."""
    base = reduced_config()
    return base.scaled(
        name="cross-dmem4",
        dl1=CacheConfig(8 * 1024, 2, 32, 3),
        l2=CacheConfig(256 * 1024, 4, 64, 12))


NAMED_CONFIGS = {
    "full": full_config,
    "reduced": reduced_config,
    "cross-2way": cross_2way_config,
    "cross-8way": cross_8way_config,
    "cross-dmem4": cross_dmem4_config,
}


#: Scalar knobs an override spec may set (``name@knob=value,...``).
#: Cache geometries are deliberately excluded: they are structured
#: objects with power-of-two constraints, not flat scalars.
_OVERRIDE_FIELDS = {
    f.name: f.type for f in MachineConfig.__dataclass_fields__.values()
    if f.name != "name" and f.type in ("int", "bool", int, bool)
}


def _coerce_override(name: str, text: str):
    """Parse one ``knob=value`` right-hand side to the field's type."""
    kind = _OVERRIDE_FIELDS[name]
    if kind in ("bool", bool):
        lowered = text.strip().lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"bad value {text!r} for boolean knob {name!r}")
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"bad value {text!r} for integer knob {name!r}") from None


def config_by_name(name: str) -> MachineConfig:
    """Resolve a configuration spec string to a :class:`MachineConfig`.

    Accepts the named paper configurations (``full``, ``reduced``, ...)
    and *override specs* of the form ``base@knob=value,knob=value`` —
    e.g. ``reduced@width=2,phys_regs=100`` — applying scalar overrides
    to a named base via :meth:`MachineConfig.scaled`. The resulting
    config's ``name`` is the full spec string, so override configs
    survive any round-trip that serializes configs by name (grid
    points, worker processes, tune reports) and never alias a named config
    in store keys.

    The autotuner (:mod:`repro.tune`) leans on this to search
    MachineConfig knobs without inventing a second wire format.
    """
    base_name, sep, overrides_text = name.partition("@")
    try:
        base = NAMED_CONFIGS[base_name]()
    except KeyError:
        raise ValueError(
            f"unknown machine configuration {base_name!r}") from None
    if not sep:
        return base
    overrides = {}
    for item in overrides_text.split(","):
        knob, eq, text = item.partition("=")
        knob = knob.strip()
        if not eq or not knob:
            raise ValueError(
                f"bad config override {item!r} in {name!r} "
                "(expected knob=value)")
        if knob not in _OVERRIDE_FIELDS:
            raise ValueError(
                f"unknown config knob {knob!r} in {name!r} (choose from "
                f"{', '.join(sorted(_OVERRIDE_FIELDS))})")
        overrides[knob] = _coerce_override(knob, text)
    if not overrides:
        raise ValueError(f"empty config override list in {name!r}")
    return base.scaled(name=name, **overrides)
