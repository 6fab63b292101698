"""Cycle-level out-of-order superscalar pipeline model (Table 1 machines)."""

from .activity import ActivityCounters, amplification_report
from .branch import BranchUnit, BranchTargetBuffer, DirectionPredictor, \
    ReturnAddressStack
from .caches import Cache, MemoryHierarchy, Tlb
from .config import (
    CacheConfig, MachineConfig, NAMED_CONFIGS, config_by_name,
    cross_2way_config, cross_8way_config, cross_dmem4_config, full_config,
    reduced_config,
)
from .core import OoOCore, SimulationDeadlock
from .prefetch import NextLinePrefetcher, StridePrefetcher
from .stats import RunStats
from .storesets import StoreSets

__all__ = [
    "ActivityCounters",
    "BranchTargetBuffer",
    "BranchUnit",
    "Cache",
    "CacheConfig",
    "DirectionPredictor",
    "MachineConfig",
    "MemoryHierarchy",
    "NAMED_CONFIGS",
    "NextLinePrefetcher",
    "OoOCore",
    "ReturnAddressStack",
    "RunStats",
    "SimulationDeadlock",
    "StoreSets",
    "StridePrefetcher",
    "Tlb",
    "amplification_report",
    "config_by_name",
    "cross_2way_config",
    "cross_8way_config",
    "cross_dmem4_config",
    "full_config",
    "reduced_config",
]
