"""Benchmark programs: four suite families plus synthetic workloads.

One table, :data:`repro.workloads.suite.TABLE`, lists every in-tree
benchmark; a builder module (``comm``, ``spec``, ``generator``, ...) is
imported when the first of its programs is built.
"""

from .suite import SUITES, Benchmark, all_benchmarks, benchmark, register

__all__ = ["SUITES", "Benchmark", "all_benchmarks", "benchmark", "register"]
