"""A run imports only the code it runs.

A fresh interpreter imports what ``benchmarks/e2e/workload.py`` imports
and sets up as it does before its first task. The pool machinery, the
modules no run path calls and the benchmark builder modules must not
be loaded yet; building one program then imports its builder module
and nothing else.
"""

import json
import subprocess
import sys

from repro.pipeline import ckern

_CHILD = """
import argparse, contextlib, hashlib, json, sys, time
from repro.analysis import limit_study
from repro.exec import ArtifactStore
from repro.exec.grid import parse_jobs, run_points
from repro.harness import Runner
from repro.harness.experiments import EXPERIMENTS, grid_points
from repro.pipeline import ckern
from repro.workloads import all_benchmarks, benchmark
ckern.available()
all_benchmarks()
ready = set(sys.modules)
benchmark("crc32").program("train")
print(json.dumps({"ready": sorted(ready),
                  "added": sorted(set(sys.modules) - ready)}))
"""

#: Loaded by no workload before its first task.
_UNUSED = ("concurrent.futures", "multiprocessing", "subprocess",
           "repro.pipeline.pipetrace", "repro.minigraph.schedule",
           "repro.analysis.report", "repro.analysis.global_slack")

_BUILDERS = tuple(f"repro.workloads.{name}" for name in (
    "comm", "embedded", "extra", "extra2", "generator", "media", "spec"))


def test_setup_imports_no_pool_unused_module_or_builder():
    ckern.available()   # a kernel built here is cached for the child
    child = subprocess.run([sys.executable, "-c", _CHILD],
                           capture_output=True, text=True, timeout=120,
                           check=True)
    modules = json.loads(child.stdout)
    loaded = [name for name in _UNUSED + _BUILDERS
              if name in modules["ready"]]
    assert not loaded, loaded
    assert modules["added"] == ["repro.workloads.comm"]
