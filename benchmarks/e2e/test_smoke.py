"""Smoke test: a tiny run of every workload reports exactly the metric
names BENCHMARK.json declares, untraced and traced.

Three programs and a 16-subset Figure 8 sweep keep it to about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_declared_metrics(tmp_path, trace):
    out = tmp_path / "runs.json"
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--seed", "1",
         "--seconds", "0", "--programs", "3", "--subset-cap", "16",
         "--trace", str(trace), "--trace-out", str(tmp_path / "t.jsonl"),
         "--out", str(out)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    declared = set(run.declared_metrics(bool(trace)))
    records = json.loads(out.read_text())["runs"]
    assert [record["workload"] for record in records] == list(run.WORKLOADS)
    for record in records:
        assert set(record["metrics"]) == declared, record["workload"]
    if trace:
        from repro.obs.telemetry import validate_file
        for name in run.WORKLOADS:
            assert validate_file(tmp_path / f"t-{name}.jsonl")["spans"] > 0
