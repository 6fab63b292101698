"""Shared-memory trace transport: round-trip fidelity, cleanup, fallback.

The parent publishes functional-trace columns into
``multiprocessing.shared_memory`` segments (:mod:`repro.exec.shm`);
workers attach them zero-copy instead of unpickling the disk artifact.
These tests pin the three contracts that make that safe: the rehydrated
trace is indistinguishable from the original (same records, same packed
columns, same timing results), segments never outlive the run — even
when a worker is killed mid-flight — and every failure path degrades
silently to the ordinary pickle-through-the-store transport.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exec.dag import Scheduler, Task
from repro.exec.grid import (
    baseline_point, build_tasks, publish_point_traces, run_points,
    selector_point,
)
from repro.exec.shm import ShmRegistry, attach_trace
from repro.exec.store import ArtifactStore
from repro.harness.runner import Runner
from repro.minigraph.selectors import StructAll
from repro.minigraph.transform import fold_trace
from repro.pipeline.config import reduced_config
from repro.pipeline.core import OoOCore


needs_dev_shm = pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                                   reason="POSIX shared memory in /dev/shm")


def _segment_exists(name: str) -> bool:
    # Look, don't attach: attaching would register the name with this
    # process's resource tracker.
    return os.path.exists(os.path.join("/dev/shm", name.lstrip("/")))


# -- task bodies (module-level: pickled into pool workers) --------------------

def t_attached_len(descriptor):
    """Attach the shared trace and report its length."""
    trace = attach_trace(descriptor)
    assert trace is not None
    return len(trace.records)


def t_kill_attached(descriptor, sentinel):
    """Attach the shared trace, then die hard on the first invocation."""
    trace = attach_trace(descriptor)
    assert trace is not None
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as handle:
            handle.write("seen")
        os._exit(17)  # mid-flight death: segment still attached
    return len(trace.records)


# -- round-trip fidelity ------------------------------------------------------

def test_publish_attach_roundtrip(runner):
    trace = runner.trace("crc32")
    registry = ShmRegistry()
    descriptor = registry.publish(trace, "crc32", "train", runner.max_insts)
    assert descriptor is not None
    try:
        rehydrated = attach_trace(descriptor)
        assert rehydrated is not None
        assert len(rehydrated.records) == len(trace.records)
        assert rehydrated.input_name == trace.input_name
        assert rehydrated.dynamic_count_of() == trace.dynamic_count_of()
        original, shared = trace.packed(), rehydrated.packed()
        for column in ("pc", "op", "opclass", "latency", "rd", "addr",
                       "next_pc", "srcs", "srcs_start", "kind", "taken"):
            assert list(getattr(shared, column)) == \
                list(getattr(original, column)), column
        for a, b in zip(trace.records, rehydrated.records):
            assert (a.pc, a.srcs, a.taken, a.next_pc) == \
                (b.pc, b.srcs, b.taken, b.next_pc)
        # Attach is memoized per process by segment name.
        assert attach_trace(descriptor) is rehydrated
    finally:
        registry.release_all()


def test_rehydrated_trace_times_identically(runner):
    """The timing core (compiled or Python) cannot tell the columns are
    memory-mapped: same stats, cycle for cycle."""
    trace = runner.trace("adpcm")
    registry = ShmRegistry()
    descriptor = registry.publish(trace, "adpcm", "train", runner.max_insts)
    assert descriptor is not None
    try:
        rehydrated = attach_trace(descriptor)
        original = OoOCore(reduced_config(), trace.packed(),
                           warm_caches=True).run()
        shared = OoOCore(reduced_config(), rehydrated.packed(),
                         warm_caches=True).run()
        assert (original.cycles, original.ipc, original.replays) == \
            (shared.cycles, shared.ipc, shared.replays)
    finally:
        registry.release_all()


def test_folded_traces_are_not_published(runner):
    """Handle records carry object state the column layout cannot ship."""
    plan = runner.plan("crc32", StructAll())
    trace = runner.trace("crc32")
    folded = fold_trace(trace, plan)
    from repro.isa.interp import Trace
    fake = Trace(trace.program, list(folded), input_name="train")
    registry = ShmRegistry()
    assert registry.publish(fake, "crc32", "train",
                            runner.max_insts) is None
    assert len(registry) == 0


# -- lifecycle ----------------------------------------------------------------

def test_refcounted_release(runner):
    trace = runner.trace("crc32")
    registry = ShmRegistry()
    first = registry.publish(trace, "crc32", "train", runner.max_insts)
    second = registry.publish(trace, "crc32", "train", runner.max_insts)
    assert first is second  # deduplicated
    assert len(registry) == 1
    registry.release(first)
    assert _segment_exists(first["segment"])  # one reference left
    registry.release(first)
    assert len(registry) == 0
    assert not _segment_exists(first["segment"])


def test_attach_after_release_falls_back(runner):
    trace = runner.trace("adpcm")
    registry = ShmRegistry()
    descriptor = registry.publish(trace, "adpcm", "train", runner.max_insts)
    registry.release_all()
    # Fresh name so the per-process attach memo cannot mask the miss.
    stale = dict(descriptor, segment=descriptor["segment"] + "x")
    assert attach_trace(stale) is None


@needs_dev_shm
def test_worker_death_leaves_no_segments(tmp_path, runner):
    """A worker killed mid-flight must not leak the segment: the parent
    owns unlink, the run degrades to serial, and the survivor retry
    (attaching in-process) still completes."""
    trace = runner.trace("crc32")
    registry = ShmRegistry()
    descriptor = registry.publish(trace, "crc32", "train", runner.max_insts)
    assert descriptor is not None
    sentinel = str(tmp_path / "seen")
    tasks = [Task(id="killer", fn=t_kill_attached,
                  args=(descriptor, sentinel)),
             Task(id="steady", fn=t_attached_len, args=(descriptor,)),
             Task(id="child", fn=t_attached_len, args=(descriptor,),
                  deps=("killer",))]
    try:
        report = Scheduler(jobs=2).run(tasks)
    finally:
        registry.release_all()
    assert report.degraded  # the pool died; the rest ran serially
    assert report.results["killer"] == len(trace.records)
    assert report.results["steady"] == len(trace.records)
    assert report.results["child"] == len(trace.records)
    assert not _segment_exists(descriptor["segment"])


# -- scheduler integration ----------------------------------------------------

def _shm_points():
    points = []
    for bench in ("crc32", "adpcm"):
        points.append(baseline_point(bench, "reduced"))
        points.append(selector_point(bench, StructAll(), "reduced"))
    return points


def test_build_tasks_threads_descriptors_into_specs(tmp_path):
    runner = Runner(store=ArtifactStore(tmp_path / "cache"))
    for bench in ("crc32", "adpcm"):
        runner.trace(bench)
    registry = ShmRegistry()
    try:
        table = publish_point_traces(runner, _shm_points(), registry)
        assert set(table) == {("crc32", "train"), ("adpcm", "train")}
        tasks = build_tasks(_shm_points(), runner, shm_traces=table)
        specs = [task.args[0] for task in tasks]
        assert all(spec.get("shm_traces") for spec in specs)
        for spec in specs:
            for desc in spec["shm_traces"]:
                assert desc["bench"] == spec["bench"]
    finally:
        registry.release_all()


@needs_dev_shm
def test_parallel_run_over_shm_matches_serial(tmp_path):
    """run_points with prewarmed (published) traces must produce the
    same artifacts as a fresh serial runner, and unlink every segment."""
    published = {}
    original_publish = ShmRegistry.publish

    def spying_publish(self, trace, bench, input_name, max_insts):
        descriptor = original_publish(self, trace, bench, input_name,
                                      max_insts)
        if descriptor is not None:
            published[descriptor["segment"]] = descriptor
        return descriptor

    ShmRegistry.publish = spying_publish
    try:
        parallel = Runner(store=ArtifactStore(tmp_path / "par"))
        for bench in ("crc32", "adpcm"):
            parallel.trace(bench)  # prewarm: makes the traces publishable
        report = run_points(parallel, _shm_points(), jobs=2,
                            raise_on_failure=True)
    finally:
        ShmRegistry.publish = original_publish
    assert not report.failures
    assert published, "no segments were published for a warmed store"
    for name in published:
        assert not _segment_exists(name), f"leaked segment {name}"

    serial = Runner(store=ArtifactStore(tmp_path / "ser"))
    for bench in ("crc32", "adpcm"):
        assert parallel.baseline(bench, reduced_config()).ipc == \
            serial.baseline(bench, reduced_config()).ipc
        assert parallel.run_selector(bench, StructAll(),
                                     reduced_config()).ipc == \
            serial.run_selector(bench, StructAll(), reduced_config()).ipc


# -- resource tracker ---------------------------------------------------------

_CONCURRENT_ATTACH = """
import json, multiprocessing, sys
sys.path.insert(0, {src!r})
from repro.exec.shm import ShmRegistry, attach_trace
from repro.harness.runner import Runner


def attach(barrier, descriptor, queue):
    barrier.wait()
    trace = attach_trace(descriptor)
    queue.put(None if trace is None else len(trace.records))


if __name__ == "__main__":
    ctx = multiprocessing.get_context("fork")
    trace = Runner(max_insts=5000).trace("crc32")
    registry = ShmRegistry()
    segments, queue, lengths = [], ctx.Queue(), []
    for round_ in range({rounds}):
        # A distinct max_insts per round: one fresh segment each.
        descriptor = registry.publish(trace, "crc32", "train",
                                      5000 + round_)
        segments.append(descriptor["segment"])
        barrier = ctx.Barrier({procs})
        procs = [ctx.Process(target=attach,
                             args=(barrier, descriptor, queue))
                 for _ in range({procs})]
        for proc in procs:
            proc.start()
        lengths += [queue.get(timeout=60) for _ in procs]
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0, proc.exitcode
    registry.release_all()
    print(json.dumps({{"segments": segments,
                      "expected": len(trace.records),
                      "lengths": lengths}}))
"""


@needs_dev_shm
def test_concurrent_attach_keeps_the_resource_tracker_quiet():
    """Forked processes attaching one segment at the same moment share
    the parent's resource tracker. Their attach registrations must not
    unbalance it: no tracker traceback on stderr, and ``release_all``
    leaves nothing in ``/dev/shm``."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    script = _CONCURRENT_ATTACH.format(src=src, rounds=4, procs=6)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["lengths"] == [doc["expected"]] * (4 * 6)
    for name in doc["segments"]:
        assert not _segment_exists(name), f"leaked segment {name}"
