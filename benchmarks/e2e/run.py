"""End-to-end benchmark: the wall time of regenerating the paper's figures.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 0                 # every workload
    python3 benchmarks/e2e/run.py --workload cold-static --seed 3 \\
        --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --workload limit-study --trace 1 \\
        --trace-out trace.jsonl                            # per-layer spans

``run.py`` is one process. It builds the compiled kernel and warms the
page cache (both untimed), picks the programs from ``--seed``, then
spawns one workload process (``workload.py``) at a time with a clean
environment and a fresh artifact store, until ``--seconds`` have passed
and at least three have run. Each process is timed from spawn to exit;
its CPU time covers the whole process tree and its peak RSS is sampled
from ``/proc``. Its times are scaled by a host-speed probe run alongside
it (see PROBE_LOOPS), so that a busy host does not read as a slower
program. Metrics are the medians over processes.

Every figure's output is hashed and checked: against the first process
of the run, against ``expected_seed0.json`` for seed 0 at the default
size, and, for ``warm-all``, against the cold pass that filled its
store. A mismatch counts as a failed operation and the exit status is 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json, or with ``--trace 1`` its per-layer metrics.
See README.md in this directory for what each one means.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import spans
from compare import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Build outputs, the kernel cache, stores and temp files of a checkout.
WORK = ROOT / ".bench_build" / "e2e"
EXPECTED = HERE / "expected_seed0.json"
#: The program population with each program's costs, measured alone at
#: the commit that added the benchmark (see README): CPU seconds of one
#: cold-static and one serial cold-dynamic process, scaled to host speed,
#: and the store payload kB each leaves, and both together.
PROGRAMS = HERE / "programs.json"
COSTS = ("cold_static_s", "cold_dynamic_s", "cold_static_kb",
         "cold_dynamic_kb", "all_kb")
SUITES = ("spec", "media", "comm", "embedded", "synth")

#: Programs per sample; with the fixed figure lists this sets how long
#: one cold workload process takes (about 4-6 s on two cores), and so
#: whether every run of every workload fits the time the benchmark has.
DEFAULT_PROGRAMS = 10
#: Processes per run at least, whatever ``--seconds`` says, so a run
#: always reports a median.
MIN_PROCESSES = 3
#: Traced and untraced processes per ``--trace 1`` run at least.
MIN_TRACED = 2
#: A workload process running longer than this is killed and failed.
PROCESS_TIMEOUT_S = 120
#: The host-speed probe: a fixed pure-Python loop whose thread CPU time
#: run.py measures every 25 ms on the vCPU a running workload process
#: is on. On a virtual machine whose vCPUs a busy host deschedules, the
#: guest charges the stolen time to whatever thread was running, so the
#: probe's mean CPU time rises and falls with the workload's. A process's
#: times are scaled by PROBE_REFERENCE_MS over the mean probe during it:
#: seconds on a host where the probe takes half a millisecond.
PROBE_LOOPS = 10_000
PROBE_REFERENCE_MS = 0.5


@dataclass(frozen=True)
class Workload:
    """Figures one workload process regenerates, and how."""

    figures: Sequence[str]
    jobs: str              # experiments --jobs
    warm: bool = False     # against a store a cold pass filled


WORKLOADS = {
    # Every timing point rides the batched kernel; figures share traces,
    # baselines and profiles through the store. No Python cycle loop.
    "cold-static": Workload(("fig1", "fig3", "fig9-machines",
                             "fig9-inputs"), "threads:2"),
    # Slack-Dynamic points pin the Python OoOCore.run loop; the process
    # pool beats threads:2 here.
    "cold-dynamic": Workload(("fig6", "fig7"), "2"),
    # 1025 tiny plan/fold/kernel runs: per-point Python overhead.
    "limit-study": Workload(("fig8",), "2"),
    # All seven figures from a full store: store reads, almost no
    # simulation.
    "warm-all": Workload(("fig1", "fig3", "fig9-machines", "fig9-inputs",
                          "fig6", "fig7", "fig8"), "threads:2", warm=True),
}
COLD_PASS = ("cold-static", "cold-dynamic", "limit-study")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def suite_quotas(population: List[Dict], n: int) -> Dict[str, int]:
    """Programs per suite, proportional to suite size (largest remainder,
    ties broken in SUITES order)."""
    sizes = {suite: sum(1 for p in population if p["suite"] == suite)
             for suite in SUITES}
    exact = {suite: n * size / len(population)
             for suite, size in sizes.items()}
    quotas = {suite: int(share) for suite, share in exact.items()}
    by_remainder = sorted(SUITES, key=lambda s: (quotas[s] - exact[s],
                                                 SUITES.index(s)))
    for suite in by_remainder[:n - sum(quotas.values())]:
        quotas[suite] += 1
    return quotas


def sample_programs(population: List[Dict], seed: int, n: int,
                    draws: int = 4096) -> List[str]:
    """A suite-stratified sample of ``n`` programs, chosen by ``seed``.

    Each suite's quota is drawn one program per stratum of its programs
    ranked by cost, so every sample spans cheap and dear programs. Of
    ``draws`` such samples the one whose totals of every cost in
    :data:`COSTS` are nearest the strata means' totals is kept: seeds
    change which programs run, not how much work a workload does, so
    run-to-run spread measures the system rather than the sample.
    """
    if not 0 < n <= len(population):
        raise ValueError(f"need 1..{len(population)} programs, not {n}")
    rng = random.Random(seed)
    strata: List[List[Dict]] = []
    for suite, quota in suite_quotas(population, n).items():
        if not quota:
            continue
        ranked = sorted((p for p in population if p["suite"] == suite),
                        key=lambda p: (p["cold_static_s"]
                                       + p["cold_dynamic_s"], p["name"]))
        bounds = [len(ranked) * i // quota for i in range(quota + 1)]
        strata.extend(ranked[lo:hi] for lo, hi in zip(bounds, bounds[1:]))
    targets = {cost: sum(statistics.fmean(p[cost] for p in stratum)
                         for stratum in strata) for cost in COSTS}

    def imbalance(pick: List[Dict]) -> float:
        return max(abs(sum(p[cost] for p in pick) - target) / target
                   for cost, target in targets.items())

    best = min(([rng.choice(stratum) for stratum in strata]
                for _ in range(draws)), key=imbalance)
    return sorted(p["name"] for p in best)


# ---------------------------------------------------------------------------
# Workload processes
# ---------------------------------------------------------------------------

def child_env(tmp: Path) -> Dict[str, str]:
    """The environment of a workload process: no REPRO_* overrides, the
    checkout's sources, and caches and temp files inside the checkout."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["XDG_CACHE_HOME"] = str(WORK / "xdg")
    env["TMPDIR"] = str(tmp)
    return env


def _stat(pid) -> Optional[List[str]]:
    """Fields of ``/proc/<pid>/stat`` after the command name (state
    first, so the last CPU is index 36), or None once it has gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _group_members(pgid: int) -> List[int]:
    """Live pids in process group ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        fields = _stat(entry) if entry.isdigit() else None
        if fields and fields[0] != "Z" and int(fields[2]) == pgid:
            pids.append(int(entry))
    return pids


def peak_rss_kb(pid) -> int:
    """Peak resident set (VmHWM) of ``pid`` (or ``"self"``), in kB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def probe_ns() -> int:
    """Thread CPU time of one host-speed probe burst, in ns."""
    start = time.thread_time_ns()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i & 7
    return time.thread_time_ns() - start


class TreeSampler(threading.Thread):
    """Every 25 ms, runs one host-speed probe on the vCPU of a running
    process in a workload's process group. Every 100 ms, samples each
    process's peak RSS (a high-water mark, so sparse samples miss only
    processes that start and end in between) and kills the group past
    its deadline."""

    def __init__(self, pgid: int, deadline: float):
        super().__init__(daemon=True)
        self.pgid = pgid
        self.deadline = deadline
        self.peaks: Dict[int, int] = {}
        self.probes: List[int] = []
        self.killed = False
        self._halt = threading.Event()

    def run(self) -> None:
        members = [self.pgid]
        tick = 0
        while not self._halt.wait(0.025):
            if tick % 4 == 0:
                members = _group_members(self.pgid)
                for pid in members:
                    self.peaks[pid] = max(self.peaks.get(pid, 0),
                                          peak_rss_kb(pid))
                if time.monotonic() > self.deadline and not self.killed:
                    self.killed = True
                    _kill_group(self.pgid)
            tick += 1
            cpus = [int(fields[36]) for fields in map(_stat, members)
                    if fields and fields[0] == "R"]
            if not cpus:
                continue
            try:
                os.sched_setaffinity(0, {cpus[tick % len(cpus)]})
            except OSError:
                continue
            self.probes.append(probe_ns())

    def stop(self) -> None:
        self._halt.set()
        self.join()


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int, grace: float = 2.0) -> None:
    """Wait for what the workload left in its group (the shared-memory
    resource tracker exits once its parent has), then kill the rest."""
    deadline = time.monotonic() + grace
    while _group_members(pgid):
        if time.monotonic() > deadline:
            _kill_group(pgid)
            time.sleep(0.05)
            if not _group_members(pgid):
                break
        time.sleep(0.02)


@dataclass
class Process:
    """One finished workload process, as run.py measured it."""

    status: int
    wall_s: float
    cpu_s: float
    setup_s: float
    peak_rss_mb: float
    probes: List[int] = field(default_factory=list)
    result: Dict = field(default_factory=dict)
    log: str = ""
    store_mb: float = 0.0

    @property
    def speed(self) -> float:
        """Factor scaling this process's times to the reference host (a
        process too short to be probed is taken at reference speed)."""
        reference_ns = PROBE_REFERENCE_MS * 1e6
        return reference_ns / statistics.fmean(self.probes or [reference_ns])


def spawn(args: List[str], env: Dict[str, str], log_path: Path,
          timeout: float = PROCESS_TIMEOUT_S) -> Process:
    """Run ``workload.py args`` to completion and measure it."""
    result_path = log_path.with_suffix(".json")
    argv = [sys.executable, str(HERE / "workload.py"),
            "--result", str(result_path), *args]
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        sampler = TreeSampler(proc.pid, start + timeout)
        sampler.start()
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sampler.stop()
        _reap_group(proc.pid)
    result = {}
    if result_path.exists():
        result = json.loads(result_path.read_text())
        result_path.unlink()
    peaks = dict(sampler.peaks)
    peaks[proc.pid] = max(peaks.get(proc.pid, 0),
                          result.get("peak_rss_kb", 0))
    status = proc.returncode if not sampler.killed else -signal.SIGKILL
    return Process(status=status, wall_s=wall,
                   cpu_s=usage.ru_utime + usage.ru_stime,
                   setup_s=result.get("ready", start) - start,
                   peak_rss_mb=sum(peaks.values()) * 1024 / 1e6,
                   probes=sampler.probes, result=result,
                   log=log_path.read_text(errors="replace")[-2000:])


def store_payload_mb(store: Path) -> float:
    """Artifact payload bytes in a store, in MB (sidecars hold creation
    times, so only payloads repeat byte for byte)."""
    return sum(path.stat().st_size for path in store.glob("??/*.pkl")) / 1e6


def store_snapshot(store: Path) -> Dict[str, tuple]:
    """Every store file's (inode, size, mtime): equal snapshots mean no
    writes, since the store replaces files atomically."""
    snapshot = {}
    for path in store.rglob("*"):
        info = path.stat()
        snapshot[str(path.relative_to(store))] = (info.st_ino, info.st_size,
                                                  info.st_mtime_ns)
    return snapshot


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

class Checks:
    """Operations and failures of one run, with the first errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(message)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.note(message)

    def note(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def process(self, proc: Process, what: str) -> None:
        """Count a workload process's own operations and failures."""
        self.attempted += proc.result.get("attempted", 0)
        self.failed += proc.result.get("failed", 0)
        for error in proc.result.get("errors", [])[:5]:
            self.note(f"{what}: {error}")
        if proc.status != 0 and not proc.result.get("failed"):
            self.fail(f"{what}: exit status {proc.status}: "
                      f"{proc.log.strip()[-400:]}")


def _expected() -> Dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 n_programs: int = DEFAULT_PROGRAMS,
                 subset_cap: Optional[int] = None,
                 trace_out: Optional[str] = None,
                 update_expected: bool = False) -> Dict:
    """Measure one workload; returns the run record (see README)."""
    workload = WORKLOADS[name]
    tmp = WORK / "tmp" / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    env = child_env(tmp)
    checks = Checks()
    try:
        # Untimed: build the kernel and bytecode, then warm the page cache.
        for step in ("build", "warm"):
            proc = spawn([], env, tmp / f"{step}.log")
            if proc.status != 0:
                raise SystemExit(f"run.py: {step} step failed "
                                 f"(status {proc.status}):\n{proc.log}")
        programs = sample_programs(json.loads(PROGRAMS.read_text()),
                                   seed, n_programs)
        reference: Dict[str, str] = {}
        expected = _expected() if (seed == 0 and subset_cap is None
                                   and n_programs == DEFAULT_PROGRAMS
                                   and not update_expected) else {}
        if expected:
            checks.check(expected.get("programs") == programs,
                         "seed-0 sample differs from expected_seed0.json")
            reference.update({fig: expected["digests"][fig]
                              for fig in workload.figures
                              if fig in expected.get("digests", {})})

        def args_for(wl: Workload, store: Path,
                     trace_dir: Optional[Path] = None) -> List[str]:
            args = ["--programs", ",".join(programs),
                    "--figures", ",".join(wl.figures), "--jobs", wl.jobs,
                    "--store", str(store)]
            if subset_cap is not None:
                args += ["--subset-cap", str(subset_cap)]
            if trace_dir is not None:
                args += ["--trace-dir", str(trace_dir)]
            return args

        def check_digests(digests: Dict[str, str], what: str) -> None:
            for fig in workload.figures:
                got = digests.get(fig)
                want = reference.setdefault(fig, got)
                checks.check(got is not None and got == want,
                             f"{what}: {fig} output differs from the "
                             f"reference ({got} != {want})")

        warm_store = tmp / "warm-store"
        if workload.warm:
            fill: Dict[str, str] = {}
            for cold in COLD_PASS:
                proc = spawn(args_for(WORKLOADS[cold], warm_store), env,
                             tmp / f"fill-{cold}.log")
                checks.process(proc, f"fill {cold}")
                fill.update(proc.result.get("digests", {}))
            check_digests(fill, "cold pass")

        untraced: List[Process] = []
        traced: List[Dict[str, float]] = []
        traced_wall: List[float] = []
        serial = 0
        start = time.monotonic()
        while (len(untraced) < MIN_PROCESSES and not trace) \
                or (len(traced) < MIN_TRACED and trace) \
                or time.monotonic() - start < seconds:
            for traced_now in ((False, True) if trace else (False,)):
                serial += 1
                store = warm_store if workload.warm \
                    else tmp / f"store-{serial}"
                before = store_snapshot(store) if workload.warm else None
                trace_dir = tmp / f"spans-{serial}" if traced_now else None
                proc = spawn(args_for(workload, store, trace_dir), env,
                             tmp / f"process-{serial}.log")
                what = f"process {serial}"
                checks.process(proc, what)
                check_digests(proc.result.get("digests", {}), what)
                proc.store_mb = store_payload_mb(store)
                if workload.warm:
                    checks.check(store_snapshot(store) == before,
                                 f"{what}: warm-all wrote to the store")
                else:
                    shutil.rmtree(store, ignore_errors=True)
                if not traced_now:
                    untraced.append(proc)
                    continue
                found, counters = spans.load(trace_dir)
                layers = {metric: value * proc.speed
                          if metric.endswith(("_s", "_ms")) else value
                          for metric, value in spans.layer_metrics(
                              found, counters).items()}
                if traced:
                    checks.check(layers["pipeline.sim_insts"]
                                 == traced[0]["pipeline.sim_insts"],
                                 f"{what}: pipeline.sim_insts differs "
                                 f"between traced processes")
                traced.append(layers)
                traced_wall.append(proc.wall_s * proc.speed)
                if trace_out:
                    from repro.obs.telemetry import run_manifest
                    spans.write_telemetry(trace_out, found, run_manifest(
                        seed=seed, label=f"e2e-{name}",
                        argv=sys.argv[1:]))
                shutil.rmtree(trace_dir, ignore_errors=True)

        samples: Dict[str, List[float]] = {
            "wall_s": [p.wall_s * p.speed for p in untraced],
            "cpu_s": [p.cpu_s * p.speed for p in untraced],
            "setup_s": [p.setup_s * p.speed for p in untraced],
            "peak_rss_mb": [p.peak_rss_mb for p in untraced],
            "store_mb": [p.store_mb for p in untraced],
            "raw_wall_s": [p.wall_s for p in untraced],
            "raw_cpu_s": [p.cpu_s for p in untraced],
            "raw_setup_s": [p.setup_s for p in untraced],
            "probe_ms": [PROBE_REFERENCE_MS / p.speed for p in untraced],
        }
        if trace:
            sim_insts = traced[0]["pipeline.sim_insts"]
            want = expected.get("sim_insts", {}).get(name)
            if expected:
                checks.check(want == sim_insts,
                             f"pipeline.sim_insts {sim_insts} != expected "
                             f"{want}")
            for metric in traced[0]:
                samples[metric] = [layers[metric] for layers in traced]
            samples["traced_wall_s"] = traced_wall
            samples["trace_overhead_frac"] = [
                statistics.median(traced_wall)
                / statistics.median(samples["wall_s"]) - 1]
        if update_expected:
            _update_expected(name, programs, reference,
                             traced[0]["pipeline.sim_insts"]
                             if trace else None)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    return {"workload": name, "seed": seed, "trace": int(trace),
            "seconds": seconds, "programs": programs,
            "processes": len(untraced) + len(traced),
            "correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed, "errors": checks.errors,
            "medians": {metric: statistics.median(values)
                        for metric, values in samples.items()},
            "samples": samples}


def _update_expected(name: str, programs: List[str], digests: Dict[str, str],
                     sim_insts: Optional[int]) -> None:
    expected = _expected() or {"seed": 0, "programs": programs,
                               "digests": {}, "sim_insts": {}}
    expected["programs"] = programs
    expected["digests"].update(digests)
    if sim_insts is not None:
        expected["sim_insts"][name] = sim_insts
    EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in group}


def render(record: Dict, units: Dict[str, str]) -> str:
    lines = [f"== {record['workload']}  seed {record['seed']}  "
             f"{record['processes']} processes  "
             f"programs: {' '.join(record['programs'])}",
             f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s}  unit"]
    for metric, unit in units.items():
        q1, _, q3 = quartiles(record["samples"][metric])
        lines.append(f"{metric:34s} {record['medians'][metric]:12.6g} "
                     f"{q1:12.6g} {q3:12.6g}  {unit}")
    frac = record["failed"] / record["attempted"] if record["attempted"] \
        else 0.0
    lines.append(f"failed {record['failed']} of {record['attempted']} "
                 f"operations (failed_frac {frac:.4f})")
    lines.extend(f"  error: {error}" for error in record["errors"])
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the regeneration of the paper's figures.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0,
                        help="picks the program sample")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for this long (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced "
                             "processes")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="with --trace 1, write the last traced "
                             "process's spans as telemetry JSONL (one "
                             "file per workload, named after it, when "
                             "running them all)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write every run record (with samples) as "
                             "JSON, for compare.py")
    parser.add_argument("--programs", type=int, default=DEFAULT_PROGRAMS,
                        help="programs per sample")
    parser.add_argument("--subset-cap", type=int, default=None,
                        help="truncate the Figure 8 sweep")
    parser.add_argument("--update-expected", action="store_true",
                        help="record this run's outputs in "
                             "expected_seed0.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file() \
            or not (ROOT / "BENCHMARK.json").is_file():
        print(f"run.py: no repro sources under {ROOT}/src; run from a "
              f"full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    units = declared_metrics(bool(args.trace))
    seconds = args.seconds if args.seconds is not None else \
        json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    for name in names:
        trace_out = args.trace_out
        if trace_out and len(names) > 1:
            path = Path(trace_out)
            trace_out = str(path.with_name(f"{path.stem}-{name}{path.suffix}"))
        record = run_workload(name, args.seed, seconds, bool(args.trace),
                              args.programs, args.subset_cap, trace_out,
                              args.update_expected)
        record["metrics"] = {metric: {"value": record["medians"][metric],
                                      "unit": unit}
                             for metric, unit in units.items()}
        records.append(record)
        print(render(record, units), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": records}, indent=1))
    metrics = records[0]["metrics"] if len(records) == 1 else {
        f"{record['workload']}.{metric}": value
        for record in records for metric, value in record["metrics"].items()}
    correct = all(record["correct"] for record in records)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
