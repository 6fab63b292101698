"""Structured run telemetry: Chrome trace-event–compatible JSONL.

A telemetry file is newline-delimited JSON. The first line is a *run
manifest* — git SHA, config digest, seed, code-version salt, creation
time — so every trace is attributable to an exact code and configuration
state (the same manifest is embedded in ``BENCH_*.json`` reports). Every
subsequent line is one event in the Chrome trace-event format (``ph``
``X`` complete spans with ``ts``/``dur`` in microseconds, ``i`` instant
events), so a file can be converted to a ``traceEvents`` array and loaded
into ``chrome://tracing`` / Perfetto directly.

Emission is opt-in (``--telemetry PATH`` on ``experiments``,
``limit-study`` and ``bench``) and sits entirely outside the timing
core's hot loop: spans wrap artifact-store computes (the Runner phases),
instant events tee off the exec DAG's existing ``on_event`` stream, and
bench points are spanned around the stopwatch. With no writer attached
nothing is constructed — the off path stays bit-identical.

``validate_telemetry`` checks a file against the documented schema
(``docs/observability.md``); ``repro telemetry`` is the CLI frontend.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import time
from contextlib import contextmanager
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Optional

#: Version of the JSONL schema (manifest line + event lines).
TELEMETRY_SCHEMA = 1

#: Chrome trace-event phases this subsystem emits/accepts.
_PHASES = ("X", "i", "B", "E")

_MANIFEST_KEYS = ("kind", "schema", "created", "git_sha", "config_digest",
                  "salt", "seed", "label")


class TelemetryError(ValueError):
    """A telemetry file that violates the documented schema."""


def git_sha() -> str:
    """The repository HEAD SHA, or ``"unknown"`` outside a git checkout."""
    root = Path(__file__).resolve().parents[3]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def config_digest(config: Any) -> str:
    """Stable 16-hex digest of a machine configuration (or any mapping)."""
    if is_dataclass(config) and not isinstance(config, type):
        payload = asdict(config)
    elif isinstance(config, dict):
        payload = config
    elif config is None:
        payload = {}
    else:
        payload = {"repr": repr(config)}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def run_manifest(config: Any = None, seed: Optional[int] = None,
                 label: str = "", argv: Optional[Iterable[str]] = None,
                 ) -> Dict[str, Any]:
    """The manifest dict heading every telemetry file and BENCH report."""
    from ..exec.store import code_version
    return {
        "kind": "manifest",
        "schema": TELEMETRY_SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": git_sha(),
        "config_digest": config_digest(config),
        "salt": code_version(),
        "seed": seed,
        "label": label,
        "argv": list(argv) if argv is not None else [],
    }


class TelemetryWriter:
    """Appends manifest + trace events to a JSONL file.

    The writer owns the file handle; events are flushed per line so a
    crashed run still leaves a readable prefix. All timestamps are
    microseconds from :func:`time.perf_counter` rebased to the writer's
    construction (Chrome tracing wants small monotonic ``ts`` values).
    """

    def __init__(self, path, manifest: Optional[Dict[str, Any]] = None):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "w")
        self._epoch = time.perf_counter()
        self.events_written = 0
        self.manifest = manifest if manifest is not None else run_manifest()
        self._write(self.manifest)

    def _write(self, obj: Dict[str, Any]) -> None:
        json.dump(obj, self._handle, sort_keys=True, default=str)
        self._handle.write("\n")
        self._handle.flush()

    def _now_us(self) -> int:
        return int((time.perf_counter() - self._epoch) * 1e6)

    def now_us(self) -> int:
        """Microseconds since the writer was opened (the ``ts`` clock)."""
        return self._now_us()

    def event(self, name: str, cat: str, ph: str, ts: Optional[int] = None,
              dur: Optional[int] = None,
              args: Optional[Dict[str, Any]] = None) -> None:
        """Emit one raw trace event (low-level; prefer span/instant)."""
        record: Dict[str, Any] = {
            "name": name, "cat": cat, "ph": ph,
            "ts": self._now_us() if ts is None else ts,
            "pid": os.getpid(), "tid": 0,
        }
        if dur is not None:
            record["dur"] = dur
        if args:
            record["args"] = args
        self._write(record)
        self.events_written += 1

    def instant(self, name: str, cat: str,
                args: Optional[Dict[str, Any]] = None) -> None:
        """Emit an instant (``ph: "i"``) event."""
        self.event(name, cat, "i", args=args)

    @contextmanager
    def span(self, name: str, cat: str,
             args: Optional[Dict[str, Any]] = None):
        """Wrap a block in a complete (``ph: "X"``) span."""
        start = self._now_us()
        try:
            yield
        finally:
            self.event(name, cat, "X", ts=start,
                       dur=max(0, self._now_us() - start), args=args)

    def close(self) -> None:
        """Flush and close the underlying file."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def scheduler_telemetry(writer: TelemetryWriter,
                        inner: Optional[Callable[[Dict[str, Any]], None]]
                        = None) -> Callable[[Dict[str, Any]], None]:
    """Adapt a :class:`~repro.exec.dag.Scheduler` ``on_event`` stream.

    Every scheduler event (submit, done, retry, failed, skipped,
    degraded) becomes an instant event in the ``exec`` category; an
    existing callback (e.g. a :class:`ProgressPrinter`) is chained via
    ``inner`` so telemetry composes with progress output.
    """
    def on_event(event: Dict[str, Any]) -> None:
        writer.instant(event.get("kind", "?"), "exec",
                       args={k: v for k, v in event.items()
                             if k != "kind" and v is not None})
        if inner is not None:
            inner(event)
    return on_event


def attach_store_telemetry(store, writer: TelemetryWriter) -> None:
    """Make an :class:`ArtifactStore` narrate its computes and hits.

    Cache misses (the Runner phases: trace, profile, candidates, plan,
    baseline, run) become ``runner`` spans; hits become ``store``
    instants. Implemented by setting the store's ``telemetry`` attribute
    — see :meth:`repro.exec.store.ArtifactStore.get_or_compute`.
    """
    store.telemetry = writer


def validate_telemetry(lines: Iterable[str]) -> Dict[str, Any]:
    """Validate telemetry JSONL content; returns a summary dict.

    Raises :class:`TelemetryError` (a ``ValueError``) on the first
    violation of the schema in ``docs/observability.md``. The summary
    holds ``events``, ``spans``, ``instants``, ``cats`` and the parsed
    manifest.
    """
    manifest = None
    events = spans = instants = 0
    cats: Dict[str, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            record = json.loads(raw)
        except ValueError:
            raise TelemetryError(f"line {lineno}: not valid JSON") from None
        if not isinstance(record, dict):
            raise TelemetryError(f"line {lineno}: not a JSON object")
        if lineno == 1:
            if record.get("kind") != "manifest":
                raise TelemetryError(
                    "line 1: first record must be the run manifest")
            if record.get("schema") != TELEMETRY_SCHEMA:
                raise TelemetryError(
                    f"line 1: unsupported schema {record.get('schema')!r}")
            for key in _MANIFEST_KEYS:
                if key not in record:
                    raise TelemetryError(f"line 1: manifest missing {key!r}")
            manifest = record
            continue
        for key, typ in (("name", str), ("cat", str), ("ph", str)):
            if not isinstance(record.get(key), typ):
                raise TelemetryError(
                    f"line {lineno}: event missing string {key!r}")
        if record["ph"] not in _PHASES:
            raise TelemetryError(
                f"line {lineno}: bad phase {record['ph']!r}")
        ts = record.get("ts")
        if not isinstance(ts, int) or ts < 0:
            raise TelemetryError(
                f"line {lineno}: 'ts' must be a non-negative integer")
        if record["ph"] == "X":
            dur = record.get("dur")
            if not isinstance(dur, int) or dur < 0:
                raise TelemetryError(
                    f"line {lineno}: complete span needs integer 'dur'")
            spans += 1
        elif record["ph"] == "i":
            instants += 1
        if "args" in record and not isinstance(record["args"], dict):
            raise TelemetryError(f"line {lineno}: 'args' must be an object")
        events += 1
        cats[record["cat"]] = cats.get(record["cat"], 0) + 1
    if manifest is None:
        raise TelemetryError("empty telemetry file (no manifest)")
    return {"manifest": manifest, "events": events, "spans": spans,
            "instants": instants, "cats": cats}


def validate_file(path) -> Dict[str, Any]:
    """Validate a telemetry file on disk (see :func:`validate_telemetry`)."""
    path = Path(path)
    try:
        with open(path) as handle:
            return validate_telemetry(handle)
    except OSError as err:
        raise TelemetryError(f"cannot read {path}: {err}") from None
