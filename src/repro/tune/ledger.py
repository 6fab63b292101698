"""Tuning ledger: a JSONL journal of completed trials.

One header line pins the search space (content digest), the runner
parameters that shape objectives, and the code-version salt; then one
line per completed trial evaluation is appended and flushed as each one
finishes. ``repro tune --resume`` replays the file and schedules only
trials with no journaled result at their trace length — a SIGKILL
mid-search costs at most the one in-flight trial, and re-running a
finished search schedules nothing.

Replay is defensive: a torn tail line (the interrupted final write) is
ignored, duplicate records are idempotent (last wins), and a header
whose space digest or salt disagrees with the current invocation is
refused — results computed by different code or for a different space
must never silently leak into a frontier.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, IO, Optional, Tuple

from .evaluate import TrialEval

TUNE_LEDGER_VERSION = 1


class TuneLedgerError(RuntimeError):
    """Unusable tuning ledger: bad header, version skew, or a
    space/salt mismatch against the resuming invocation."""


class TuneLedger:
    """Append-only journal of trial evaluations for one search."""

    def __init__(self, path: os.PathLike, header: Dict[str, Any],
                 handle: IO[str]):
        self.path = Path(path)
        self.header = header
        self._handle = handle

    @staticmethod
    def _header(space_digest: str, salt: str,
                runner: Dict[str, Any]) -> Dict[str, Any]:
        return {"type": "tune", "version": TUNE_LEDGER_VERSION,
                "created": time.time(), "space": space_digest,
                "salt": salt, "runner": dict(runner)}

    @classmethod
    def create(cls, path: os.PathLike, space_digest: str, salt: str,
               runner: Dict[str, Any]) -> "TuneLedger":
        """Start a fresh ledger (truncating any previous file)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(path, "w", encoding="utf-8")
        ledger = cls(path, cls._header(space_digest, salt, runner), handle)
        ledger._append(ledger.header)
        return ledger

    @classmethod
    def resume(cls, path: os.PathLike, space_digest: str, salt: str,
               runner: Dict[str, Any]
               ) -> Tuple["TuneLedger", Dict[Tuple[str, int], TrialEval]]:
        """Reopen ``path`` and replay completed trials.

        Returns ``(ledger, completed)`` where ``completed`` maps
        ``(trial_id, rung)`` to its journaled evaluation. Raises
        :class:`TuneLedgerError` when the file's header pins a
        different space, salt, or runner parameter set — those results
        are not comparable and must not be reused.
        """
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except OSError as error:
            raise TuneLedgerError(
                f"cannot read tuning ledger {path}: {error}") from error
        header: Optional[Dict[str, Any]] = None
        completed: Dict[Tuple[str, int], TrialEval] = {}
        for line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue        # torn tail from a killed writer
            if not isinstance(record, dict):
                continue
            if record.get("type") == "tune":
                if record.get("version") != TUNE_LEDGER_VERSION:
                    raise TuneLedgerError(
                        f"tuning ledger version {record.get('version')!r} "
                        f"!= {TUNE_LEDGER_VERSION} (start a fresh ledger)")
                header = record
            elif record.get("type") == "trial":
                try:
                    entry = TrialEval.from_doc(record)
                except (KeyError, TypeError, ValueError):
                    continue    # torn or foreign record
                completed[(entry.trial_id, entry.rung)] = entry
        if header is None:
            raise TuneLedgerError(
                f"{path} has no tune header — not a tuning ledger")
        for field, ours in (("space", space_digest), ("salt", salt),
                            ("runner", dict(runner))):
            if header.get(field) != ours:
                raise TuneLedgerError(
                    f"tuning ledger {path} was written for a different "
                    f"{field} ({header.get(field)!r} != {ours!r}); "
                    "start a fresh ledger")
        handle = open(path, "a", encoding="utf-8")
        return cls(path, header, handle), completed

    @classmethod
    def open(cls, path: os.PathLike, space_digest: str, salt: str,
             runner: Dict[str, Any], resume: bool
             ) -> Tuple["TuneLedger", Dict[Tuple[str, int], TrialEval]]:
        """``resume`` semantics of ``repro tune``: reuse when asked and
        the file exists, otherwise start fresh."""
        if resume and Path(path).exists():
            return cls.resume(path, space_digest, salt, runner)
        return cls.create(path, space_digest, salt, runner), {}

    # -- journaling -----------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def record(self, entry: TrialEval) -> None:
        """Journal one completed trial evaluation."""
        self._append({"type": "trial", "t": time.time(), **entry.to_doc()})

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:
            pass

    def __enter__(self) -> "TuneLedger":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
