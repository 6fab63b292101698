"""Persistent content-addressed artifact store.

Every result of the experiment pipeline that costs more to recompute
than to read back — slack profiles, timing runs, limit-study chunks — is
an *artifact*: a pickled Python object addressed by the SHA-256 of its
complete parameter set (benchmark, input, machine configuration,
selector parameters, budget, ``max_mg_size``, ``max_insts``, …) plus a
code-version salt derived from the simulator sources. Because the key
covers everything the value depends on, a key either names exactly one
value or nothing: there is no invalidation protocol, only misses.
Functional traces, candidate enumerations and selection plans are no
artifacts: the :class:`~repro.harness.runner.Runner` memoizes them in
its own process, as they cost less to compute than to store.

The store is two-layered. An in-memory dict gives object *identity*
within a process (``runner.baseline(b, c) is runner.baseline(b, c)``);
an optional on-disk layer persists artifacts across processes and
interpreter restarts and is what lets scheduler worker processes share
their results. Disk writes are atomic (temp file + ``os.replace``) so a
crashed or killed worker can never publish a torn artifact, and
unreadable payloads are treated as misses and deleted rather than
propagated.

The disk layer, :class:`ArtifactBackend`, owns the blob layout::

    <root>/ab/<sha256>.<kind>.pkl   # pickled payload, sharded by 2-hex prefix

One file per artifact: its rename is the commit point, so a writer
killed at any moment leaves either the whole artifact or nothing a
reader sees. Maintenance (``stats``/``prune``/``dedup``) walks the
payload files, taking the kind from the name and size and age from
``stat``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

#: Sentinel returned by :meth:`ArtifactStore.get` on a miss, so that
#: ``None`` remains a storable value.
MISS = object()

#: Subpackages whose sources determine artifact values. ``harness`` and
#: ``exec`` are deliberately excluded: they orchestrate, they don't
#: change what a trace/plan/timing run contains.
_SALT_PACKAGES = ("isa", "pipeline", "minigraph", "workloads", "analysis")

#: Explicit version of the trace/record memory layout and the timing
#: core's execution strategy. The source digest below already covers
#: Python edits; bump this when a change alters artifact content in a
#: way the digest cannot see (or to force a fleet-wide cache flush).
#: 2 = flat ``PackedTrace`` columns + event-driven core + compiled kernel.
#: 3 = compiled-kernel event tap: observed (collector/attribution) runs
#:     now execute on the C kernel, so their artifacts are produced by a
#:     different engine than version 2 recorded.
LAYOUT_VERSION = 3

_code_version: Optional[str] = None


def code_version() -> str:
    """Salt for artifact keys: SHA-256 over the simulator sources.

    Any edit to the ISA, pipeline model, mini-graph machinery, workload
    builders, or analysis code changes the salt and silently invalidates
    every cached artifact — stale results can never be served after a
    code change. Non-Python sources (the compiled timing kernel) and the
    explicit :data:`LAYOUT_VERSION` are folded in as well.
    """
    global _code_version
    if _code_version is None:
        pkg_root = Path(__file__).resolve().parent.parent
        _code_version = source_digest(pkg_root)
    return _code_version


def source_digest(pkg_root: Path,
                  packages: Sequence[str] = _SALT_PACKAGES) -> str:
    """The code-version digest over one source tree (testable directly).

    Walks ``pkg_root/<package>`` for every salt package, folding file
    names and bytes of every ``*.py`` *and* ``*.c`` source into one
    SHA-256 — native-kernel edits invalidate cached artifacts exactly
    like Python edits do.
    """
    digest = hashlib.sha256()
    digest.update(f"layout:{LAYOUT_VERSION}".encode())
    for package in packages:
        package_root = Path(pkg_root) / package
        paths = sorted(package_root.glob("*.py")) + \
            sorted(package_root.glob("*.c"))
        for path in paths:
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _dumps(value: Any) -> str:
    """The canonical JSON text a store key hashes."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class FrozenParams(Mapping):
    """A read-only mapping of store-key params that carries its own
    canonical JSON text, encoded on first use.

    A value that many keys share (a machine config's full sizing) is
    encoded once per process: :meth:`ArtifactStore.key` splices the text
    in where the mapping stands among the top-level params. Nothing can
    change the mapping once it is built, so the text cannot go stale:
    it takes ownership of ``data``, and nested dicts read back as
    read-only views.
    """

    __slots__ = ("_data", "_text")

    def __init__(self, data: Dict[str, Any]):
        self._data = data
        self._text: Optional[str] = None

    def __getitem__(self, name: str) -> Any:
        value = self._data[name]
        return MappingProxyType(value) if isinstance(value, dict) else value

    def __iter__(self):
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:
        return f"FrozenParams({self._data!r})"

    @property
    def text(self) -> str:
        """``json.dumps`` of the mapping in the canonical key form."""
        if self._text is None:
            self._text = _dumps(self._data)
        return self._text


def canonical_params(params: Dict[str, Any]) -> str:
    """``json.dumps(params, sort_keys=True, separators=(",", ":"))``,
    byte for byte, with each top-level :class:`FrozenParams` value
    written as the dict it holds.

    Only the rest is encoded here: each frozen value stands in as a
    placeholder string, which its cached text then replaces. A param
    that happens to encode as a placeholder falls back to one plain
    encoding.
    """
    texts = []
    rest = {}
    for name, value in params.items():
        if type(value) is FrozenParams:
            rest[name] = f"\x00{len(texts)}"
            texts.append(value.text)
        else:
            rest[name] = value
    canonical = _dumps(rest)
    for i, text in enumerate(texts):
        token = f'"\\u0000{i}"'
        if canonical.count(token) != 1:
            return _dumps({name: value._data if type(value) is FrozenParams
                           else value for name, value in params.items()})
        canonical = canonical.replace(token, text)
    return canonical


@dataclass
class StoreStats:
    """Lookup counters for one :class:`ArtifactStore` instance."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0
    corrupt_dropped: int = 0
    by_kind: Dict[str, List[int]] = field(default_factory=dict)  # [hit, miss]
    #: Disk-layer time (ns) and bytes, split into encoding and file I/O:
    #: ``pickle.dumps`` / ``backend.write`` per put, ``backend.read`` /
    #: ``pickle.loads`` per disk lookup. A memory-only store leaves them 0.
    put_encode_ns: int = 0
    put_write_ns: int = 0
    get_read_ns: int = 0
    get_decode_ns: int = 0
    put_bytes: int = 0
    get_bytes: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def record(self, kind: str, hit: bool) -> None:
        entry = self.by_kind.setdefault(kind, [0, 0])
        entry[0 if hit else 1] += 1

    def render(self) -> str:
        parts = [f"{self.hits} hits / {self.lookups} lookups "
                 f"({self.hit_rate:.1%})",
                 f"{self.puts} writes"]
        if self.corrupt_dropped:
            parts.append(f"{self.corrupt_dropped} corrupt dropped")
        detail = ", ".join(
            f"{kind} {hit}/{hit + miss}"
            for kind, (hit, miss) in sorted(self.by_kind.items()))
        line = "[cache] " + ", ".join(parts)
        return f"{line}\n[cache] by kind: {detail}" if detail else line


def resolve_cache_dir(arg: Optional[str],
                      no_cache: bool = False) -> Optional[str]:
    """CLI policy for the disk layer: flag > ``$REPRO_CACHE_DIR`` > none."""
    if no_cache:
        return None
    return arg or os.environ.get("REPRO_CACHE_DIR") or None


def _atomic_write(path: Path, data: bytes) -> None:
    fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                    prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class ArtifactBackend:
    """Disk layer of an :class:`ArtifactStore`.

    Moves payload bytes (sharded ``<key>.<kind>.pkl`` files, atomic
    writes) and answers maintenance queries by walking them; keys,
    pickling, the memory layer, and corruption policy all stay in the
    store.
    """

    def __init__(self, root: Union[str, os.PathLike]):
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)

    # -- blob layout ----------------------------------------------------------

    def payload_path(self, key: str, kind: str) -> Path:
        return self.root / key[:2] / f"{key}.{kind}.pkl"

    def read(self, key: str, kind: str) -> Optional[bytes]:
        """Payload bytes, or ``None`` if absent. I/O errors propagate."""
        try:
            with open(self.payload_path(key, kind), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def write(self, key: str, payload: bytes, kind: str) -> None:
        """Publish one artifact: the payload file's rename commits it."""
        path = self.payload_path(key, kind)
        path.parent.mkdir(exist_ok=True)
        _atomic_write(path, payload)

    def delete(self, key: str, kind: str) -> None:
        try:
            self.payload_path(key, kind).unlink()
        except OSError:
            pass

    # -- index ----------------------------------------------------------------

    def entries(self) -> Iterable[Tuple[str, str, Path]]:
        """Every committed ``(key, kind, path)``, sorted by file name.

        Temp files of killed writers (``.tmp-*.part``) and ``dedup``
        links (``.lnk-*``) are not artifacts and never match.
        """
        for path in sorted(self.root.glob("??/*.*.pkl")):
            key, kind = path.name[:-len(".pkl")].split(".", 1)
            yield key, kind, path

    def summary(self) -> Dict[str, Dict[str, int]]:
        """Per-kind ``{count, bytes}`` of the committed artifacts."""
        summary: Dict[str, Dict[str, int]] = {}
        for _key, kind, path in self.entries():
            try:
                size = path.stat().st_size
            except OSError:
                continue
            entry = summary.setdefault(kind, {"count": 0, "bytes": 0})
            entry["count"] += 1
            entry["bytes"] += size
        return summary

    def prune(self, cutoff: Optional[float],
              kind_set: Optional[set]) -> List[str]:
        """Delete artifacts written before ``cutoff`` / of ``kind_set``.

        Returns the deleted keys so the store can evict its memory layer.
        """
        removed = []
        for key, kind, path in list(self.entries()):
            if kind_set is not None and kind not in kind_set:
                continue
            try:
                if cutoff is not None and path.stat().st_mtime > cutoff:
                    continue
                path.unlink()
            except OSError:
                continue
            removed.append(key)
        return removed

    def clear(self) -> int:
        """Delete every file in the shard directories, killed writers'
        temp files and ``dedup`` links included; returns artifacts
        removed."""
        removed = 0
        for path in list(self.root.glob("??/*")):
            try:
                path.unlink()
            except OSError:
                continue
            if path.name.endswith(".pkl"):
                removed += 1
        return removed

    def dedup(self) -> Dict[str, int]:
        """Hard-link payloads with identical bytes.

        Distinct keys can address identical payloads (e.g. two configs
        that happen to produce the same plan). Linking them reclaims the
        duplicate bytes without touching any key or file name — reads
        are unaffected. Returns ``{groups, linked, bytes_saved}``.
        """
        by_sha: Dict[str, List[Tuple[str, Path]]] = {}
        for key, _kind, path in self.entries():
            try:
                sha = hashlib.sha256(path.read_bytes()).hexdigest()
            except OSError:
                continue
            by_sha.setdefault(sha, []).append((key, path))
        report = {"groups": 0, "linked": 0, "bytes_saved": 0}
        for _sha, members in sorted(by_sha.items()):
            if len(members) < 2:
                continue
            canon = members[0][1]
            try:
                canon_stat = os.stat(canon)
            except OSError:
                continue
            group_linked = 0
            for key, dup in members[1:]:
                try:
                    dup_stat = os.stat(dup)
                except OSError:
                    continue
                if (dup_stat.st_dev, dup_stat.st_ino) == \
                        (canon_stat.st_dev, canon_stat.st_ino):
                    continue
                tmp = dup.parent / f".lnk-{key}"
                try:
                    os.link(canon, tmp)
                    os.replace(tmp, dup)
                except OSError:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    continue
                group_linked += 1
                report["linked"] += 1
                report["bytes_saved"] += dup_stat.st_size
            if group_linked:
                report["groups"] += 1
        return report


class ArtifactStore:
    """Two-layer (memory + optional disk) content-addressed cache.

    ``root=None`` gives a memory-only store with the exact semantics of
    the old in-``Runner`` memo dicts. With a ``root``, artifacts also
    persist to disk and are shared with any process pointed at the same
    directory.
    """

    def __init__(self, root: Optional[os.PathLike] = None,
                 salt: Optional[str] = None):
        self.backend = ArtifactBackend(root) if root is not None else None
        self.root = self.backend.root if self.backend is not None else None
        self.salt = salt if salt is not None else code_version()
        self._memory: Dict[str, Any] = {}
        self.stats = StoreStats()
        #: Optional :class:`repro.obs.telemetry.TelemetryWriter`. When
        #: set (``attach_store_telemetry``), every miss in
        #: :meth:`get_or_compute` is wrapped in a ``runner`` span and
        #: every hit emits a ``store`` cache-hit instant. ``None`` (the
        #: default) keeps the store observation-free.
        self.telemetry = None

    @property
    def persistent(self) -> bool:
        return self.backend is not None

    # -- keys -----------------------------------------------------------------

    def key(self, kind: str, params: Dict[str, Any]) -> str:
        """Content address: SHA-256 of kind + canonical params + salt.

        ``params`` must be JSON-serializable, a :class:`FrozenParams` as
        a top-level value included; the canonical form
        (:func:`canonical_params`) sorts keys so dict construction order
        cannot perturb the address.
        """
        blob = f"{kind}|{self.salt}|{canonical_params(params)}".encode()
        return hashlib.sha256(blob).hexdigest()

    # -- lookup / insert ------------------------------------------------------

    def _drop_corrupt(self, key: str, kind: str) -> None:
        self.stats.corrupt_dropped += 1
        self.backend.delete(key, kind)

    def get(self, key: str, kind: str = "?") -> Any:
        """The stored value, or :data:`MISS`.

        ``kind`` names the payload file, so it must be the kind the key
        was derived from. A disk payload that fails to read or unpickle
        (torn write from a killed process, version skew, bit rot) is
        deleted and reported as a miss: corruption degrades to
        recomputation, never to an error.
        """
        if key in self._memory:
            self.stats.memory_hits += 1
            self.stats.record(kind, hit=True)
            return self._memory[key]
        if self.backend is not None:
            stats = self.stats
            start = time.perf_counter_ns()
            try:
                payload = self.backend.read(key, kind)
            except Exception:
                payload = None
                self._drop_corrupt(key, kind)
            read = time.perf_counter_ns()
            stats.get_read_ns += read - start
            if payload is not None:
                stats.get_bytes += len(payload)
                try:
                    value = pickle.loads(payload)
                except Exception:
                    self._drop_corrupt(key, kind)
                else:
                    stats.get_decode_ns += time.perf_counter_ns() - read
                    self._memory[key] = value
                    stats.disk_hits += 1
                    stats.record(kind, hit=True)
                    return value
        self.stats.misses += 1
        self.stats.record(kind, hit=False)
        return MISS

    def contains(self, key: str, kind: str = "?") -> bool:
        """Whether ``key`` is stored, without reading or unpickling it.

        True when the memory layer holds the key or its disk payload
        file exists. A corrupt payload still answers True here: the
        :meth:`get` that later reads it drops it and reports a miss.
        """
        if key in self._memory:
            return True
        return self.backend is not None and \
            self.backend.payload_path(key, kind).exists()

    def put(self, key: str, value: Any, kind: str = "?") -> None:
        """Publish an artifact (memory always; disk atomically if enabled)."""
        self._memory[key] = value
        self.stats.puts += 1
        if self.backend is None:
            return
        stats = self.stats
        start = time.perf_counter_ns()
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        stats.put_encode_ns += time.perf_counter_ns() - start
        stats.put_bytes += len(payload)
        start = time.perf_counter_ns()
        self.backend.write(key, payload, kind)
        stats.put_write_ns += time.perf_counter_ns() - start

    def get_or_compute(self, kind: str, params: Dict[str, Any],
                       compute: Callable[[], Any]) -> Any:
        """Memoize ``compute()`` under the content address of ``params``."""
        key = self.key(kind, params)
        value = self.get(key, kind)
        telemetry = self.telemetry
        if value is MISS:
            if telemetry is not None:
                args = {k: v for k, v in params.items()
                        if isinstance(v, (str, int, float, bool))}
                args["kind"] = kind
                with telemetry.span(kind, "runner", args=args):
                    value = compute()
            else:
                value = compute()
            self.put(key, value, kind)
        elif telemetry is not None:
            telemetry.instant("cache-hit", "store", {"kind": kind})
        return value

    # -- maintenance ----------------------------------------------------------

    def disk_summary(self) -> Dict[str, Dict[str, int]]:
        """Per-kind ``{count, bytes}`` of the payload files on disk."""
        if self.backend is None:
            return {}
        return self.backend.summary()

    def clear(self) -> int:
        """Drop every artifact (memory and disk); returns artifacts removed."""
        removed = len(self._memory)
        self._memory.clear()
        if self.backend is not None:
            removed = self.backend.clear()
        return removed

    def prune(self, max_age: Optional[float] = None,
              kinds: Optional[Iterable[str]] = None) -> int:
        """Delete disk artifacts older than ``max_age`` seconds / by kind."""
        if self.backend is None:
            return 0
        kind_set = set(kinds) if kinds is not None else None
        cutoff = time.time() - max_age if max_age is not None else None
        removed = self.backend.prune(cutoff, kind_set)
        for key in removed:
            self._memory.pop(key, None)
        return len(removed)

    def dedup(self) -> Dict[str, int]:
        """Hard-link identical payloads; see :meth:`ArtifactBackend.dedup`."""
        if self.backend is None:
            return {"groups": 0, "linked": 0, "bytes_saved": 0}
        return self.backend.dedup()
