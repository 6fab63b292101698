"""Artifact store: addressing, hit/miss accounting, corruption recovery."""

import json
import os
import pickle
import tempfile

import pytest

from repro.exec.store import (
    MISS, ArtifactStore, FrozenParams, canonical_params, code_version,
)


def test_key_is_deterministic_and_order_insensitive(tmp_path):
    store = ArtifactStore(tmp_path)
    a = store.key("trace", {"bench": "crc32", "max_insts": 100})
    b = store.key("trace", {"max_insts": 100, "bench": "crc32"})
    assert a == b
    assert len(a) == 64


def test_key_sensitive_to_every_parameter(tmp_path):
    store = ArtifactStore(tmp_path)
    base = {"bench": "crc32", "input": "train", "max_insts": 100}
    key = store.key("trace", base)
    assert store.key("trace", dict(base, max_insts=200)) != key
    assert store.key("trace", dict(base, input="ref")) != key
    assert store.key("baseline", base) != key


def test_frozen_params_splice_to_the_plain_encoding():
    """A key's canonical text is ``json.dumps`` of its params byte for
    byte whether a value is a FrozenParams or the dict it holds, also
    when another param encodes exactly like a splice placeholder."""
    config = {"name": "x", "width": 4, "l2": {"size_bytes": 1024}}
    frozen = FrozenParams(json.loads(json.dumps(config)))
    for extra in ({}, {"label": "\x000"}, {"a": ["\x001"], "z": "\x001"}):
        params = {"bench": "crc32", "config": frozen, "profile": frozen,
                  "label": None, **extra}
        plain = dict(params, config=config, profile=config)
        assert canonical_params(params) == \
            json.dumps(plain, sort_keys=True, separators=(",", ":"))
    assert frozen == config and dict(frozen) == config


def test_frozen_params_are_read_only():
    frozen = FrozenParams({"width": 4, "l2": {"size_bytes": 1024}})
    text = frozen.text
    with pytest.raises(TypeError):
        frozen["width"] = 8
    with pytest.raises(TypeError):
        frozen["l2"]["size_bytes"] = 8
    assert frozen.text == text == '{"l2":{"size_bytes":1024},"width":4}'


def test_key_sensitive_to_salt(tmp_path):
    base = {"bench": "crc32"}
    a = ArtifactStore(tmp_path, salt="v1").key("trace", base)
    b = ArtifactStore(tmp_path, salt="v2").key("trace", base)
    assert a != b


def test_default_salt_is_code_version(tmp_path):
    assert ArtifactStore(tmp_path).salt == code_version()


def test_memory_only_roundtrip():
    store = ArtifactStore()
    assert not store.persistent
    key = store.key("x", {"p": 1})
    assert not store.contains(key)
    assert store.get(key) is MISS
    value = {"payload": [1, 2, 3]}
    store.put(key, value)
    assert store.contains(key)
    assert store.get(key) is value  # identity, not equality
    assert store.stats.misses == 1
    assert store.stats.memory_hits == 1


def test_disk_roundtrip_across_instances(tmp_path):
    first = ArtifactStore(tmp_path)
    key = first.key("x", {"p": 1})
    first.put(key, {"payload": 42}, kind="x")
    second = ArtifactStore(tmp_path)
    assert second.contains(key, "x")
    assert second.stats.lookups == 0     # a probe reads nothing
    assert second.get(key, "x") == {"payload": 42}
    assert second.stats.disk_hits == 1
    # Once read from disk, the memory layer serves identity.
    assert second.get(key) is second.get(key)


def test_get_or_compute_memoizes(tmp_path):
    store = ArtifactStore(tmp_path)
    calls = []

    def compute():
        calls.append(1)
        return "value"

    assert store.get_or_compute("k", {"a": 1}, compute) == "value"
    assert store.get_or_compute("k", {"a": 1}, compute) == "value"
    assert len(calls) == 1
    # A changed parameter is a different artifact.
    assert store.get_or_compute("k", {"a": 2}, compute) == "value"
    assert len(calls) == 2


def test_corrupted_payload_recovers_as_miss(tmp_path):
    store = ArtifactStore(tmp_path)
    key = store.key("x", {"p": 1})
    store.put(key, [1, 2, 3], kind="x")
    payload = store.backend.payload_path(key, "x")
    payload.write_bytes(b"not a pickle at all")

    fresh = ArtifactStore(tmp_path)
    assert fresh.get(key, "x") is MISS
    assert fresh.stats.corrupt_dropped == 1
    assert not payload.exists()  # dropped, not left to fail again
    # Recomputation repopulates the slot.
    assert fresh.get_or_compute("x", {"p": 1}, lambda: [1, 2, 3]) == [1, 2, 3]
    assert ArtifactStore(tmp_path).get(key, "x") == [1, 2, 3]


def test_truncated_payload_recovers_as_miss(tmp_path):
    store = ArtifactStore(tmp_path)
    key = store.key("x", {"p": 1})
    store.put(key, list(range(1000)), kind="x")
    payload = store.backend.payload_path(key, "x")
    payload.write_bytes(payload.read_bytes()[:10])  # torn write
    fresh = ArtifactStore(tmp_path)
    assert fresh.contains(key, "x")      # probes never read the payload...
    assert fresh.get(key, "x") is MISS   # ...the read validates it
    assert fresh.stats.corrupt_dropped == 1
    assert not fresh.contains(key, "x")


def test_disk_summary_clear_and_prune(tmp_path):
    store = ArtifactStore(tmp_path)
    for i in range(3):
        store.put(store.key("trace", {"i": i}), i, kind="trace")
    store.put(store.key("plan", {"i": 0}), "p", kind="plan")
    summary = store.disk_summary()
    assert summary["trace"]["count"] == 3
    assert summary["plan"]["count"] == 1
    assert summary["trace"]["bytes"] > 0

    assert store.prune(kinds=["plan"]) == 1
    assert "plan" not in store.disk_summary()
    # Recent artifacts survive an age-based prune.
    assert store.prune(max_age=3600.0) == 0
    assert store.clear() == 3
    assert store.disk_summary() == {}
    assert store.get(store.key("trace", {"i": 0}), "trace") is MISS


def test_put_leaves_no_partial_files(tmp_path):
    store = ArtifactStore(tmp_path)
    for i in range(5):
        store.put(store.key("x", {"i": i}), list(range(100)), kind="x")
    assert list(tmp_path.glob("**/.tmp-*")) == []
    assert list(tmp_path.glob("**/*.part")) == []


def test_clear_removes_killed_writers_temp_files(tmp_path):
    """A writer killed between ``mkstemp`` and ``os.replace`` leaves a
    ``.tmp-*.part`` file, and a ``dedup`` killed between ``os.link`` and
    ``os.replace`` a ``.lnk-*`` link; ``clear`` must not leave either
    behind."""
    store = ArtifactStore(tmp_path)
    key = store.key("x", {"i": 0})
    store.put(key, "payload", kind="x")
    shard = store.backend.payload_path(key, "x").parent
    leftovers = [shard / ".tmp-x.part", shard / ".lnk-x"]
    for leftover in leftovers:
        leftover.write_bytes(b"torn")
    assert store.clear() == 1          # neither is an artifact
    assert not any(leftover.exists() for leftover in leftovers)
    assert list(tmp_path.glob("??/*")) == []


def test_writer_killed_before_rename_leaves_nothing_visible(
        tmp_path, monkeypatch):
    """A put killed after writing its temp file but before the rename
    that commits it leaves nothing that ``get``, ``contains`` or
    ``disk_summary`` sees, and ``clear`` removes the temp file."""
    from repro.exec import store as store_mod

    def killed_before_rename(path, data):
        fd, _name = tempfile.mkstemp(dir=path.parent,
                                     prefix=".tmp-", suffix=".part")
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        raise KeyboardInterrupt("killed before the rename")

    key = ArtifactStore(tmp_path).key("trace", {"b": "crc32"})
    monkeypatch.setattr(store_mod, "_atomic_write", killed_before_rename)
    with pytest.raises(KeyboardInterrupt):
        ArtifactStore(tmp_path).put(key, "records", kind="trace")
    monkeypatch.undo()

    assert len(list(tmp_path.glob("??/.tmp-*.part"))) == 1
    store = ArtifactStore(tmp_path)
    assert not store.contains(key, "trace")
    assert store.get(key, "trace") is MISS
    assert store.disk_summary() == {}
    assert store.prune(max_age=0.0) == 0
    assert store.clear() == 0
    assert list(tmp_path.glob("??/*")) == []


_DISK_TOTALS =("put_encode_ns", "put_write_ns", "get_read_ns",
                "get_decode_ns", "put_bytes", "get_bytes")


def test_disk_time_splits_into_encoding_and_file_io(tmp_path):
    from repro.obs.metrics import MetricsRegistry, collect_store

    writer = ArtifactStore(tmp_path)
    key = writer.key("x", {"p": 1})
    writer.put(key, list(range(1000)), kind="x")
    reader = ArtifactStore(tmp_path)
    assert reader.get(key, "x") == list(range(1000))
    size = writer.backend.payload_path(key, "x").stat().st_size
    assert writer.stats.put_encode_ns > 0 and writer.stats.put_write_ns > 0
    assert reader.stats.get_read_ns > 0 and reader.stats.get_decode_ns > 0
    assert writer.stats.put_bytes == reader.stats.get_bytes == size
    registry = MetricsRegistry()
    collect_store(registry, reader)
    assert registry.get("store.get.bytes").value == size
    assert registry.get("store.get.decode_ns").value == \
        reader.stats.get_decode_ns

    memory = ArtifactStore()
    memory.put(key, [1], kind="x")
    assert memory.get(key, "x") == [1]
    assert [getattr(memory.stats, name) for name in _DISK_TOTALS] == \
        [0] * len(_DISK_TOTALS)


def test_stats_render_mentions_rate(tmp_path):
    store = ArtifactStore(tmp_path)
    key = store.key("x", {"p": 1})
    store.get(key, "x")
    store.put(key, 1, "x")
    store.get(key, "x")
    text = store.stats.render()
    assert "1 hits / 2 lookups" in text
    assert "x 1/2" in text


def test_layout_version_3_invalidates_version_2_artifacts(tmp_path,
                                                          monkeypatch):
    """Version 3 (observed runs execute on the compiled kernel's event
    tap) must never serve artifacts recorded under version 2's
    Python-observer engine."""
    from repro.exec import store as store_mod

    assert store_mod.LAYOUT_VERSION == 3
    monkeypatch.setattr(store_mod, "_code_version", None)
    monkeypatch.setattr(store_mod, "LAYOUT_VERSION", 2)
    v2_salt = code_version()
    v2_store = ArtifactStore(tmp_path, salt=v2_salt)
    key = v2_store.key("profile", {"bench": "crc32", "config": "reduced"})
    v2_store.put(key, {"entries": 16}, kind="profile")

    monkeypatch.setattr(store_mod, "_code_version", None)
    monkeypatch.setattr(store_mod, "LAYOUT_VERSION", 3)
    v3_salt = code_version()
    assert v3_salt != v2_salt
    v3_store = ArtifactStore(tmp_path, salt=v3_salt)
    v3_key = v3_store.key("profile", {"bench": "crc32", "config": "reduced"})
    assert v3_key != key
    assert v3_store.get(v3_key) is MISS


def test_layout_version_invalidates_cached_artifacts(tmp_path, monkeypatch):
    """Bumping LAYOUT_VERSION changes the code salt, so artifacts cached
    under the old trace/record layout can never be served again."""
    from repro.exec import store as store_mod

    monkeypatch.setattr(store_mod, "_code_version", None)
    old_salt = code_version()
    store = ArtifactStore(tmp_path, salt=old_salt)
    key = store.key("baseline", {"bench": "crc32"})
    store.put(key, {"cycles": 123}, kind="baseline")
    assert store.get(key) == {"cycles": 123}

    monkeypatch.setattr(store_mod, "_code_version", None)
    monkeypatch.setattr(store_mod, "LAYOUT_VERSION",
                        store_mod.LAYOUT_VERSION + 1)
    new_salt = code_version()
    assert new_salt != old_salt
    fresh = ArtifactStore(tmp_path, salt=new_salt)
    assert fresh.get(fresh.key("baseline", {"bench": "crc32"})) is MISS
    # Same parameters, same kind — only the layout version differs.
    assert fresh.key("baseline", {"bench": "crc32"}) != key


def test_source_digest_covers_native_kernel_sources(tmp_path):
    """Editing a ``.c`` source changes the salt like a ``.py`` edit does.

    The plan kernels live in ``pipeline/_ckern.c``; the code-version
    salt globs ``*.c`` next to the Python sources, so shipping new C
    code invalidates every cached artifact automatically.
    """
    from repro.exec.store import source_digest

    root = tmp_path / "repro"
    pkg = root / "pipeline"
    pkg.mkdir(parents=True)
    (pkg / "core.py").write_text("python = 1\n")
    (pkg / "_ckern.c").write_text("int kernel(void) { return 1; }\n")
    baseline = source_digest(root, packages=("pipeline",))
    assert baseline == source_digest(root, packages=("pipeline",))

    (pkg / "_ckern.c").write_text("int kernel(void) { return 2; }\n")
    assert source_digest(root, packages=("pipeline",)) != baseline

    # A .py edit moves it too (sanity: the digest is not .c-only).
    (pkg / "core.py").write_text("python = 2\n")
    moved = source_digest(root, packages=("pipeline",))
    assert moved != baseline


def test_code_version_matches_source_digest_of_tree():
    """code_version() is exactly the digest of the shipped tree."""
    from pathlib import Path

    import repro
    from repro.exec.store import source_digest

    root = Path(repro.__file__).resolve().parent
    assert code_version() == source_digest(root)


def test_dedup_hard_links_identical_payloads(tmp_path):
    """Distinct keys with identical bytes end up sharing one inode;
    reads and file names are untouched."""
    store = ArtifactStore(tmp_path)
    keys = [store.key("plan", {"n": n}) for n in range(3)]
    other = store.key("plan", {"n": "other"})
    for key in keys:
        store.put(key, {"same": [1, 2, 3]}, "plan")
    store.put(other, {"different": True}, "plan")
    names = sorted(path.name for path in tmp_path.glob("??/*"))

    def payload(key):
        return store.backend.payload_path(key, "plan")

    report = store.dedup()
    assert report["groups"] == 1
    assert report["linked"] == 2
    assert report["bytes_saved"] == 2 * payload(keys[0]).stat().st_size
    inodes = {payload(key).stat().st_ino for key in keys}
    assert len(inodes) == 1
    assert payload(other).stat().st_ino not in inodes
    assert sorted(path.name for path in tmp_path.glob("??/*")) == names

    fresh = ArtifactStore(tmp_path)
    for key in keys:
        assert fresh.get(key, "plan") == {"same": [1, 2, 3]}
    assert fresh.get(other, "plan") == {"different": True}
    assert fresh.stats.corrupt_dropped == 0
    assert store.dedup()["linked"] == 0      # idempotent
