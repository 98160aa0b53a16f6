"""The content-addressed on-disk cache store.

Contract under test: atomic write-then-rename, lock-free reads that treat
missing/corrupt files as misses and leave every file as they found it, a
store that keeps every entry, graceful degradation for entries that do
not pickle, and the entry format: a plain pickle of the entry's own
value, streamed into the file.
"""

import hashlib
import os
import pickle

import pytest

from repro.core.cachestore import DiskCacheStore
from repro.core.errors import CacheError


def key_of(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestAddressing:
    def test_two_level_layout(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        key = key_of("a")
        assert store.path_for(key) == tmp_path / key[:2] / f"{key}.pkl"

    @pytest.mark.parametrize(
        "bad",
        ["", "a/b", "a\\b", "a.b", "../../etc", "a\x00b", "ab\n", " ab", "AB", b"ab", 7, None],
    )
    def test_malformed_keys_rejected(self, tmp_path, bad):
        """Keys are lowercase hex and nothing else, so no key can address
        a path outside the store."""
        store = DiskCacheStore(tmp_path)
        with pytest.raises(CacheError, match="malformed cache key"):
            store.path_for(bad)
        with pytest.raises(CacheError, match="malformed cache key"):
            store.write(bad, "payload")
        assert list(tmp_path.iterdir()) == []


class TestReadWrite:
    def test_roundtrip(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        key = key_of("entry")
        assert store.write(key, {"value": [1, 2, 3]}) is True
        assert store.read(key) == {"value": [1, 2, 3]}
        assert key in store
        assert len(store) == 1
        assert store.keys() == [key]

    def test_missing_key_is_a_miss(self, tmp_path):
        assert DiskCacheStore(tmp_path).read(key_of("nope")) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        key = key_of("torn")
        store.write(key, "payload")
        store.path_for(key).write_bytes(b"\x80\x04 garbage not a pickle")
        assert store.read(key) is None

    def test_truncated_entry_is_a_miss(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        key = key_of("short")
        store.write(key, list(range(100)))
        blob = store.path_for(key).read_bytes()
        store.path_for(key).write_bytes(blob[: len(blob) // 2])
        assert store.read(key) is None

    def test_overwrite_replaces(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        key = key_of("k")
        store.write(key, "old")
        store.write(key, "new")
        assert store.read(key) == "new"
        assert len(store) == 1

    def test_unpicklable_entry_skipped(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        key = key_of("closure")
        assert store.write(key, lambda: None) is False
        assert store.read(key) is None
        assert len(store) == 0

    def test_no_temp_files_left_behind(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        for i in range(5):
            store.write(key_of(f"e{i}"), i)
        # An entry that fails to pickle *after* megabytes reached the file.
        assert store.write(key_of("late"), [bytes(4 << 20), lambda: None]) is False
        leftovers = [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]
        assert leftovers == []
        assert len(store) == 5

    def test_an_entry_streams_and_no_blob_is_built(self, tmp_path, monkeypatch):
        def no_blob(*args, **kwargs):
            raise AssertionError("the entry was pickled into memory first")

        monkeypatch.setattr(pickle, "dumps", no_blob)
        store = DiskCacheStore(tmp_path)
        key = key_of("streamed")
        assert store.write(key, {"raw": bytes(1 << 20)}) is True
        assert store.read(key) == {"raw": bytes(1 << 20)}

    def test_delete(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        key = key_of("gone")
        store.write(key, 1)
        assert store.delete(key) is True
        assert store.delete(key) is False
        assert store.read(key) is None

    def test_clear_and_stats(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        for i in range(3):
            store.write(key_of(f"e{i}"), i)
        stats = store.stats()
        assert stats["entries"] == 3 and stats["bytes"] > 0
        assert store.clear() == 3
        assert store.stats() == {"entries": 0, "bytes": 0}

    def test_payload_is_plain_pickle(self, tmp_path):
        """Another process (or run) needs only pickle to read an entry."""
        store = DiskCacheStore(tmp_path)
        key = key_of("shared")
        store.write(key, ("tuple", 7))
        with store.path_for(key).open("rb") as handle:
            assert pickle.load(handle) == ("tuple", 7)


class TestGarbageCollection:
    def test_unbounded_store_never_collects(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        keys = [key_of(f"e{i}") for i in range(4)]
        for key in keys:
            store.write(key, b"x" * 64)
        assert store.gc() == 0
        assert store.keys() == sorted(keys)

    def test_write_triggers_gc(self, tmp_path, monkeypatch):
        """Every write still ends in ``gc``, the boundary perfbench times."""
        calls = []
        monkeypatch.setattr(DiskCacheStore, "gc", lambda store: calls.append(store) or 0)
        store = DiskCacheStore(tmp_path)
        store.write(key_of("a"), 1)
        store.write(key_of("b"), 2)
        assert calls == [store, store]

    def test_a_read_leaves_the_entry_file_untouched(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        key = key_of("read")
        store.write(key, list(range(10)))
        path = store.path_for(key)
        os.utime(path, ns=(10**9, 10**9))
        before = path.read_bytes()
        assert store.read(key) == list(range(10))
        assert path.stat().st_mtime_ns == 10**9
        assert path.read_bytes() == before
