"""The read cache: LRU, admission, negatives, coalescing."""

import threading

import pytest

from repro.core.errors import CacheError
from repro.core.readcache import ReadCache
from repro.core.telemetry import Telemetry


class CountingLoader:
    """A loader that counts its calls and serves from a backing dict."""

    def __init__(self, backing=None):
        self.backing = backing if backing is not None else {}
        self.calls = 0

    def loader_for(self, key):
        def load():
            self.calls += 1
            return self.backing.get(key)

        return load


class TestBasics:
    def test_hit_after_miss(self):
        cache = ReadCache(capacity=4)
        source = CountingLoader({"k": b"v"})
        assert cache.get_or_load("k", source.loader_for("k")) == b"v"
        assert cache.get_or_load("k", source.loader_for("k")) == b"v"
        assert source.calls == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)
        assert "k" in cache and len(cache) == 1

    def test_negative_results_are_cached(self):
        cache = ReadCache(capacity=4)
        source = CountingLoader({})  # key absent
        assert cache.get_or_load("gone", source.loader_for("gone")) is None
        assert cache.get_or_load("gone", source.loader_for("gone")) is None
        assert source.calls == 1
        assert cache.stats.negative_hits == 1
        assert cache.peek("gone") is None  # negatives read back as None

    def test_capacity_validation(self):
        with pytest.raises(CacheError, match="capacity"):
            ReadCache(capacity=0)

    def test_invalidate(self):
        cache = ReadCache(capacity=4)
        cache.get_or_load("a:1", lambda: 1)
        cache.get_or_load("a:2", lambda: 2)
        cache.get_or_load("b:1", lambda: 3)
        assert cache.invalidate("a:1") is True
        assert cache.invalidate("a:1") is False
        assert cache.invalidate_prefix("a:") == 1
        assert cache.keys() == ["b:1"]
        assert cache.clear() == 1
        assert len(cache) == 0


class TestLruAndAdmission:
    def test_lru_eviction_without_admission(self):
        cache = ReadCache(capacity=2, admission=False)
        cache.get_or_load("a", lambda: 1)
        cache.get_or_load("b", lambda: 2)
        cache.get_or_load("a", lambda: 1)  # refresh a; b is now LRU
        cache.get_or_load("c", lambda: 3)  # evicts b
        assert cache.keys() == ["a", "c"]
        assert cache.stats.evictions == 1

    def test_admission_filter_protects_the_hot_set(self):
        cache = ReadCache(capacity=2, admission=True)
        for _ in range(5):
            cache.get_or_load("hot1", lambda: 1)
            cache.get_or_load("hot2", lambda: 2)
        # A one-hit wonder must not displace a frequently-read entry.
        cache.get_or_load("wonder", lambda: 3)
        assert "wonder" not in cache
        assert cache.stats.admission_rejected == 1
        assert "hot1" in cache and "hot2" in cache

    def test_repeatedly_requested_key_eventually_admitted(self):
        cache = ReadCache(capacity=2, admission=True)
        cache.get_or_load("a", lambda: 1)
        cache.get_or_load("b", lambda: 2)
        for _ in range(5):
            cache.get_or_load("riser", lambda: 3)  # misses build frequency
        assert "riser" in cache

    def test_sketch_ages_out_old_popularity(self):
        cache = ReadCache(capacity=2, admission=True)
        for _ in range(8):
            cache.get_or_load("old", lambda: 1)
        # Saturate the sketch well past capacity * decay factor.
        for i in range(30):
            cache.get_or_load(f"filler{i}", lambda: i)
        assert cache._freq.get("old", 0) < 8


class TestTelemetry:
    def test_events_mirror_the_traffic(self):
        bus = Telemetry()
        cache = ReadCache(capacity=1, admission=False, telemetry=bus, name="rc")
        cache.get_or_load("a", lambda: 1)  # miss + admit
        cache.get_or_load("a", lambda: 1)  # hit
        cache.get_or_load("gone", lambda: None)  # miss + evict(a) + admit
        cache.get_or_load("gone", lambda: None)  # negative hit
        kinds = [event.kind for event in bus.events()]
        assert kinds == [
            "readcache.miss",
            "readcache.admit",
            "readcache.hit",
            "readcache.miss",
            "readcache.evict",
            "readcache.admit",
            "readcache.hit",
        ]
        hits = [e for e in bus.events() if e.kind == "readcache.hit"]
        assert dict(hits[1].attrs).get("negative") is True
        assert all(event.name == "rc" for event in bus.events())


class TestCoalescing:
    def test_concurrent_loads_collapse_to_one(self):
        cache = ReadCache(capacity=8)
        gate = threading.Event()
        calls = []

        def slow_loader():
            gate.wait(timeout=5.0)
            calls.append(1)
            return b"payload"

        results = []

        def reader():
            results.append(cache.get_or_load("k", slow_loader))

        threads = [threading.Thread(target=reader) for _ in range(6)]
        for thread in threads:
            thread.start()
        gate.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert results == [b"payload"] * 6
        assert len(calls) == 1
        assert cache.stats.coalesced >= 1
        assert cache.stats.misses == 1

