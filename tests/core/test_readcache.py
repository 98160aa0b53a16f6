"""The read cache: LRU, admission, negatives."""

import dataclasses
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import readcache
from repro.core.errors import CacheError
from repro.core.readcache import ReadCache
from repro.core.telemetry import Telemetry, TelemetryEvent
from repro.core.workload import (
    AdmissionController,
    OpSpec,
    TenantSpec,
    TraceReplayer,
    WorkloadSpec,
    generate_trace,
)
from tests.conftest import fingerprint
from tests.test_pins import PINS


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


def failing_loader():
    raise RuntimeError("backend down")


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

    def test_a_failed_load_admits_nothing(self):
        cache = ReadCache(capacity=4)
        with pytest.raises(RuntimeError, match="backend down"):
            cache.get_or_load("broken", failing_loader)
        assert "broken" not in cache and cache.stats.misses == 1
        assert cache.get_or_load("broken", lambda: "up") == "up"

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
    def test_lru_victim_is_the_least_recently_used(self):
        cache = ReadCache(capacity=2)
        cache.get_or_load("a", lambda: 1)
        cache.get_or_load("b", lambda: 2)
        cache.get_or_load("a", lambda: 1)  # refresh a; b is now LRU
        cache.get_or_load("c", lambda: 3)  # asked for as often as b: admitted, evicts b
        assert cache.keys() == ["a", "c"]
        assert cache.stats.evictions == 1

    def test_admission_filter_protects_the_hot_set(self):
        cache = ReadCache(capacity=2)
        for _ in range(5):
            cache.get_or_load("hot1", lambda: 1)
            cache.get_or_load("hot2", lambda: 2)
        # A one-hit wonder must not displace a frequently-read entry.
        cache.get_or_load("wonder", lambda: 3)
        assert "wonder" not in cache
        assert cache.stats.admission_rejected == 1
        assert "hot1" in cache and "hot2" in cache

    def test_repeatedly_requested_key_eventually_admitted(self):
        cache = ReadCache(capacity=2)
        cache.get_or_load("a", lambda: 1)
        cache.get_or_load("b", lambda: 2)
        for _ in range(5):
            cache.get_or_load("riser", lambda: 3)  # misses build frequency
        assert "riser" in cache

    def test_sketch_ages_out_old_popularity(self):
        cache = ReadCache(capacity=2)
        for _ in range(8):
            cache.get_or_load("old", lambda: 1)
        # Saturate the sketch well past capacity * decay factor.
        for i in range(30):
            cache.get_or_load(f"filler{i}", lambda: i)
        assert cache._freq.get("old", 0) < 8


class TestTelemetry:
    def test_events_mirror_the_traffic(self):
        bus = Telemetry()
        cache = ReadCache(capacity=1, telemetry=bus)
        cache.get_or_load("a", lambda: 1)  # miss + admit
        cache.get_or_load("a", lambda: 1)  # hit
        cache.get_or_load("gone", lambda: None)  # miss, rejected (asked once, a twice)
        cache.get_or_load("gone", lambda: None)  # miss + evict(a) + admit
        cache.get_or_load("gone", lambda: None)  # negative hit
        kinds = [event.kind for event in bus.events()]
        assert kinds == [
            "readcache.miss",
            "readcache.admit",
            "readcache.hit",
            "readcache.miss",
            "readcache.miss",
            "readcache.evict",
            "readcache.admit",
            "readcache.hit",
        ]
        hits = [e for e in bus.events() if e.kind == "readcache.hit"]
        assert dict(hits[1].attrs).get("negative") is True
        assert all(event.name == "readcache" for event in bus.events())

    def test_pinned_replay_keeps_its_canonical_digest(self):
        """Its log was pinned before the cache called ``Telemetry.emit``
        directly and before ``emit`` built its record with
        ``tuple.__new__``; any change to an event's kind, name, attrs,
        span, order or sim-time moves it.

        It was also pinned while a cache took its event name as an
        option, and this replay's was ``"rc"``.  The name is the constant
        ``"readcache"`` now, so the cache's events are digested with that
        one field read back as ``"rc"``; the bus's own events keep theirs.
        """
        bus = pinned_replay()
        got = fingerprint(bus)
        got["accounting"]["events"] = fingerprint([
            TelemetryEvent(event.seq, event.kind, "rc", event.sim_time, event.attrs, event.span)
            if event.name == "readcache" else event
            for event in bus.events()
        ])["accounting"]["events"]
        assert got == PINS["readcache replay"]


def pinned_replay():
    """The bus of a small fixed replay: two tenants over a cache of 4, one
    key absent (negative hits), a valve that sheds."""
    keys = tuple(f"k{i}" for i in range(12))
    spec = WorkloadSpec(
        name="pinned",
        seed=7,
        duration_s=30.0,
        tenants=(
            TenantSpec("crawler", 3.0, (OpSpec("get", 1.0, keys, zipf_s=0.3),)),
            TenantSpec("analyst", 2.0, (OpSpec("get", 1.0, keys[:5], zipf_s=1.2),)),
        ),
    )
    bus = Telemetry()
    cache = ReadCache(capacity=4, telemetry=bus)

    def get(request):
        key = request.key
        return cache.get_or_load(key, lambda: None if key == "k3" else key.upper())

    replayer = TraceReplayer(
        {"get": get}, telemetry=bus, admission=AdmissionController(4.0, burst=2.0)
    )
    with bus.span("serve", tenants=2):
        replayer.replay(generate_trace(spec))
    return bus


class TestReentrantLoad:
    def test_a_loader_may_load_its_own_key(self):
        """A loader that asks the cache for the key it is loading gets a
        second miss and its own load; the outer call returns its value."""
        cache = ReadCache(capacity=4)

        def outer():
            assert cache.get_or_load("k", lambda: "inner") == "inner"
            return "outer"

        previous = signal.signal(signal.SIGALRM, _timed_out)
        signal.alarm(5)
        try:
            assert cache.get_or_load("k", outer) == "outer"
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert cache.stats.misses == 2 and cache.stats.hits == 0


def _timed_out(signum, frame):
    raise TimeoutError("a re-entrant load blocked")


class ModelCache:
    """What :class:`ReadCache` promises, written the slow and obvious way."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = {}  # insertion-ordered: the first key is the LRU victim
        self.freq = {}
        self.events = []  # (kind, key, extra attrs)
        self.stats = dict.fromkeys(
            (f.name for f in dataclasses.fields(readcache.ReadCacheStats)), 0
        )

    def note(self, counter, kind, key, **attrs):
        self.stats[counter] += 1
        if kind is not None:
            self.events.append((kind, key, attrs))

    def get_or_load(self, key, loaded):
        self.freq[key] = self.freq.get(key, 0) + 1
        if sum(self.freq.values()) >= self.capacity * 10:  # the sketch ages
            self.freq = {k: c // 2 for k, c in self.freq.items() if c // 2}
        if key in self.entries:
            value = self.entries[key] = self.entries.pop(key)  # now most recent
            if value is None:
                self.note("negative_hits", "readcache.hit", key, negative=True)
            else:
                self.note("hits", "readcache.hit", key)
            return value
        self.note("misses", "readcache.miss", key)
        if len(self.entries) >= self.capacity:
            victim = next(iter(self.entries))
            if self.freq.get(key, 0) < self.freq.get(victim, 0):
                self.note("admission_rejected", None, key)
                return loaded
            del self.entries[victim]
            self.note("evictions", "readcache.evict", victim)
        self.entries[key] = loaded
        self.note("admitted", "readcache.admit", key)
        return loaded

    def invalidate(self, key):
        return self.entries.pop(key, self) is not self

    def clear(self):
        dropped = len(self.entries)
        self.entries.clear()
        self.freq.clear()
        return dropped


KEY_SPACE = [f"k{i}" for i in range(6)]
# Mostly reads, so runs between two ``clear``s are long enough to age the sketch.
OPERATIONS = st.tuples(
    st.sampled_from(("get",) * 12 + ("invalidate", "invalidate", "clear")),
    st.sampled_from(KEY_SPACE),
    st.sampled_from([None, 1, 2]),  # what a loader returns: None is a negative
)


class TestAgainstModel:
    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(2, 3),
        operations=st.lists(OPERATIONS, min_size=25, max_size=100),
    )
    def test_events_stats_and_results_match_the_model(self, capacity, operations):
        bus = Telemetry()
        cache = ReadCache(capacity, telemetry=bus)
        model = ModelCache(capacity)
        sim_times = []
        for op, key, loaded in operations:
            bus.clock.advance(1.0)
            emitted = len(model.events)
            if op == "get":
                assert cache.get_or_load(key, lambda: loaded) == model.get_or_load(
                    key, loaded
                )
            elif op == "invalidate":
                assert cache.invalidate(key) == model.invalidate(key)
            else:
                assert cache.clear() == model.clear()
            sim_times += [bus.clock.now] * (len(model.events) - emitted)
            assert cache.keys() == list(model.entries)
        assert [event.to_dict() for event in bus.events()] == [
            {"seq": seq, "kind": kind, "name": "readcache", "sim_time": sim_time,
             "span": [], "attrs": {"key": key, **attrs}}
            for seq, ((kind, key, attrs), sim_time) in enumerate(
                zip(model.events, sim_times)
            )
        ]
        assert dataclasses.asdict(cache.stats) == model.stats
