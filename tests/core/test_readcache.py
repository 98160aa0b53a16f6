"""The read cache: LRU, admission, negatives, coalescing."""

import dataclasses
import sys
import threading
import time
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import readcache
from repro.core.errors import CacheError
from repro.core.readcache import ReadCache
from repro.core.telemetry import Telemetry
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


@pytest.fixture()
def events_built(monkeypatch):
    """Every ``threading.Event`` the cache module constructs, as a list."""
    built = []

    def counting_event():
        event = threading.Event()
        built.append(event)
        return event

    monkeypatch.setattr(
        readcache,
        "threading",
        types.SimpleNamespace(Event=counting_event, RLock=threading.RLock),
    )
    return built


def wait_until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


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
        cache = ReadCache(capacity=1, telemetry=bus, name="rc")
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
        assert all(event.name == "rc" for event in bus.events())

    def test_pinned_replay_keeps_its_canonical_digest(self):
        """Its log was pinned before the cache called ``Telemetry.emit``
        directly and before ``emit`` built its record with
        ``tuple.__new__``; any change to an event's kind, name, attrs,
        span, order or sim-time moves it."""
        assert fingerprint(pinned_replay()) == PINS["readcache replay"]


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
    cache = ReadCache(capacity=4, name="rc", telemetry=bus)

    def get(request):
        key = request.key
        return cache.get_or_load(key, lambda: None if key == "k3" else key.upper())

    replayer = TraceReplayer(
        {"get": get}, telemetry=bus, admission=AdmissionController(4.0, burst=2.0)
    )
    with bus.span("serve", tenants=2):
        replayer.replay(generate_trace(spec))
    return bus


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


    def test_a_lone_reader_builds_no_event(self, events_built):
        cache = ReadCache(capacity=2)
        for _ in range(4):
            cache.get_or_load("hot", lambda: 1)  # miss, then hits
        cache.get_or_load("gone", lambda: None)  # negative miss
        cache.get_or_load("gone", lambda: None)  # negative hit
        cache.get_or_load("wonder", lambda: 3)  # full: rejected against "hot"
        for _ in range(5):
            cache.get_or_load("riser", lambda: 4)  # builds frequency, then evicts
        with pytest.raises(RuntimeError):
            cache.get_or_load("broken", failing_loader)
        stats = cache.stats
        assert stats.hits and stats.misses and stats.negative_hits
        assert stats.admission_rejected and stats.evictions
        assert events_built == []
        assert cache._inflight == {}

    def test_five_waiters_share_one_load_and_one_event(self, events_built):
        cache = ReadCache(capacity=8)
        gate = threading.Event()
        calls = []

        def gated_loader():
            calls.append(1)
            assert gate.wait(timeout=10.0)
            return b"payload"

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(cache.get_or_load("k", gated_loader)),
                daemon=True,  # a reader left waiting must fail the test, not hang it
            )
            for _ in range(6)
        ]
        for thread in threads:
            thread.start()
        # The gate opens only once every other reader is parked on the winner.
        wait_until(lambda: cache.stats.coalesced == 5)
        gate.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [b"payload"] * 6
        assert len(calls) == 1
        stats = cache.stats
        assert (stats.misses, stats.coalesced, stats.hits) == (1, 5, 5)
        assert len(events_built) == 1  # installed by the first waiter, shared
        assert cache._inflight == {}

    def test_failed_winner_wakes_every_waiter_and_one_loads_next(self):
        cache = ReadCache(capacity=8)
        first_gate, second_gate = threading.Event(), threading.Event()
        calls = []

        def loader():
            calls.append(1)
            if len(calls) == 1:
                assert first_gate.wait(timeout=10.0)
                raise RuntimeError("backend down")
            assert second_gate.wait(timeout=10.0)
            return b"payload"

        results, errors = [], []

        def reader():
            try:
                results.append(cache.get_or_load("k", loader))
            except RuntimeError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=reader, daemon=True) for _ in range(4)]
        for thread in threads:
            thread.start()
        wait_until(lambda: cache.stats.coalesced == 3)
        first_gate.set()  # the winner fails with three readers waiting on it
        # All three wake; one becomes the loader, the other two wait again.
        wait_until(lambda: cache.stats.coalesced == 5)
        assert len(calls) == 2
        second_gate.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == ["backend down"]  # only the winner sees its failure
        assert results == [b"payload"] * 3
        assert len(calls) == 2
        stats = cache.stats
        assert (stats.misses, stats.coalesced, stats.hits) == (2, 5, 2)
        assert cache._inflight == {}

    def test_no_wakeup_is_lost_under_contention(self):
        # More threads than cores on few keys with a tiny switch interval:
        # a waiter that installed its Event after the winner popped the
        # slot would sleep forever and show up as a thread still alive.
        cache = ReadCache(capacity=2)
        keys = ["a", "b", "c"]
        loads, per_thread, n_threads = [], 400, 8
        wrong = []

        def reader(worker):
            for i in range(per_thread):
                key = keys[(worker + i) % len(keys)]

                def loader(key=key):
                    loads.append(key)
                    if len(loads) % 7 == 0:
                        time.sleep(0)  # hand the GIL over mid-load
                    return key.upper()

                if cache.get_or_load(key, loader) != key.upper():
                    wrong.append(key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=reader, args=(n,), daemon=True)
                for n in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30.0
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        stats = cache.stats
        assert stats.misses == len(loads)  # one loader call per counted miss
        assert stats.hits + stats.misses == n_threads * per_thread
        assert cache._inflight == {}

    @pytest.mark.parametrize(
        "invalidate",
        [
            lambda cache: cache.invalidate("k"),
            lambda cache: cache.invalidate_prefix("k"),
            ReadCache.clear,
        ],
        ids=["invalidate", "invalidate_prefix", "clear"],
    )
    def test_invalidation_racing_a_load_is_not_lost(self, invalidate):
        # The load began before the invalidation, so what it read may be
        # what the invalidation retired: its caller gets it, the cache not.
        cache = ReadCache(capacity=8)
        gate = threading.Event()
        loader = threading.Thread(
            target=cache.get_or_load,
            args=("k", lambda: "old" if gate.wait(timeout=10.0) else "timed out"),
            daemon=True,
        )
        loader.start()
        wait_until(lambda: "k" in cache._inflight)
        invalidate(cache)
        gate.set()
        loader.join(timeout=10.0)
        assert not loader.is_alive()
        assert cache.get_or_load("k", lambda: "new") == "new"
        assert cache._inflight == {}


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
        cache = ReadCache(capacity, name="rc", telemetry=bus)
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
            {"seq": seq, "kind": kind, "name": "rc", "sim_time": sim_time,
             "span": [], "attrs": {"key": key, **attrs}}
            for seq, ((kind, key, attrs), sim_time) in enumerate(
                zip(model.events, sim_times)
            )
        ]
        assert dataclasses.asdict(cache.stats) == model.stats
        assert cache._inflight == {}
