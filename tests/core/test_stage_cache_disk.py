"""The stage cache over a shared on-disk store, and the cache-key bugfix.

Two contracts:

* **Shared store** — a fresh :class:`StageCache` (fresh process, fresh
  run) pointed at the same store root replays warm with byte-identical
  accounting, including two engines hammering one store concurrently.
* **Entry format** — every entry on disk is a plain pickle of its own
  value, so a key stored and not invalidated reads back equal whatever
  else was invalidated, cleared or restarted; an entry an older store
  wrote by naming others is a miss, never a wrong value, and the next
  store rewrites it.
* **Unverifiable inputs** — an input dataset that *claims* a provenance
  id whose stamp cannot be resolved must make the stage uncacheable, not
  silently collide with genuinely unstamped seed data on the
  ``"unstamped"`` digest (the bug this PR fixes).
"""

import pickle
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dataflow import DataFlow
from repro.core.dataset import Dataset
from repro.core.engine import Engine
from repro.core.errors import UnverifiableInputError
from repro.core.stagecache import CachedShard, CachedStage, StageCache
from repro.core.units import DataSize, Duration
from tests.conftest import fingerprint


def entry(name="out", stash=None):
    return CachedStage.capture(
        Dataset(name, DataSize(64.0), version="v1"), 0.5, stash or {"k": 1}
    )


KEY = "a" * 64
OTHER = "b" * 64
SHARD = "c" * 64


class TestStageCacheWithDiskStore:
    def test_write_through_and_promotion(self, tmp_path):
        first = StageCache.on_disk(tmp_path)
        first.store(KEY, entry())
        assert first.disk_writes == 1
        assert first.disk_stats()["disk_entries"] == 1

        second = StageCache.on_disk(tmp_path)  # cold L1, same store
        hit = second.lookup(KEY)
        assert hit is not None and hit.stash == {"k": 1}
        assert second.disk_hits == 1 and second.hits == 1
        # Promoted into L1: the next lookup never touches the store.
        second.disk.clear()
        assert second.lookup(KEY) is not None
        assert second.disk_hits == 1 and second.hits == 2

    def test_memory_hit_skips_disk(self, tmp_path):
        cache = StageCache.on_disk(tmp_path)
        cache.store(KEY, entry())
        assert cache.lookup(KEY) is not None
        assert cache.disk_hits == 0

    def test_miss_in_both_layers(self, tmp_path):
        cache = StageCache.on_disk(tmp_path)
        assert cache.lookup(KEY) is None
        assert cache.stats()["misses"] == 1 and cache.disk_hits == 0

    def test_unpicklable_entry_degrades_to_memory_only(self, tmp_path):
        cache = StageCache.on_disk(tmp_path)
        bad = entry()
        bad.stash["closure"] = lambda: None
        cache.store(KEY, bad)
        assert cache.disk_write_skips == 1
        assert cache.disk_stats()["disk_entries"] == 0
        assert cache.lookup(KEY) is not None  # L1 still serves it

    def test_invalidate_drops_both_layers(self, tmp_path):
        cache = StageCache.on_disk(tmp_path)
        cache.store(KEY, entry())
        assert cache.invalidate(KEY) is True
        assert cache.lookup(KEY) is None
        assert StageCache.on_disk(tmp_path).lookup(KEY) is None

    def test_clear_is_memory_only_by_default(self, tmp_path):
        cache = StageCache.on_disk(tmp_path)
        cache.store(KEY, entry())
        cache.clear()
        assert cache.lookup(KEY) is not None  # refilled from the store
        cache.clear(disk=True)
        assert cache.lookup(KEY) is None

    def test_stats_shape_unchanged(self, tmp_path):
        cache = StageCache.on_disk(tmp_path)
        cache.store(KEY, entry())
        cache.lookup(KEY)
        assert set(cache.stats()) == {"hits", "misses", "entries"}


def shard_value():
    """A fresh, equal object each call — a few hundred kB on disk."""
    return [list(range(50_000)), "beam"]


def load_file(cache, key):
    with cache.disk.path_for(key).open("rb") as handle:
        return pickle.load(handle)


class TestEntryFormat:
    def test_a_stage_entry_holds_the_shard_value_it_gathers(self, tmp_path):
        cache = StageCache.on_disk(tmp_path)
        value = shard_value()
        cache.store_shard(SHARD, value)
        stage = entry(stash={"observations": {0: value}})
        cache.store(KEY, stage)
        # Each file is the plain pickle of its own value, whoever reads it.
        assert load_file(cache, SHARD) == CachedShard(value)
        assert load_file(cache, KEY) == stage
        cache.invalidate(SHARD)
        assert StageCache.on_disk(tmp_path).lookup(KEY) == stage

    def test_an_entry_written_by_plain_pickle_dumps_still_loads(self, tmp_path):
        """Entries written with an older protocol load unchanged."""
        cache = StageCache.on_disk(tmp_path)
        stage = entry(stash={"observations": shard_value()})
        path = cache.disk.path_for(KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps(stage, protocol=4))
        path_shard = cache.disk.path_for(SHARD)
        path_shard.parent.mkdir(parents=True)
        path_shard.write_bytes(pickle.dumps(CachedShard(shard_value()), protocol=4))
        assert cache.lookup(KEY) == stage
        assert cache.lookup_shard(SHARD) == CachedShard(shard_value())

    def test_an_entry_naming_a_shard_is_a_miss_until_rewritten(self, tmp_path):
        """Older stores wrote a stage entry with a persistent id in place
        of each shard value it gathered.  Such an entry reads as a miss,
        never as a wrong value, and the recompute's store replaces it."""
        cache = StageCache.on_disk(tmp_path)
        value = shard_value()
        cache.store_shard(SHARD, value)
        stage = entry(stash={"observations": {0: value}})

        class NamingPickler(pickle.Pickler):
            def persistent_id(self, obj):
                return SHARD if obj is value else None

        path = cache.disk.path_for(KEY)
        path.parent.mkdir(parents=True)
        with path.open("wb") as handle:
            NamingPickler(handle, protocol=5).dump(stage)
        assert path.stat().st_size < 1024

        fresh = StageCache.on_disk(tmp_path)
        assert fresh.lookup(KEY) is None
        assert (fresh.hits, fresh.misses) == (0, 1)
        assert fresh.lookup_shard(SHARD) == CachedShard(value)

        fresh.store(KEY, stage)
        assert load_file(fresh, KEY) == stage
        assert StageCache.on_disk(tmp_path).lookup(KEY) == stage


SHARD_KEYS = ("c" * 64, "d" * 64)
STAGE_KEYS = ("a" * 64, "b" * 64)

cache_ops = st.one_of(
    st.tuples(st.just("store_shard"), st.sampled_from(SHARD_KEYS)),
    st.tuples(
        st.just("store"),
        st.sampled_from(STAGE_KEYS),
        st.lists(st.sampled_from(SHARD_KEYS), max_size=3),
    ),
    st.tuples(st.just("invalidate"), st.sampled_from(SHARD_KEYS + STAGE_KEYS)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("new_process")),
)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(cache_ops, max_size=14))
@example(
    ops=[
        ("store_shard", SHARD_KEYS[0]),
        ("store", STAGE_KEYS[0], [SHARD_KEYS[0]]),
        ("invalidate", SHARD_KEYS[0]),
        ("new_process",),
    ]
)
def test_any_history_reads_back_the_stored_value_or_nothing(tmp_path_factory, ops):
    """Held to a dict: whatever was stored, invalidated or cleared across
    restarts, a lookup returns the value last stored under that key and
    not invalidated since, and ``None`` for any other key."""
    root = tmp_path_factory.mktemp("history")
    cache = StageCache.on_disk(root)
    model = {}  # key -> the entry last stored and not invalidated since

    def shard_for(key):  # a content address: the key decides the value
        return [key[:4], list(range(40))]

    for op in ops:
        if op[0] == "store_shard":
            cache.store_shard(op[1], shard_for(op[1]))
            model[op[1]] = CachedShard(shard_for(op[1]))
        elif op[0] == "store":
            _, key, wanted = op
            stash = {}
            for slot, shard in enumerate(wanted):
                hit = cache.lookup_shard(shard)
                stash[slot] = [hit.value if hit is not None else shard_for(shard)]
            stage = entry(stash=stash or None)
            cache.store(key, stage)
            model[key] = stage
        elif op[0] == "invalidate":
            cache.invalidate(op[1])
            model.pop(op[1], None)
        elif op[0] == "clear":
            cache.clear()
        else:
            cache = StageCache.on_disk(root)

        for key in SHARD_KEYS:
            assert cache.lookup_shard(key) == model.get(key)
        for key in STAGE_KEYS:
            assert cache.lookup(key) == model.get(key)


def counting_flow(calls):
    def source(inputs, ctx):
        calls["source"] += 1
        ctx.stash["note"] = "from-source"
        return Dataset("raw", DataSize(1000.0), version="v1")

    def double(inputs, ctx):
        calls["double"] += 1
        ctx.charge_cpu(Duration(2.0))
        return inputs["source"].derive("doubled", DataSize(2000.0))

    flow = DataFlow("disk-cached-flow")
    flow.stage("source", source, site="A")
    flow.stage("double", double, site="B", cpu_seconds_per_gb=100)
    flow.chain("source", "double")
    return flow


class TestEngineOverSharedStore:
    def test_cross_run_warm_rerun_all_hit_byte_identical(self, tmp_path):
        """A second run with a *fresh* cache instance over the same store
        root — the cross-process scenario — replays every stage."""
        calls = {"source": 0, "double": 0}
        cold_cache = StageCache.on_disk(tmp_path / "store")
        cold = Engine(seed=5, cache=cold_cache).run(counting_flow(calls))
        assert calls == {"source": 1, "double": 1}

        warm_cache = StageCache.on_disk(tmp_path / "store")
        warm = Engine(seed=5, cache=warm_cache).run(counting_flow(calls))
        assert calls == {"source": 1, "double": 1}  # nothing re-ran
        assert warm_cache.hits == 2 and warm_cache.disk_hits == 2
        assert fingerprint(warm) == fingerprint(cold)

    def test_process_engine_warm_from_sequential_prime(self, tmp_path):
        calls = {"source": 0, "double": 0}
        cold = Engine(seed=5, cache=StageCache.on_disk(tmp_path / "store")).run(
            counting_flow(calls)
        )
        warm = Engine(
            seed=5, max_workers=4, executor="process",
            cache=StageCache.on_disk(tmp_path / "store"),
        ).run(counting_flow(calls))
        assert calls == {"source": 1, "double": 1}
        assert fingerprint(warm) == fingerprint(cold)

    def test_two_engines_hammer_one_store(self, tmp_path):
        """Concurrent runs against one store stay correct: every engine
        produces the reference report whether its stages hit or miss."""
        reference = Engine(seed=5).run(counting_flow({"source": 0, "double": 0}))
        reports, errors = {}, []

        def run_one(tag):
            try:
                cache = StageCache.on_disk(tmp_path / "store")
                calls = {"source": 0, "double": 0}
                reports[tag] = Engine(seed=5, cache=cache).run(
                    counting_flow(calls)
                )
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=run_one, args=(tag,)) for tag in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        for report in reports.values():
            assert fingerprint(report) == fingerprint(reference)


class TestUnverifiableInputRegression:
    """The ``_cache_descriptor`` bugfix: a dangling provenance id must not
    alias the ``"unstamped"`` digest."""

    def consume_flow(self):
        def consume(inputs, ctx):
            return inputs["input"].derive("copy", inputs["input"].size)

        flow = DataFlow("seeded")
        flow.stage("consume", consume)
        return flow

    def test_descriptor_raises_on_dangling_provenance_id(self):
        engine = Engine(seed=1, cache=StageCache())
        dangling = Dataset(
            "ext", DataSize(10.0), provenance_id="prov-never-recorded"
        )
        with pytest.raises(UnverifiableInputError, match="prov-never-recorded"):
            engine._cache_descriptor("consume", dangling)

    def test_dangling_id_does_not_collide_with_unstamped(self):
        """Before the fix both datasets keyed as ``#unstamped`` and the
        second run *hit* the first run's entry — a wrong-result replay."""
        cache = StageCache()
        Engine(seed=1, cache=cache).run(
            self.consume_flow(),
            inputs={"consume": Dataset("ext", DataSize(10.0))},
        )
        assert cache.stats()["misses"] == 1

        dangling = Dataset(
            "ext", DataSize(10.0), provenance_id="prov-never-recorded"
        )
        Engine(seed=1, cache=cache).run(
            self.consume_flow(), inputs={"consume": dangling}
        )
        # Uncacheable, not a false hit: the stage ran, nothing was stored.
        assert cache.hits == 0
        assert cache.stats()["entries"] == 1
        assert cache.unverified_inputs == 1

    def test_unstamped_seed_still_caches(self):
        """The legitimate no-provenance case keeps its old behaviour."""
        cache = StageCache()
        for _ in range(2):
            Engine(seed=1, cache=cache).run(
                self.consume_flow(),
                inputs={"consume": Dataset("ext", DataSize(10.0))},
            )
        assert cache.hits == 1
        assert cache.unverified_inputs == 0
