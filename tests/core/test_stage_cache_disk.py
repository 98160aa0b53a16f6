"""The stage cache over a shared on-disk store, and the cache-key bugfix.

Two contracts:

* **Shared store** — a fresh :class:`StageCache` (fresh process, fresh
  run) pointed at the same store root replays warm with byte-identical
  accounting, including two engines hammering one store concurrently.
* **Entry format** — a stage entry whose stash holds a shard value the
  cache has stored *names* that shard entry instead of containing it; a
  name that no longer resolves is a miss that the next store heals, never
  a wrong value; a bounded store collects the entries nothing names
  before the parts of the entry just written.
* **Unverifiable inputs** — an input dataset that *claims* a provenance
  id whose stamp cannot be resolved must make the stage uncacheable, not
  silently collide with genuinely unstamped seed data on the
  ``"unstamped"`` digest (the bug this PR fixes).
"""

import os
import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataflow import DataFlow
from repro.core.dataset import Dataset
from repro.core.engine import Engine
from repro.core.errors import UnverifiableInputError
from repro.core.stagecache import CachedShard, CachedStage, StageCache
from repro.core.telemetry import strip_wall_clock
from repro.core.units import DataSize, Duration


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

    def test_l1_eviction_keeps_disk_copy(self, tmp_path):
        cache = StageCache.on_disk(tmp_path, max_entries=1)
        cache.store(KEY, entry("first"))
        cache.store(OTHER, entry("second"))
        assert cache.stats()["entries"] == 1  # first evicted from L1
        hit = cache.lookup(KEY)
        assert hit is not None and cache.disk_hits == 1

    def test_disk_store_bounds_plumbed(self, tmp_path):
        cache = StageCache.on_disk(tmp_path, max_bytes=123, max_disk_entries=4)
        assert cache.disk.max_bytes == 123
        assert cache.disk.max_entries == 4

    def test_stats_shape_unchanged(self, tmp_path):
        cache = StageCache.on_disk(tmp_path)
        cache.store(KEY, entry())
        cache.lookup(KEY)
        assert set(cache.stats()) == {"hits", "misses", "evictions", "entries"}


def shard_value():
    """A fresh, equal object each call — a few hundred kB on disk."""
    return [list(range(50_000)), "beam"]


def file_size(cache, key):
    return cache.disk.path_for(key).stat().st_size


class TestStageEntryNamesShards:
    @pytest.mark.parametrize(
        "place",
        [
            lambda value: {"observations": value},
            lambda value: {"observations": {7: value}, "raw_size": 3.0},
            lambda value: {"observations": [[value]]},
        ],
        ids=["direct", "in-a-dict", "in-a-list"],
    )
    def test_stage_entry_names_a_stored_shard(self, tmp_path, place):
        cache = StageCache.on_disk(tmp_path)
        value = shard_value()
        cache.store_shard(SHARD, value)
        stage = entry(stash=place(value))
        cache.store(KEY, stage)
        assert file_size(cache, KEY) < 0.01 * file_size(cache, SHARD)

        fresh = StageCache.on_disk(tmp_path)  # a new process: nothing in memory
        assert fresh.lookup(KEY) == stage
        # Resolving the name is not a lookup: one stage hit, no shard traffic.
        assert (fresh.hits, fresh.misses, fresh.disk_hits) == (1, 0, 1)
        assert fresh.shard_hits == 0 and fresh.shard_misses == 0
        # ... but the shard was promoted, so the next entry shares the object.
        assert SHARD in fresh

    def test_a_shard_hit_is_named_like_a_shard_store(self, tmp_path):
        StageCache.on_disk(tmp_path).store_shard(SHARD, shard_value())
        cache = StageCache.on_disk(tmp_path)
        stage = entry(stash={"observations": cache.lookup_shard(SHARD).value})
        cache.store(KEY, stage)
        assert file_size(cache, KEY) < 0.01 * file_size(cache, SHARD)
        assert StageCache.on_disk(tmp_path).lookup(KEY) == stage

    def test_two_names_of_one_shard_load_as_one_object(self, tmp_path):
        cache = StageCache.on_disk(tmp_path)
        value = shard_value()
        cache.store_shard(SHARD, value)
        cache.store(KEY, entry(stash={"a": value, "b": [value]}))
        cache.store(OTHER, entry(stash={"c": value}))
        fresh = StageCache.on_disk(tmp_path)
        first, second = fresh.lookup(KEY), fresh.lookup(OTHER)
        assert first.stash["a"] is first.stash["b"][0] is second.stash["c"]

    def test_equal_but_not_identical_is_embedded(self, tmp_path):
        cache = StageCache.on_disk(tmp_path)
        cache.store_shard(SHARD, shard_value())
        stage = entry(stash={"observations": shard_value()})
        cache.store(KEY, stage)
        assert file_size(cache, KEY) > 0.9 * file_size(cache, SHARD)
        # Nothing named: the entry is a plain pickle, whoever reads it.
        with cache.disk.path_for(KEY).open("rb") as handle:
            assert pickle.load(handle) == stage

    @pytest.mark.parametrize("atom", [None, 0, 1.5, "beam", b"raw", ()])
    def test_atoms_are_never_names(self, tmp_path, atom):
        """``None`` is one object everywhere: a shard that returned it must
        not make every later ``None`` depend on that shard's file."""
        cache = StageCache.on_disk(tmp_path)
        cache.store_shard(SHARD, atom)
        stage = entry(stash={"value": atom, "others": [atom, atom]})
        cache.store(KEY, stage)
        cache.invalidate(SHARD)
        assert StageCache.on_disk(tmp_path).lookup(KEY) == stage

    @pytest.mark.parametrize(
        "max_entries, forget",
        [
            (1, lambda cache: None),  # storing the stage evicts the shard
            (None, lambda cache: cache.invalidate(SHARD)),
            (None, lambda cache: cache.clear()),
            (None, lambda cache: cache.store_shard(SHARD, shard_value())),
        ],
        ids=["lru-eviction", "invalidate", "clear", "overwrite"],
    )
    def test_a_value_the_l1_let_go_is_embedded(self, tmp_path, max_entries, forget):
        cache = StageCache.on_disk(tmp_path, max_entries=max_entries)
        value = shard_value()
        cache.store_shard(SHARD, value)
        forget(cache)
        stage = entry(stash={"observations": value})
        cache.store(KEY, stage)
        assert file_size(cache, KEY) > 100_000
        with cache.disk.path_for(KEY).open("rb") as handle:
            assert pickle.load(handle) == stage

    @pytest.mark.parametrize(
        "damage",
        [
            lambda cache, stage, value: cache.disk.path_for(SHARD).unlink(),
            lambda cache, stage, value: cache.disk.path_for(SHARD).write_bytes(
                cache.disk.path_for(SHARD).read_bytes()[: file_size(cache, SHARD) // 2]
            ),
            lambda cache, stage, value: cache.disk.write(SHARD, entry()),
            lambda cache, stage, value: cache.disk.write(
                KEY, stage, lambda obj: "../x" if obj is value else None
            ),
            lambda cache, stage, value: cache.disk.write(
                KEY, stage, lambda obj: ["not", "a", "key"] if obj is value else None
            ),
        ],
        ids=["deleted", "truncated", "not-a-shard", "path-escape", "unhashable"],
    )
    def test_a_dangling_name_is_a_miss_and_a_store_heals_it(self, tmp_path, damage):
        cache = StageCache.on_disk(tmp_path)
        value = shard_value()
        cache.store_shard(SHARD, value)
        stage = entry(stash={"observations": {0: value}})
        cache.store(KEY, stage)
        damage(cache, stage, value)

        fresh = StageCache.on_disk(tmp_path)
        assert fresh.lookup(KEY) is None  # never a wrong value, never an exception
        assert (fresh.hits, fresh.misses) == (0, 1)
        # The recompute: the shard is stored again, then the stage over the old file.
        fresh.store_shard(SHARD, value)
        fresh.store(KEY, stage)
        assert StageCache.on_disk(tmp_path).lookup(KEY) == stage

    def test_a_store_without_the_cache_reads_a_naming_entry_as_a_miss(self, tmp_path):
        cache = StageCache.on_disk(tmp_path)
        value = shard_value()
        cache.store_shard(SHARD, value)
        cache.store(KEY, entry(stash={"observations": value}))
        assert cache.disk.read(KEY) is None
        assert cache.disk.read(SHARD) == CachedShard(value)

    def test_a_bounded_store_collects_what_no_entry_names_first(self, tmp_path):
        """GC is oldest-first, and the shards a stage entry names are older
        than the entry: storing it touches them, so an unrelated newer
        shard goes first and the entry stays whole."""
        cache = StageCache.on_disk(tmp_path)
        a, b = np.arange(100_000, dtype=np.float64), np.ones(100_000)
        named, unrelated, stage_key = ("a" * 64, "b" * 64), "c" * 64, "d" * 64
        cache.store_shard(named[0], a)
        cache.store_shard(named[1], b)
        cache.store_shard(unrelated, np.zeros(100_000))
        for age, key in enumerate((*named, unrelated)):  # set, not slept: clocks are coarse
            os.utime(cache.disk.path_for(key), ns=(10**18 + age, 10**18 + age))
        cache.disk.max_bytes = sum(file_size(cache, key) for key in named) + 4096
        cache.store(stage_key, CachedStage.capture(
            Dataset("x", DataSize(1.0)), 0.0, {"vals": [a, b]}
        ))
        assert cache.disk.keys() == sorted((*named, stage_key))
        mtimes = {key: cache.disk.path_for(key).stat().st_mtime_ns for key in cache.disk.keys()}
        assert mtimes[stage_key] > max(mtimes[key] for key in named)
        hit = StageCache.on_disk(tmp_path).lookup(stage_key)
        assert hit is not None
        assert np.array_equal(hit.stash["vals"][0], a)
        assert np.array_equal(hit.stash["vals"][1], b)

    def test_a_named_entry_gone_from_disk_is_skipped_on_write(self, tmp_path):
        cache = StageCache.on_disk(tmp_path)
        value = shard_value()
        cache.store_shard(SHARD, value)
        cache.disk.path_for(SHARD).unlink()
        cache.store(KEY, entry(stash={"observations": value}))
        assert cache.disk.keys() == [KEY]  # written, and nothing recreated
        assert StageCache.on_disk(tmp_path).lookup(KEY) is None

    def test_an_entry_written_by_plain_pickle_dumps_still_loads(self, tmp_path):
        """The format every store on disk today is in."""
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
@given(ops=st.lists(cache_ops, max_size=14), max_entries=st.integers(1, 3))
def test_any_history_reads_back_the_stored_value_or_nothing(
    tmp_path_factory, ops, max_entries
):
    """Held to a dict: whatever was stored, evicted, invalidated or named
    across restarts, a lookup returns the value stored under that key or
    ``None`` — and it *must* return it when nothing it may name was dropped."""
    root = tmp_path_factory.mktemp("history")
    cache = StageCache.on_disk(root, max_entries=max_entries)
    model = {}  # key -> the entry last stored and not invalidated since
    may_name = {}  # stage key -> shard keys whose live object its stash held

    def shard_for(key):  # a content address: the key decides the value
        return [key[:4], list(range(40))]

    for op in ops:
        if op[0] == "store_shard":
            cache.store_shard(op[1], shard_for(op[1]))
            model[op[1]] = CachedShard(shard_for(op[1]))
        elif op[0] == "store":
            _, key, wanted = op
            stash, named = {}, set()
            for slot, shard in enumerate(wanted):
                hit = cache.lookup_shard(shard)
                if hit is not None:
                    named.add(shard)
                stash[slot] = [hit.value if hit is not None else shard_for(shard)]
            stage = entry(stash=stash or None)
            cache.store(key, stage)
            model[key], may_name[key] = stage, named
        elif op[0] == "invalidate":
            cache.invalidate(op[1])
            model.pop(op[1], None)
        elif op[0] == "clear":
            cache.clear()
        else:
            cache = StageCache.on_disk(root, max_entries=max_entries)

        for key in SHARD_KEYS:
            assert cache.lookup_shard(key) == model.get(key)
        for key in STAGE_KEYS:
            got = cache.lookup(key)
            if key in model and all(shard in model for shard in may_name[key]):
                assert got == model[key]
            else:
                assert got is None or got == model.get(key)
                assert key in model or got is None


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
        assert warm.summary_rows() == cold.summary_rows()
        assert strip_wall_clock(warm.events) == strip_wall_clock(cold.events)

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
        assert strip_wall_clock(warm.events) == strip_wall_clock(cold.events)

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
            assert report.summary_rows() == reference.summary_rows()
            assert strip_wall_clock(report.events) == strip_wall_clock(
                reference.events
            )


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
        assert (
            cache.registry.value("stage_cache.unverified_inputs") == 1
        )

    def test_unstamped_seed_still_caches(self):
        """The legitimate no-provenance case keeps its old behaviour."""
        cache = StageCache()
        for _ in range(2):
            Engine(seed=1, cache=cache).run(
                self.consume_flow(),
                inputs={"consume": Dataset("ext", DataSize(10.0))},
            )
        assert cache.hits == 1
        assert cache.registry.value("stage_cache.unverified_inputs") == 0
