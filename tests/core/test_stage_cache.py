"""The provenance-keyed stage-result cache, at unit and engine level.

The cache's contract: a warm rerun of an unchanged flow never calls a
stage transform, yet produces a FlowReport and telemetry stream identical
to the cold run's (modulo wall-clock), because accounting replays from the
recorded results.  Any change to a stage's provenance — seed, parameters,
input content — must miss.
"""

import threading

import pytest

from repro.core.dataflow import DataFlow
from repro.core.dataset import Dataset
from repro.core.engine import Engine
from repro.core.errors import CacheError, ExecutionError
from repro.core.faults import FaultPlan, FaultSpec
from repro.core.recovery import RetryPolicy
from repro.core.stagecache import CachedStage, StageCache, stage_key
from repro.core.units import DataSize, Duration
from tests.conftest import fingerprint


class TestStageKey:
    BASE = dict(
        flow_name="f",
        stage_name="s",
        site="lab",
        cpu_seconds_per_gb=10.0,
        stage_seed=123,
        input_descriptors=["a=x@v1#d1:100.0"],
        cache_params={"alpha": 1},
    )

    def test_deterministic(self):
        assert stage_key(**self.BASE) == stage_key(**self.BASE)

    def test_input_order_irrelevant(self):
        a = stage_key(**{**self.BASE, "input_descriptors": ["a=1", "b=2"]})
        b = stage_key(**{**self.BASE, "input_descriptors": ["b=2", "a=1"]})
        assert a == b

    def test_sensitive_to_every_component(self):
        base = stage_key(**self.BASE)
        for change in (
            {"flow_name": "g"},
            {"stage_name": "t"},
            {"site": "other"},
            {"cpu_seconds_per_gb": 11.0},
            {"stage_seed": 124},
            {"input_descriptors": ["a=x@v2#d1:100.0"]},
            {"cache_params": {"alpha": 2}},
            {"cache_params": None},
        ):
            assert stage_key(**{**self.BASE, **change}) != base


class TestStageCacheUnit:
    def entry(self, name="out"):
        return CachedStage.capture(
            Dataset(name, DataSize(64.0), version="v1"), 0.5, {"k": 1}
        )

    def test_lookup_roundtrip_restores_result(self):
        cache = StageCache()
        cache.store("k1", self.entry())
        hit = cache.lookup("k1")
        assert hit is not None
        rebuilt = hit.rebuild_output()
        assert rebuilt.name == "out" and rebuilt.size == DataSize(64.0)
        assert rebuilt.provenance_id is None  # re-committed per run
        assert hit.extra_cpu_seconds == 0.5
        assert hit.stash == {"k": 1}

    def test_counters(self):
        cache = StageCache()
        assert cache.lookup("missing") is None
        cache.store("k1", self.entry())
        cache.lookup("k1")
        assert cache.stats() == {
            "hits": 1, "misses": 1, "entries": 1
        }

    def test_invalidate_and_clear(self):
        cache = StageCache()
        cache.store("a", self.entry())
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False
        cache.store("b", self.entry())
        cache.clear()
        assert len(cache) == 0

    def test_rejects_an_entry_that_is_not_a_stage(self):
        with pytest.raises(CacheError):
            StageCache().store("k", "not a CachedStage")

    def test_registry_backed_counters(self):
        """The cache's counters are its own ints, and shard traffic is
        booked apart from stage traffic."""
        cache = StageCache()
        cache.lookup("nope")
        cache.lookup_shard("nope")
        cache.store_shard("s", 1)
        cache.lookup_shard("s")
        cache.lookup_shard("s")
        assert (cache.hits, cache.misses) == (0, 1)
        assert (cache.shard_hits, cache.shard_misses) == (2, 1)
        assert cache.disk_stats()["disk_hits"] == 0


def counting_flow(calls, cache_params=None):
    """source -> double -> sink, counting transform invocations."""

    def source(inputs, ctx):
        calls["source"] += 1
        ctx.stash["note"] = "from-source"
        return Dataset("raw", DataSize(1000.0), version="v1")

    def double(inputs, ctx):
        calls["double"] += 1
        ctx.charge_cpu(Duration(2.0))
        ctx.stash["halved"] = 500.0
        return inputs["source"].derive("doubled", DataSize(2000.0))

    def sink(inputs, ctx):
        calls["sink"] += 1
        assert ctx.dep_stash("source")["note"] == "from-source"
        return inputs["double"].derive("final", DataSize(10.0))

    flow = DataFlow("cached-flow")
    flow.stage("source", source, site="A", cache_params=cache_params)
    flow.stage("double", double, site="B", cpu_seconds_per_gb=100,
               cache_params=cache_params)
    flow.stage("sink", sink, site="C", cache_params=cache_params)
    flow.chain("source", "double", "sink")
    return flow


class TestEngineCache:
    def test_warm_run_skips_all_transforms(self):
        calls = {"source": 0, "double": 0, "sink": 0}
        cache = StageCache()
        cold = Engine(seed=5, cache=cache).run(counting_flow(calls))
        assert calls == {"source": 1, "double": 1, "sink": 1}
        assert cache.stats()["misses"] == 3 and cache.stats()["hits"] == 0

        warm = Engine(seed=5, cache=cache).run(counting_flow(calls))
        assert calls == {"source": 1, "double": 1, "sink": 1}  # unchanged
        assert cache.hits == 3

        assert fingerprint(warm) == fingerprint(cold)

    def test_warm_run_restores_stashes(self):
        calls = {"source": 0, "double": 0, "sink": 0}
        cache = StageCache()
        Engine(seed=5, cache=cache).run(counting_flow(calls))
        warm = Engine(seed=5, cache=cache).run(counting_flow(calls))
        assert warm.stashes["source"] == {"note": "from-source"}
        assert warm.stashes["double"] == {"halved": 500.0}

    def test_seed_change_misses(self):
        calls = {"source": 0, "double": 0, "sink": 0}
        cache = StageCache()
        Engine(seed=5, cache=cache).run(counting_flow(calls))
        Engine(seed=6, cache=cache).run(counting_flow(calls))
        assert calls == {"source": 2, "double": 2, "sink": 2}
        assert cache.hits == 0

    def test_cache_params_change_misses(self):
        calls = {"source": 0, "double": 0, "sink": 0}
        cache = StageCache()
        Engine(seed=5, cache=cache).run(
            counting_flow(calls, cache_params={"cfg": "a"})
        )
        Engine(seed=5, cache=cache).run(
            counting_flow(calls, cache_params={"cfg": "b"})
        )
        assert calls == {"source": 2, "double": 2, "sink": 2}
        assert cache.hits == 0

    def test_seed_dataset_content_keys_source(self):
        """Source stages fed external datasets miss when the seed data
        changes size, hit when it is identical."""

        def consume(inputs, ctx):
            return inputs["input"].derive("copy", inputs["input"].size)

        def flow():
            f = DataFlow("seeded")
            f.stage("consume", consume)
            return f

        cache = StageCache()
        engine = lambda: Engine(seed=1, cache=cache)  # noqa: E731
        engine().run(flow(), inputs={"consume": Dataset("ext", DataSize(10.0))})
        engine().run(flow(), inputs={"consume": Dataset("ext", DataSize(10.0))})
        assert cache.hits == 1
        engine().run(flow(), inputs={"consume": Dataset("ext", DataSize(20.0))})
        assert cache.hits == 1 and cache.stats()["misses"] == 2

    def test_parallel_warm_run_from_sequential_prime(self):
        calls = {"source": 0, "double": 0, "sink": 0}
        cache = StageCache()
        cold = Engine(seed=5, cache=cache).run(counting_flow(calls))
        warm = Engine(seed=5, max_workers=3, cache=cache).run(
            counting_flow(calls)
        )
        assert calls == {"source": 1, "double": 1, "sink": 1}
        assert cache.hits == 3
        assert fingerprint(warm) == fingerprint(cold)

    def test_downstream_of_changed_stage_reruns(self):
        """A mid-chain result change (different stage seed) propagates:
        downstream inputs carry different digests, so nothing stale hits."""
        calls_a = {"source": 0, "double": 0, "sink": 0}
        cache = StageCache()
        Engine(seed=5, cache=cache).run(counting_flow(calls_a))
        Engine(seed=7, cache=cache).run(counting_flow(calls_a))
        # Both runs executed everything; six distinct entries cached.
        assert calls_a == {"source": 2, "double": 2, "sink": 2}
        assert cache.stats()["entries"] == 6


def replaying_flow(log, raising=None):
    """a -> b -> c, each stage writing outside the flow through its replay.

    A transform logs itself, stashes its name and calls its replay, as a
    pipeline stage does where it writes; a replay logs its own stash and
    its predecessors' (``dep_stash``).  ``raising`` names a stage whose
    replay fails.
    """
    flow = DataFlow("replayed")
    previous = None

    def bind(name, previous):
        def replay(ctx):
            upstream = ctx.dep_stash(previous)["name"] if previous else None
            log.append(("replay", ctx.stash["name"], upstream))
            if name == raising:
                raise OSError("disk full")

        def transform(inputs, ctx):
            log.append(("transform", name))
            ctx.stash["name"] = name
            replay(ctx)
            return Dataset(f"{name}-out", DataSize(100.0), version="v1")

        return transform, replay

    for name in "abc":
        transform, replay = bind(name, previous)
        flow.stage(name, transform, replay=replay)
        previous = name
    flow.chain("a", "b", "c")
    return flow


def primed_without_c(log, **engine):
    """A cache holding a and b but not c, and the log of the run that
    primed it emptied."""
    cache = StageCache()
    Engine(seed=3, cache=cache, **engine).run(replaying_flow(log))
    (c_key,) = [
        key for key, entry in cache._entries.items()
        if isinstance(entry, CachedStage) and entry.stash["name"] == "c"
    ]
    assert cache.invalidate(c_key)
    log.clear()
    return cache


class TestHitReplay:
    """A hit's writes outside the flow happen in the engine, in order."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_hits_replay_in_order_before_the_miss_starts(self, workers):
        log = []
        cache = primed_without_c(log)
        cold = Engine(seed=3).run(replaying_flow([]))
        warm = Engine(seed=3, cache=cache, max_workers=workers).run(
            replaying_flow(log)
        )
        assert log == [
            ("replay", "a", None),
            ("replay", "b", "a"),
            ("transform", "c"),
            # The transform's own call: the engine replays no executed stage.
            ("replay", "c", "b"),
        ]
        assert warm.cached_stages == ["a", "b"]
        assert fingerprint(warm) == fingerprint(cold)

    def test_a_cold_run_never_replays(self):
        log = []
        Engine(seed=3, cache=StageCache()).run(replaying_flow(log))
        assert [entry[0] for entry in log] == ["transform", "replay"] * 3

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_a_raising_replay_fails_the_run_naming_its_stage(self, workers):
        log = []
        cache = primed_without_c(log)
        threads = threading.active_count()
        with pytest.raises(ExecutionError, match="'b': replay failed: disk full") as info:
            Engine(seed=3, cache=cache, max_workers=workers).run(
                replaying_flow(log, raising="b")
            )
        assert info.value.stage == "b"
        assert isinstance(info.value.__cause__, OSError)
        assert ("transform", "c") not in log
        assert threading.active_count() == threads

    def test_a_replay_does_not_consult_the_fault_injector(self):
        """A plan that crashes ``a`` on its first attempt salts the keys
        the retried cold run stored; a fresh arming of the same plan would
        crash ``a`` again, but a hit's replay is not an attempt."""

        def plan():
            return FaultPlan(specs=(FaultSpec(
                name="a-crash", scope="stage", target="replayed/a",
                kind="crash", max_fires=1,
            ),))

        log = []
        cache = StageCache()
        Engine(
            seed=3, cache=cache, faults=plan(),
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
        ).run(replaying_flow(log))
        log.clear()
        warm = Engine(seed=3, cache=cache, faults=plan()).run(replaying_flow(log))
        assert warm.cached_stages == ["a", "b", "c"]
        assert [entry[0] for entry in log] == ["replay"] * 3
