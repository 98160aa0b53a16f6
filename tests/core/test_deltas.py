"""Delta sources, dirty cones, windowed accounting, and the incremental
engine's equivalence contract.

The contract under test: N incremental windows over delta-fed sources end
byte-identical to one batch run over the union of the same deltas — same
final datasets, same provenance stamps, same canonical flow telemetry —
while empty windows run nothing and unchanged shards replay from cache.
"""

import functools

import pytest

from repro.core.dataflow import DataFlow, structural_stub
from repro.core.dataset import Dataset
from repro.core.deltas import (
    Delta,
    DeltaSource,
    IncrementalEngine,
    WindowLedger,
    dirty_cone,
)
from repro.core.engine import Engine
from repro.core.errors import DataflowError, ExecutionError, IncrementalError
from repro.core.stagecache import StageCache
from repro.core.telemetry import Telemetry, strip_wall_clock
from repro.core.units import DataSize


def delta_flow(calls=None):
    """ingest (incremental) -> reduce, counting transform invocations."""
    calls = calls if calls is not None else {"ingest": 0, "reduce": 0}

    def ingest(inputs, ctx):
        calls["ingest"] += 1
        items = list(inputs["input"].items)
        return Dataset(
            "staged", DataSize(float(10 * max(len(items), 1))),
            items=items, version="v1",
        )

    def reduce(inputs, ctx):
        calls["reduce"] += 1
        total = sum(inputs["ingest"].items)
        return Dataset("total", DataSize(8.0), items=[total], version="v1")

    flow = DataFlow("toy-incremental")
    flow.stage("ingest", ingest)
    flow.stage("reduce", reduce)
    flow.connect("ingest", "reduce")
    flow.declare_incremental("ingest")
    return flow, calls


def canonical(report):
    """The byte-comparable projection of a flow report."""
    return (
        report.summary_rows(),
        strip_wall_clock(report.events),
        {name: (ds.name, ds.version, tuple(ds.items)) for name, ds in report.outputs.items()},
        {
            name: report.provenance.get(ds.provenance_id).stamp
            for name, ds in report.outputs.items()
        },
    )


def batch_over(source_deltas, seed=3):
    """One batch run over the union of the given (items, event_time) deltas."""
    source = DeltaSource("ingest")
    for items, event_time in source_deltas:
        source.emit(items, event_time)
    source.take_arrived(float("inf"))
    flow, _ = delta_flow()
    return Engine(seed=seed, telemetry=Telemetry()).run(
        flow, inputs={"ingest": source.dataset()}
    )


class TestDelta:
    def test_unknown_kind_rejected(self):
        with pytest.raises(IncrementalError, match="kind"):
            Delta("s", (1,), event_time=1.0, arrival_time=1.0, kind="upsert")

    def test_arrival_before_event_rejected(self):
        with pytest.raises(IncrementalError, match="before its event time"):
            Delta("s", (1,), event_time=5.0, arrival_time=4.0)

    def test_revise_requires_identity_key(self):
        source = DeltaSource("ingest")
        with pytest.raises(IncrementalError, match="key"):
            source.emit([1], event_time=1.0, kind="revise")


class TestDeltaSource:
    def test_take_arrived_respects_watermark_and_orders_by_arrival(self):
        source = DeltaSource("ingest")
        source.emit([1], event_time=1.0, arrival_time=3.0)
        source.emit([2], event_time=2.0, arrival_time=2.0)
        source.emit([3], event_time=3.0, arrival_time=9.0)
        arrived = source.take_arrived(5.0)
        assert [d.items for d in arrived] == [(2,), (1,)]
        assert source.pending == 1
        assert [d.items for d in source.take_arrived(10.0)] == [(3,)]
        assert source.pending == 0

    def test_items_in_event_time_order(self):
        source = DeltaSource("ingest")
        source.emit([30], event_time=3.0)
        source.emit([10, 20], event_time=1.0)
        source.take_arrived(10.0)
        assert source.items() == [10, 20, 30]

    def test_revise_replaces_last_wins_in_place(self):
        source = DeltaSource("runs", key=lambda item: item[0])
        source.emit([("r1", "raw"), ("r2", "raw")], event_time=1.0)
        source.emit([("r1", "recalibrated")], event_time=2.0, kind="revise")
        source.take_arrived(10.0)
        assert source.items() == [("r1", "recalibrated"), ("r2", "raw")]

    def test_dataset_version_digest_tracks_content(self):
        def accumulated(batches):
            source = DeltaSource("ingest")
            for items, t in batches:
                source.emit(items, t)
            source.take_arrived(100.0)
            return source.dataset()

        one = accumulated([([1, 2], 1.0)])
        same = accumulated([([1, 2], 1.0)])
        more = accumulated([([1, 2], 1.0), ([3], 2.0)])
        assert one.version == same.version
        assert one.version != more.version
        # How the union was split across deltas must not matter.
        split = accumulated([([1], 1.0), ([2], 1.5)])
        assert split.version == one.version


class TestDirtyCone:
    def flow(self):
        flow = DataFlow("cone")
        for name in ("a", "b", "join", "tail", "side"):
            flow.stage(name, structural_stub(name))
        flow.connect("a", "join")
        flow.connect("b", "join")
        flow.connect("join", "tail")
        flow.connect("b", "side")
        return flow

    def test_cone_is_downstream_closure_in_topo_order(self):
        flow = self.flow()
        assert dirty_cone(flow, ["a"]) == ["a", "join", "tail"]
        assert dirty_cone(flow, ["b"]) == ["b", "join", "side", "tail"]
        assert dirty_cone(flow, ["a", "b"]) == ["a", "b", "join", "side", "tail"]

    def test_empty_change_set_is_empty_cone(self):
        assert dirty_cone(self.flow(), []) == []

    def test_unknown_stage_rejected(self):
        with pytest.raises(IncrementalError, match="unknown stage"):
            dirty_cone(self.flow(), ["ghost"])


class TestWindowLedger:
    def test_open_close_emit_accounting_events(self):
        telemetry = Telemetry()
        ledger = WindowLedger("flow-x", telemetry)
        ledger.open(5.0, arrivals=2)
        ledger.close(bytes=128.0)
        ledger.open(9.0)
        ledger.close()
        assert ledger.windows == [(0, 5.0), (1, 9.0)]
        assert ledger.last_watermark == 9.0
        kinds = [(e.kind, dict(e.attrs)["window"]) for e in telemetry.events()]
        assert kinds == [
            ("window.open", 0), ("window.close", 0),
            ("window.open", 1), ("window.close", 1),
        ]

    def test_reopen_names_the_stale_watermark(self):
        telemetry = Telemetry()
        ledger = WindowLedger("flow-x", telemetry)
        ledger.open(5.0)
        ledger.close()
        ledger.reopen(3.0)
        event = telemetry.events()[-1]
        assert event.kind == "window.reopen"
        assert dict(event.attrs)["closed_watermark"] == 5.0

    def test_misuse_raises(self):
        ledger = WindowLedger("flow-x", Telemetry())
        with pytest.raises(IncrementalError, match="no window is open"):
            ledger.close()
        with pytest.raises(IncrementalError, match="nothing closed"):
            ledger.reopen(1.0)
        ledger.open(1.0)
        with pytest.raises(IncrementalError, match="still open"):
            ledger.open(2.0)


class TestIncrementalEngine:
    def engine(self, calls=None, cache=None):
        flow, calls = delta_flow(calls)
        engine = IncrementalEngine(flow, seed=3, cache=cache or StageCache())
        source = engine.add_source(DeltaSource("ingest"))
        return engine, source, calls

    def test_requires_declared_incremental_source(self):
        flow = DataFlow("plain")
        flow.stage("only", structural_stub("only"))
        with pytest.raises(IncrementalError, match="declares no incremental"):
            IncrementalEngine(flow)

    def test_source_stage_must_be_declared_and_unique(self):
        engine, _, _ = self.engine()
        with pytest.raises(IncrementalError, match="not declared incremental"):
            engine.add_source(DeltaSource("reduce"))
        with pytest.raises(IncrementalError, match="already has a delta feed"):
            engine.add_source(DeltaSource("ingest"))

    def test_watermark_must_advance(self):
        engine, source, _ = self.engine()
        source.emit([1], event_time=1.0)
        engine.run_window(5.0)
        with pytest.raises(IncrementalError, match="must advance"):
            engine.run_window(5.0)

    def test_windows_equal_one_batch_over_the_union(self):
        engine, source, _ = self.engine()
        source.emit([1, 2], event_time=1.0)
        source.emit([3], event_time=6.0)
        source.emit([4, 5], event_time=11.0)
        for watermark in (5.0, 10.0, 15.0):
            engine.run_window(watermark)
        batch = batch_over([([1, 2], 1.0), ([3], 6.0), ([4, 5], 11.0)])
        assert engine.final_report.outputs["reduce"].items == [15]
        assert canonical(engine.final_report) == canonical(batch)

    def test_empty_window_runs_nothing_but_is_accounted(self):
        engine, source, calls = self.engine()
        source.emit([1], event_time=1.0)
        engine.run_window(5.0)
        ran = dict(calls)
        window = engine.run_window(10.0)  # nothing arrived
        assert calls == ran
        assert window.report is None
        assert window.dirty == [] and window.executed == []
        assert engine.ledger.windows == [(0, 5.0), (1, 10.0)]
        closes = [e for e in engine.telemetry.events() if e.kind == "window.close"]
        assert dict(closes[-1].attrs)["arrivals"] == 0
        assert dict(closes[-1].attrs)["stages_run"] == 0

    def test_late_arrival_reopens_and_backfill_matches_batch(self):
        engine, source, _ = self.engine()
        source.emit([1, 2], event_time=1.0)
        source.emit([3], event_time=2.0, arrival_time=12.0)  # late
        engine.run_window(10.0)
        window = engine.run_window(20.0)
        assert window.late is True
        kinds = [e.kind for e in engine.telemetry.events() if e.kind.startswith("window.")]
        assert kinds == [
            "window.open", "window.close",
            "window.reopen", "window.open", "window.close",
        ]
        batch = batch_over([([1, 2], 1.0), ([3], 2.0)])
        assert canonical(engine.final_report) == canonical(batch)

    def test_unchanged_stages_replay_from_cache(self):
        engine, source, calls = self.engine()
        source.emit([1, 2], event_time=1.0)
        engine.run_window(5.0)
        assert calls == {"ingest": 1, "reduce": 1}
        source.emit([3], event_time=6.0)
        window = engine.run_window(10.0)
        # New input content: the whole (two-stage) cone recomputes ...
        assert calls == {"ingest": 2, "reduce": 2}
        assert window.executed == ["ingest", "reduce"]
        # ... and a no-change window replays everything from the cache.
        source.emit([3], event_time=6.5)  # same union after dedupe? no — new item
        engine.run_window(15.0)
        assert calls == {"ingest": 3, "reduce": 3}

    def test_final_report_survives_trailing_empty_windows(self):
        engine, source, _ = self.engine()
        source.emit([7], event_time=1.0)
        engine.run_window(5.0)
        engine.run_window(10.0)
        assert engine.final_report is not None
        assert engine.final_report.outputs["reduce"].items == [7]
        assert engine.watermark == 10.0


def _square(item):
    return item * item


class TestMapShardsCache:
    def shard_flow(self, cache_keys=True, cache_params=None):
        def expand(inputs, ctx):
            items = list(inputs["input"].items)
            keys = [f"sq|{i}" for i in items] if cache_keys else None
            out = ctx.map_shards(
                _square, items, cache_keys=keys, cache_params=cache_params
            )
            return Dataset(
                "squares", DataSize(float(len(out))), items=out, version="v1"
            )

        flow = DataFlow("sharded")
        flow.stage("expand", expand)
        return flow

    def seed(self, items, tag):
        return Dataset("ext", DataSize(float(len(items))), items=items,
                       version=f"v1+{tag}")

    def test_second_window_computes_only_new_shards(self):
        cache = StageCache()
        engine = Engine(seed=1, cache=cache)
        first = engine.run(
            self.shard_flow(), inputs={"expand": self.seed([1, 2, 3], "a")}
        )
        assert first.outputs["expand"].items == [1, 4, 9]
        assert cache.shard_misses == 3 and cache.shard_hits == 0

        second = Engine(seed=1, cache=cache).run(
            self.shard_flow(), inputs={"expand": self.seed([1, 2, 3, 4], "b")}
        )
        assert second.outputs["expand"].items == [1, 4, 9, 16]
        assert cache.shard_hits == 3 and cache.shard_misses == 4

    def test_shard_counters_are_separate_from_stage_counters(self):
        cache = StageCache()
        Engine(seed=1, cache=cache).run(
            self.shard_flow(), inputs={"expand": self.seed([1, 2], "a")}
        )
        assert cache.stats()["misses"] == 1  # the stage itself
        assert cache.shard_misses == 2

    def test_cache_params_key_shards_apart(self):
        cache = StageCache()
        Engine(seed=1, cache=cache).run(
            self.shard_flow(cache_params={"rev": 1}),
            inputs={"expand": self.seed([1, 2], "a")},
        )
        Engine(seed=1, cache=cache).run(
            self.shard_flow(cache_params={"rev": 2}),
            inputs={"expand": self.seed([1, 2], "b")},
        )
        assert cache.shard_hits == 0 and cache.shard_misses == 4

    def test_no_keys_or_no_cache_fall_back_to_plain_fanout(self):
        report = Engine(seed=1).run(
            self.shard_flow(), inputs={"expand": self.seed([2, 3], "a")}
        )
        assert report.outputs["expand"].items == [4, 9]
        report = Engine(seed=1, cache=StageCache()).run(
            self.shard_flow(cache_keys=False),
            inputs={"expand": self.seed([2, 3], "a")},
        )
        assert report.outputs["expand"].items == [4, 9]

    def test_key_count_mismatch_rejected(self):
        def bad(inputs, ctx):
            return ctx.map_shards(_square, [1, 2], cache_keys=["only-one"])

        flow = DataFlow("bad-keys")
        flow.stage("bad", bad)
        with pytest.raises(ExecutionError, match="cache keys"):
            Engine(seed=1, cache=StageCache()).run(flow)


    def test_functions_without_a_stable_identity_are_rejected(self):
        """Two lambdas in one transform share a qualname and a partial has
        none (its repr embeds an address): keyed on either, the cache would
        hand back another function's results, or never hit."""

        def nested(item):
            return item

        for fn in (lambda x: x + 1, nested, functools.partial(pow, 2)):
            def keyed(inputs, ctx, fn=fn):
                out = ctx.map_shards(fn, [1, 2], cache_keys=["i1", "i2"])
                return Dataset("out", DataSize(2.0), items=out)

            flow = DataFlow("anonymous")
            flow.stage("keyed", keyed)
            with pytest.raises(ExecutionError, match="keyed.*module-level"):
                Engine(seed=1, cache=StageCache()).run(flow)
            # Without a cache nothing is keyed, so nothing can collide.
            assert Engine(seed=1).run(flow).outputs["keyed"].items == [
                fn(1), fn(2)
            ]


class TestDeclareIncremental:
    def test_only_sources_may_be_declared(self):
        flow = DataFlow("f")
        flow.stage("a", structural_stub("a"))
        flow.stage("b", structural_stub("b"))
        flow.connect("a", "b")
        with pytest.raises(DataflowError, match="only source stages"):
            flow.declare_incremental("b")
        flow.declare_incremental("a")
        assert flow.incremental_sources == {"a": ""}

    def test_validate_rejects_source_that_gained_predecessors(self):
        flow = DataFlow("f")
        flow.stage("a", structural_stub("a"))
        flow.stage("b", structural_stub("b"))
        flow.declare_incremental("b")
        flow.connect("a", "b")
        with pytest.raises(DataflowError, match="incremental"):
            flow.validate()
