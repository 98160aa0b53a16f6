"""Windowed accounting, the shared window driver, and the shard cache.

The contract under test: N windows of one flow rerun over a growing union
against a shared stage cache end byte-identical to one cold run over the
whole union — same final datasets, same provenance stamps, same canonical
flow telemetry — while an empty window replays entirely from the cache and
a non-empty one recomputes only never-seen shards.
"""

import functools
from dataclasses import dataclass

import pytest

from repro.core.dataflow import DataFlow
from repro.core.dataset import Dataset
from repro.core.deltas import WindowLedger, run_windows
from repro.core.engine import Engine, FlowReport
from repro.core.errors import ExecutionError, IncrementalError
from repro.core.stagecache import StageCache
from repro.core.telemetry import Telemetry
from repro.core.units import DataSize
from tests.conftest import fingerprint


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

    def test_misuse_raises(self):
        ledger = WindowLedger("flow-x", Telemetry())
        with pytest.raises(IncrementalError, match="no window is open"):
            ledger.close()
        ledger.open(1.0)
        with pytest.raises(IncrementalError, match="still open"):
            ledger.open(2.0)

    def test_watermark_must_advance(self):
        telemetry = Telemetry()
        ledger = WindowLedger("flow-x", telemetry)
        ledger.open(5.0)
        ledger.close()
        for stale in (5.0, 3.0):
            with pytest.raises(IncrementalError, match="must advance"):
                ledger.open(stale)
        # A refused window leaves no trace: nothing emitted, nothing open.
        assert [e.kind for e in telemetry.events()] == [
            "window.open", "window.close",
        ]
        assert ledger.open(5.5) == 1


def _square(item):
    return item * item


ITEMS = [1, 2, 3, 4, 5]


@dataclass
class ToyReport:
    """What a figure pipeline's report looks like to the window driver."""

    flow_report: FlowReport


def toy_flow(calls):
    """expand (one cached shard per item) -> reduce, counting invocations."""

    def expand(inputs, ctx):
        calls["expand"] += 1
        items = list(inputs["input"].items)
        out = ctx.map_shards(
            _square, items, cache_keys=[f"sq|{item}" for item in items]
        )
        return Dataset(
            "squares", DataSize(float(len(out))), items=out, version="v1"
        )

    def reduce(inputs, ctx):
        calls["reduce"] += 1
        total = sum(inputs["expand"].items)
        return Dataset("total", DataSize(8.0), items=[total], version="v1")

    flow = DataFlow("toy-windows")
    flow.stage("expand", expand)
    flow.stage("reduce", reduce)
    flow.connect("expand", "reduce")
    return flow


def run_toy(seen, cache, calls):
    """One full run over the first ``seen`` items — what a window reruns."""
    union = Dataset(
        "ext", DataSize(float(seen)), items=ITEMS[:seen], version=f"v1+{seen}"
    )
    return Engine(seed=3, cache=cache, telemetry=Telemetry()).run(
        toy_flow(calls), inputs={"expand": union}
    )


def toy_windows(arrivals):
    cache = StageCache()
    telemetry = Telemetry()
    calls = {"expand": 0, "reduce": 0}
    ledger, rows = run_windows(
        "toy-windows",
        "items",
        len(ITEMS),
        arrivals,
        run=lambda index, seen: ToyReport(run_toy(seen, cache, calls)),
        close_attrs=lambda report: {
            "total": report.flow_report.outputs["reduce"].items[0]
        },
        cache=cache,
        telemetry=telemetry,
    )
    return ledger, rows, cache, calls


class TestRunWindows:
    ARRIVALS = [2, 0, 1, 2]

    @pytest.fixture(scope="class")
    def windows(self):
        return toy_windows(self.ARRIVALS)

    def test_final_window_equals_one_cold_run_over_the_union(self, windows):
        _, rows, _, _ = windows
        final = rows[-1]["report"].flow_report
        cold = run_toy(len(ITEMS), StageCache(), {"expand": 0, "reduce": 0})
        assert final.outputs["reduce"].items == [55]
        assert fingerprint(final) == fingerprint(cold)

    def test_middle_empty_window_is_all_hit_and_still_accounted(self, windows):
        ledger, rows, _, _ = windows
        empty = rows[1]
        assert (empty["arrived"], empty["seen"]) == (0, 2)
        assert (empty["stage_hits"], empty["stage_misses"]) == (2, 0)
        assert (empty["shard_hits"], empty["shard_misses"]) == (0, 0)
        assert empty["report"].flow_report.cached_stages == ["expand", "reduce"]
        assert ledger.windows == [(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)]

    def test_windows_recompute_only_never_seen_shards(self, windows):
        _, rows, cache, calls = windows
        for row in rows:
            if row["arrived"]:
                assert row["shard_misses"] == row["arrived"]
                assert row["shard_hits"] == row["seen"] - row["arrived"]
        # The empty window replayed both stages without calling either.
        assert calls == {"expand": 3, "reduce": 3}
        for counter, total in (
            ("stage_hits", cache.hits),
            ("stage_misses", cache.misses),
            ("shard_hits", cache.shard_hits),
            ("shard_misses", cache.shard_misses),
        ):
            assert sum(row[counter] for row in rows) == total

    def test_trailing_empty_window_keeps_the_final_report(self):
        _, rows, _, calls = toy_windows([3, 2, 0])
        cold = run_toy(len(ITEMS), StageCache(), {"expand": 0, "reduce": 0})
        assert rows[-1]["stage_misses"] == 0
        assert calls == {"expand": 2, "reduce": 2}
        assert fingerprint(rows[-1]["report"].flow_report) == fingerprint(cold)

    def test_ledger_stream_is_open_close_per_window(self, windows):
        ledger, rows, _, _ = windows
        events = ledger.telemetry.events()
        assert [e.kind for e in events] == ["window.open", "window.close"] * 4
        assert {e.name for e in events} == {"toy-windows"}
        for row, opened, closed in zip(rows, events[0::2], events[1::2]):
            expected = {
                "window": row["index"],
                "watermark": float(row["index"] + 1),
                "arrivals": row["arrived"],
                "items": row["seen"],
            }
            assert dict(opened.attrs) == expected
            flow_report = row["report"].flow_report
            assert dict(closed.attrs) == {
                **expected,
                "total": flow_report.outputs["reduce"].items[0],
                "cpu_seconds": flow_report.total_cpu_time.seconds,
                "bytes": flow_report.total_output.bytes,
            }
        assert [row["watermark"] for row in rows] == [1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize(
        "arrivals, message",
        [
            ([2, 2], "sum to 4, expected n_items=5"),
            ([6, -1], "negative"),
            ([2.5, 2.5], "non-integral"),
            ([0, 5], "window 0 is empty"),
            ([float("nan"), 1], "non-integral"),
            ([float("inf")], "non-integral"),
        ],
    )
    def test_bad_schedule_is_rejected_before_anything_runs(self, arrivals, message):
        ran = []
        telemetry = Telemetry()
        with pytest.raises(IncrementalError, match=message):
            run_windows(
                "toy-windows", "items", len(ITEMS), arrivals,
                run=lambda index, seen: ran.append(index),
                close_attrs=lambda report: {},
                cache=StageCache(),
                telemetry=telemetry,
            )
        assert ran == [] and telemetry.events() == []


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

    @pytest.mark.parametrize("cache", [StageCache, lambda: None], ids=["cache", "no-cache"])
    def test_key_count_mismatch_rejected(self, cache):
        def bad(inputs, ctx):
            return ctx.map_shards(_square, [1, 2], cache_keys=["only-one"])

        flow = DataFlow("bad-keys")
        flow.stage("bad", bad)
        with pytest.raises(ExecutionError, match="2 items but 1 cache keys"):
            Engine(seed=1, cache=cache()).run(flow)


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
