"""The rollup fold and its cached projection protocol.

Contract under test: the fold is associative (windows + totals + merges
all agree), flow attribution follows the span root, and ``build_rollup``
resolves content hit → incremental resume → cold build while staying a
pure function of the consumed log bytes.
"""

import hashlib
import json

import pytest

from repro.core.cachestore import DiskCacheStore
from repro.core.errors import OpsError
from repro.core.telemetry import Telemetry, write_event_log
from repro.ops.rollup import (
    QualityCounts,
    UNATTRIBUTED,
    _entry_key,
    build_rollup,
    flow_of,
    merge_projections,
    scan_log,
)

from tests.ops.conftest import fold_events, pipeline_bus


def test_fold_counts_the_pipeline_shape(pipeline_log):
    path, events = pipeline_log
    projection = scan_log(path)
    arecibo = projection.flows["arecibo-figure1"].totals
    assert arecibo.stages_expected == 4
    assert arecibo.stages_finished == 4
    assert arecibo.degraded == 1
    assert arecibo.retries == 2
    assert arecibo.recalls == 1
    assert arecibo.recall_lag_s == 420.0
    serving = projection.flows["weblab-serving"].totals
    assert serving.requests == 20
    assert serving.cache_hits == 16
    assert serving.cache_misses == 4
    assert projection.consumed_events == len(events)
    assert projection.truncated_lines == 0


def test_metrics_gate_on_denominators():
    counts = QualityCounts()
    assert all(value is None for value in counts.metrics().values())
    counts.events = 1
    counts.stages_expected = 4
    counts.stages_finished = 3
    counts.degraded = 1
    metrics = counts.metrics()
    assert metrics["completeness"] == pytest.approx(0.75)
    assert metrics["degraded_rate"] == pytest.approx(1 / 3)
    assert metrics["rejected_rate"] is None  # no requests served
    assert metrics["recall_lag_s"] is None  # no recalls happened
    assert metrics["retries"] == 0.0  # saw events, so zero is a real zero


def test_merge_is_the_fold_of_the_concatenation():
    bus = pipeline_bus(degraded_last=True, retries=3, recalls=(10.0, 99.0))
    events = bus.events()
    whole = fold_events(events)
    left, right = fold_events(events[:7]), fold_events(events[7:])
    merged = merge_projections([left, right])
    for name in whole.flows:
        assert merged.flows[name].totals == whole.flows[name].totals
        assert merged.flows[name].windows == whole.flows[name].windows
    assert merged.consumed_events == whole.consumed_events


def test_merge_rejects_mismatched_windows_and_empty_input():
    bus = pipeline_bus()
    with pytest.raises(OpsError):
        merge_projections([])
    with pytest.raises(OpsError):
        merge_projections(
            [fold_events(bus.events(), 100.0), fold_events(bus.events(), 200.0)]
        )


def test_windows_split_on_sim_time():
    bus = pipeline_bus(stage_gap_s=900.0)  # 4 stages -> t=900..3600
    projection = fold_events(bus.events(), window_s=1800.0)
    windows = projection.flows["arecibo-figure1"].windows
    assert set(windows) == {0, 1, 2}
    assert sum(w.stages_finished for w in windows.values()) == 4


def test_flow_attribution_follows_span_root():
    bus = Telemetry()
    with bus.span("outer"):
        with bus.span("inner"):
            event = bus.emit("stage.finish", "deep")
    assert flow_of(event) == "outer"
    bare = bus.emit("flow.start", "lonely-flow", stages=1)
    assert flow_of(bare) == "lonely-flow"
    stray = bus.emit("bytes.produced", "stray", bytes=1)
    assert flow_of(stray) == UNATTRIBUTED


def test_cached_build_hits_without_parsing(pipeline_log, tmp_path):
    path, _ = pipeline_log
    store = DiskCacheStore(tmp_path / "cache")
    cold = build_rollup(path, store=store)
    assert cold.source == "cold"
    hit = build_rollup(path, store=store)
    assert hit.source == "cache"
    assert hit.to_dict() == cold.to_dict()
    assert hit.content_digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_incremental_resume_folds_only_the_tail(pipeline_log, tmp_path):
    path, _ = pipeline_log
    store = DiskCacheStore(tmp_path / "cache")
    base = build_rollup(path, store=store)
    extra = Telemetry()
    with extra.span("weblab-serving"):
        extra.emit("workload.request", "late", tenant="alpha")
        extra.emit("readcache.miss", "late")
    with open(path, "a", encoding="utf-8") as handle:
        for event in extra.events():
            if event.kind in ("workload.request", "readcache.miss"):
                handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
    grown = build_rollup(path, store=store)
    assert grown.source == "incremental"
    assert grown.consumed_events == base.consumed_events + 2
    assert grown.flows["weblab-serving"].totals.requests == 21
    # And the incremental result matches a from-scratch fold exactly.
    assert grown.to_dict() == scan_log(path).to_dict()


def test_rewritten_log_falls_back_to_cold(pipeline_log, tmp_path):
    path, _ = pipeline_log
    store = DiskCacheStore(tmp_path / "cache")
    build_rollup(path, store=store)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(reversed(lines)) + "\n", encoding="utf-8")
    rebuilt = build_rollup(path, store=store)
    assert rebuilt.source == "cold"
    assert rebuilt.consumed_events == len(lines)


def test_truncated_trailing_line_is_skipped_not_consumed(pipeline_log, tmp_path):
    path, events = pipeline_log
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"seq": 999, "kind": "workload.req')  # torn mid-append
    store = DiskCacheStore(tmp_path / "cache")
    projection = build_rollup(path, store=store)
    assert projection.truncated_lines == 1
    assert projection.consumed_events == len(events)
    assert projection.counters["log.truncated_lines"] == 1.0


@pytest.mark.parametrize("torn", [False, True])
def test_scan_log_renders_what_build_rollup_renders(pipeline_log, torn):
    path, _ = pipeline_log
    if torn:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 999, "kind": "workload.req')
    scanned = scan_log(path).to_dict()
    assert scanned == build_rollup(path).to_dict()
    assert scanned["counters"] == {"log.truncated_lines": float(torn)}


def test_corrupt_interior_line_raises(tmp_path):
    bus = pipeline_bus()
    path = tmp_path / "telemetry.jsonl"
    write_event_log(path, bus.events())
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = "{this is not json"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(OpsError, match="corrupt interior"):
        scan_log(path)


def test_counters_merge_into_projection_not_store(pipeline_log, tmp_path):
    path, _ = pipeline_log
    store = DiskCacheStore(tmp_path / "cache")
    first = build_rollup(path, store=store)
    assert first.counters == {"log.truncated_lines": 0.0}
    stored = store.read(_entry_key(first.window_s, first.content_digest))
    assert stored.content_digest == first.content_digest
    assert stored.counters == {}
    second = build_rollup(path, store=store)
    assert second.source == "cache"
    assert second.counters == first.counters


def test_build_emits_ops_rollup_telemetry(pipeline_log):
    path, _ = pipeline_log
    bus = Telemetry()
    projection = build_rollup(path, telemetry=bus)
    (event,) = [e for e in bus.events() if e.kind == "ops.rollup"]
    assert event.attr("events") == projection.consumed_events
    assert event.attr("source") == "cold"
