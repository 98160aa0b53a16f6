"""Shared telemetry-log builders for the operations-console suite."""

import pytest

from repro.core.telemetry import Telemetry, write_event_log
from repro.ops.rollup import DEFAULT_WINDOW_S, RollupProjection


def fold_events(events, window_s=DEFAULT_WINDOW_S):
    """The projection over already-loaded events (what ``scan_log`` folds
    from a log file), for tests that start from a live bus."""
    projection = RollupProjection(window_s=float(window_s))
    for event in events:
        projection.fold_event(event)
    return projection


def pipeline_bus(degraded_last=False, retries=0, recalls=(), stage_gap_s=900.0):
    """A bus holding one small arecibo-shaped flow plus serving traffic."""
    bus = Telemetry()
    with bus.span("arecibo-figure1"):
        bus.emit("flow.start", "arecibo-figure1", stages=4)
        for index in range(4):
            bus.clock.advance(stage_gap_s)
            if retries and index == 0:
                bus.emit("stage.retry", "s0", retries=retries, wait_s=1.0)
            bus.emit(
                "stage.finish",
                f"s{index}",
                site="observatory",
                degraded=bool(degraded_last and index == 3),
                cpu_seconds=10.0,
            )
        for elapsed in recalls:
            bus.emit("storage.recall", "tape", elapsed_s=elapsed, bytes=512,
                     store="tape")
        bus.emit("flow.finish", "arecibo-figure1", elapsed=4 * stage_gap_s)
    with bus.span("weblab-serving"):
        for index in range(20):
            bus.emit("workload.request", f"r{index}", tenant="alpha")
            kind = "readcache.hit" if index % 5 else "readcache.miss"
            bus.emit(kind, f"r{index}")
    return bus


@pytest.fixture
def pipeline_log(tmp_path):
    """The bus above persisted to JSONL; returns (path, events)."""
    bus = pipeline_bus(degraded_last=True, retries=2, recalls=(420.0,))
    path = tmp_path / "telemetry.jsonl"
    write_event_log(path, bus.events())
    return path, bus.events()
