"""Windowed incremental execution: one ledger, one window driver.

The paper's three flows are all *continuous* in production — Arecibo
pointings arrive nightly, CLEO appends runs to an open EventStore, the
WebLab ingests bimonthly crawl deltas — while a batch engine only replays
full snapshots.  The incremental identity that bridges the two is *warm
rerun plus new inputs*: a window is a full rerun of the flow over the
union of everything that has arrived, against a shared
:class:`~repro.core.stagecache.StageCache`.  Stages whose inputs did not
change replay as stage hits and delta-capable stages recompute only
never-seen shards (``StageContext.map_shards`` with ``cache_keys``), so
minimal recompute falls out of the cache keys; and because the last
window is a fresh run over the whole union, its report, provenance stamps
and canonical telemetry are byte-identical to one cold batch run.

* :class:`WindowLedger` — ``window.open``/``window.close`` accounting
  over the telemetry bus, under a strictly advancing watermark.
* :func:`run_windows` — the window loop both figure flows share.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.errors import IncrementalError
from repro.core.stagecache import StageCache
from repro.core.telemetry import Telemetry


class WindowLedger:
    """Windowed accounting over the telemetry bus.

    One ledger per incremental run: :meth:`open` / :meth:`close` bracket
    each window with ``window.open`` / ``window.close`` events carrying
    the watermark and whatever per-window attributes the caller supplies
    (volumes, stage counts, candidate counts).  Watermarks must advance:
    a window cannot open at or behind one already closed.
    """

    def __init__(self, name: str, telemetry: Optional[Telemetry] = None):
        self.name = name
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        #: Closed windows as ``(index, watermark)`` pairs.
        self.windows: List[Tuple[int, float]] = []
        self._open: Optional[Tuple[int, float]] = None

    @property
    def last_watermark(self) -> Optional[float]:
        return self.windows[-1][1] if self.windows else None

    def open(self, watermark: float, **attrs: object) -> int:
        if self._open is not None:
            raise IncrementalError(
                f"ledger {self.name!r}: window {self._open[0]} is still open"
            )
        previous = self.last_watermark
        if previous is not None and float(watermark) <= previous:
            raise IncrementalError(
                f"ledger {self.name!r}: watermark must advance: "
                f"{watermark} <= closed {previous}"
            )
        index = len(self.windows)
        self.telemetry.emit(
            "window.open", self.name, window=index,
            watermark=float(watermark), **attrs,
        )
        self._open = (index, float(watermark))
        return index

    def close(self, **attrs: object) -> int:
        if self._open is None:
            raise IncrementalError(
                f"ledger {self.name!r}: no window is open"
            )
        index, watermark = self._open
        self.telemetry.emit(
            "window.close", self.name, window=index,
            watermark=watermark, **attrs,
        )
        self.windows.append((index, watermark))
        self._open = None
        return index


def run_windows(
    name: str,
    unit: str,
    total: int,
    arrivals: Optional[Sequence[int]],
    run: Callable[[int, int], object],
    close_attrs: Callable[[object], Mapping[str, object]],
    cache: StageCache,
    telemetry: Optional[Telemetry] = None,
) -> Tuple[WindowLedger, List[Dict[str, object]]]:
    """Run an engine-backed flow window by window over a growing union.

    ``arrivals`` lists how many new ``unit`` items (``"pointings"``,
    ``"runs"``) land in each window (default: one per window): whole,
    non-negative counts summing to ``total``.  There must be a window,
    and the first must not be empty — a flow cannot run over nothing —
    but later empty windows are fine: they replay as all stage hits and
    are still accounted.

    Window ``index`` opens on the ledger ``name`` at watermark
    ``index + 1``, calls ``run(index, seen)`` — a full rerun over the
    first ``seen`` items, sharing ``cache``, whose report exposes the
    engine's :class:`~repro.core.engine.FlowReport` as ``.flow_report`` —
    and closes with ``arrivals``, the ``unit`` count, ``close_attrs(report)``
    and the flow's simulated CPU seconds and output bytes.

    Returns the ledger and one row per window: ``index``, ``watermark``,
    ``arrived``, ``seen``, ``report``, and the window's share of the
    cache's counters (``stage_hits``/``stage_misses``/``shard_hits``/
    ``shard_misses``).
    """
    if arrivals is None:
        arrivals = [1] * total
    if not arrivals:
        raise IncrementalError(f"no window to run: the schedule is empty (n_{unit}={total})")
    # ``% 1`` is NaN for NaN and the infinities, where ``int()`` would raise.
    if any(count % 1 != 0 for count in arrivals):
        raise IncrementalError(f"non-integral arrival counts: {list(arrivals)}")
    arrivals = [int(count) for count in arrivals]
    if any(count < 0 for count in arrivals):
        raise IncrementalError(f"negative arrival counts: {arrivals}")
    if sum(arrivals) != total:
        raise IncrementalError(
            f"arrivals {arrivals} sum to {sum(arrivals)}, "
            f"expected n_{unit}={total}"
        )
    if arrivals[0] == 0:
        raise IncrementalError(
            f"window 0 is empty (arrivals {arrivals}): "
            f"the first window needs at least one of the {unit}"
        )
    ledger = WindowLedger(name, telemetry)
    rows: List[Dict[str, object]] = []
    seen = 0
    for index, count in enumerate(arrivals):
        seen += count
        watermark = float(index + 1)
        before = (cache.hits, cache.misses, cache.shard_hits, cache.shard_misses)
        ledger.open(watermark, arrivals=count, **{unit: seen})
        report = run(index, seen)
        flow_report = report.flow_report  # type: ignore[attr-defined]
        ledger.close(
            arrivals=count,
            **{unit: seen},
            **close_attrs(report),
            cpu_seconds=flow_report.total_cpu_time.seconds,
            bytes=flow_report.total_output.bytes,
        )
        rows.append(
            {
                "index": index,
                "watermark": watermark,
                "arrived": count,
                "seen": seen,
                "report": report,
                "stage_hits": cache.hits - before[0],
                "stage_misses": cache.misses - before[1],
                "shard_hits": cache.shard_hits - before[2],
                "shard_misses": cache.shard_misses - before[3],
            }
        )
    return ledger, rows
