"""Rollup/projection layer: fold raw telemetry into quality metrics.

The telemetry substrate is write-optimised — an append-only JSONL stream
of typed events — which makes it exactly the wrong shape to serve an
operations dashboard hammered by many concurrent readers.  This module
is the read side (StreamingHub's argument in PAPERS.md: serve live
workflow metrics from reusable projections, never from raw log scans):

* :class:`QualityCounts` — the associative fold.  One mutable record of
  per-flow operational counters (stages expected/finished, degraded and
  dead-lettered stages, retries, injected faults, serve requests and
  rejections, read-cache traffic, upload/recall/transfer lag high-water
  marks, bytes and CPU), with :meth:`~QualityCounts.fold` consuming one
  event and :meth:`~QualityCounts.merge` combining two folds — so
  per-window counts, per-flow totals, and multi-log merges are all the
  same operation.
* :class:`RollupProjection` — the reusable projection: per-flow
  :class:`FlowQuality` (totals + fixed-width sim-time windows) plus
  consumption accounting (bytes, events, truncated trailing lines, a
  SHA-256 content digest of the consumed prefix).
* :func:`build_rollup` — the cached build path.  Projections are
  **content-digested**: the cache key is the digest of the log bytes, so
  an unchanged log is served without parsing a single line, and a grown
  log resumes folding from the cached prefix (the event-sourcing
  "rebuildable projection" pattern, SNIPPETS.md snippet 2).  Entries
  live in the existing :class:`~repro.core.cachestore.DiskCacheStore`,
  whose atomic write-then-rename guarantees a concurrent reader never
  observes a partially-built projection — it sees the previous
  projection, the new one, or a miss that rebuilds.

Determinism contract: a projection is a pure function of the consumed
log bytes and ``window_s`` — cold builds, cache hits, and incremental
resumes all yield identical projections, which is what makes the nightly
report byte-reproducible.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import BinaryIO, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.cachestore import DiskCacheStore
from repro.core.errors import OpsError, TelemetryError
from repro.core.telemetry import Telemetry, TelemetryEvent, read_chunks, walk_event_log

#: Bumped whenever the projection layout or fold semantics change, so a
#: store shared across versions can never serve a stale-schema entry.
PROJECTION_SCHEMA = 1

#: Default rollup window width in simulated seconds (one "hour" of the
#: flows' simulated operations — the nightly report's trend resolution).
DEFAULT_WINDOW_S = 3600.0

#: Channel for events that carry no span and belong to no flow: bus-level
#: emissions from subsystems that were not run under a named span.
UNATTRIBUTED = "(unattributed)"


def flow_of(event: TelemetryEvent) -> str:
    """The flow/channel an event belongs to.

    The engine emits everything inside ``span(flow.name)``, so the root
    of the span path is the flow; serving traffic is attributed by
    running the replay under ``bus.span("<channel>")`` the same way.
    """
    if event.span:
        return event.span[0]
    if event.kind in ("flow.start", "flow.finish"):
        return event.name
    return UNATTRIBUTED


@dataclass
class QualityCounts:
    """One associative fold of operational telemetry.

    Sums accumulate, ``*_lag_s`` fields keep the maximum observed value,
    and the sim-time bounds keep min/max — so two folds merge into the
    fold of the concatenated streams exactly.
    """

    events: int = 0
    stages_expected: int = 0
    stages_finished: int = 0
    degraded: int = 0
    retries: int = 0
    dead_letters: int = 0
    faults: int = 0
    requests: int = 0
    rejected: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    writes: int = 0
    upload_lag_s: float = 0.0
    recalls: int = 0
    recall_lag_s: float = 0.0
    transfers: int = 0
    transfer_lag_s: float = 0.0
    bytes_produced: float = 0.0
    cpu_seconds: float = 0.0
    first_sim_time: Optional[float] = None
    last_sim_time: Optional[float] = None

    def fold(self, event: TelemetryEvent) -> None:
        """Consume one event into this fold."""
        self.events += 1
        if self.first_sim_time is None or event.sim_time < self.first_sim_time:
            self.first_sim_time = event.sim_time
        if self.last_sim_time is None or event.sim_time > self.last_sim_time:
            self.last_sim_time = event.sim_time
        kind = event.kind
        if kind == "flow.start":
            self.stages_expected += int(event.attr("stages", 0))  # type: ignore[arg-type]
        elif kind == "stage.finish":
            self.stages_finished += 1
            if event.attr("degraded", False):
                self.degraded += 1
            self.cpu_seconds += float(event.attr("cpu_seconds", 0.0))  # type: ignore[arg-type]
        elif kind == "stage.retry":
            self.retries += int(event.attr("retries", 0))  # type: ignore[arg-type]
        elif kind == "stage.dead_letter":
            self.dead_letters += 1
        elif kind == "fault.injected":
            self.faults += 1
        elif kind == "bytes.produced":
            self.bytes_produced += float(event.attr("bytes", 0.0))  # type: ignore[arg-type]
        elif kind == "workload.request":
            self.requests += 1
        elif kind == "serve.rejected":
            self.rejected += 1
        elif kind == "readcache.hit":
            self.cache_hits += 1
        elif kind == "readcache.miss":
            self.cache_misses += 1
        elif kind == "storage.write":
            self.writes += 1
            self.upload_lag_s = max(
                self.upload_lag_s, float(event.attr("elapsed_s", 0.0))  # type: ignore[arg-type]
            )
        elif kind == "storage.recall":
            self.recalls += 1
            self.recall_lag_s = max(
                self.recall_lag_s, float(event.attr("elapsed_s", 0.0))  # type: ignore[arg-type]
            )
        elif kind == "transfer.finish":
            self.transfers += 1
            self.transfer_lag_s = max(
                self.transfer_lag_s, float(event.attr("elapsed_s", 0.0))  # type: ignore[arg-type]
            )

    _SUM_FIELDS = (
        "events",
        "stages_expected",
        "stages_finished",
        "degraded",
        "retries",
        "dead_letters",
        "faults",
        "requests",
        "rejected",
        "cache_hits",
        "cache_misses",
        "writes",
        "recalls",
        "transfers",
        "bytes_produced",
        "cpu_seconds",
    )
    _MAX_FIELDS = ("upload_lag_s", "recall_lag_s", "transfer_lag_s")

    def merge(self, other: "QualityCounts") -> None:
        """Combine another fold into this one (sums sum, lags max)."""
        for name in self._SUM_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in self._MAX_FIELDS:
            setattr(self, name, max(getattr(self, name), getattr(other, name)))
        if other.first_sim_time is not None:
            if self.first_sim_time is None:
                self.first_sim_time = other.first_sim_time
            else:
                self.first_sim_time = min(self.first_sim_time, other.first_sim_time)
        if other.last_sim_time is not None:
            if self.last_sim_time is None:
                self.last_sim_time = other.last_sim_time
            else:
                self.last_sim_time = max(self.last_sim_time, other.last_sim_time)

    def metrics(self) -> Dict[str, Optional[float]]:
        """Derived quality metrics; ``None`` marks "no data to judge".

        Rates are gated on their denominator (a flow that served no
        requests has no rejection *rate*), counts on having seen any
        event at all — so an idle channel grades "no data", not green.
        """
        lookups = self.cache_hits + self.cache_misses
        return {
            "completeness": (
                self.stages_finished / self.stages_expected
                if self.stages_expected
                else None
            ),
            "degraded_rate": (
                self.degraded / self.stages_finished if self.stages_finished else None
            ),
            "rejected_rate": (
                self.rejected / self.requests if self.requests else None
            ),
            "cache_hit_rate": (self.cache_hits / lookups if lookups else None),
            "dead_letters": float(self.dead_letters) if self.events else None,
            "retries": float(self.retries) if self.events else None,
            "faults": float(self.faults) if self.events else None,
            "upload_lag_s": self.upload_lag_s if self.writes else None,
            "recall_lag_s": self.recall_lag_s if self.recalls else None,
            "transfer_lag_s": self.transfer_lag_s if self.transfers else None,
        }


@dataclass
class FlowQuality:
    """One flow's fold: lifetime totals plus fixed-width sim-time windows."""

    totals: QualityCounts = field(default_factory=QualityCounts)
    windows: Dict[int, QualityCounts] = field(default_factory=dict)

    def fold(self, event: TelemetryEvent, window_s: float) -> None:
        self.totals.fold(event)
        index = int(event.sim_time // window_s)
        window = self.windows.get(index)
        if window is None:
            window = self.windows[index] = QualityCounts()
        window.fold(event)

    def merge(self, other: "FlowQuality") -> None:
        self.totals.merge(other.totals)
        for index in sorted(other.windows):
            window = self.windows.get(index)
            if window is None:
                window = self.windows[index] = QualityCounts()
            window.merge(other.windows[index])

    def window_metric_series(self, metric: str) -> List[Tuple[int, float]]:
        """``(window index, value)`` for every window where the metric
        has data, in window order — the rate-of-change alert's input."""
        series: List[Tuple[int, float]] = []
        for index in sorted(self.windows):
            value = self.windows[index].metrics().get(metric)
            if value is not None:
                series.append((index, value))
        return series


@dataclass
class RollupProjection:
    """The cached, incrementally-updatable read model over one log."""

    schema: int = PROJECTION_SCHEMA
    window_s: float = DEFAULT_WINDOW_S
    consumed_bytes: int = 0
    consumed_events: int = 0
    truncated_lines: int = 0
    content_digest: str = ""
    consumed_digest: str = ""
    source: str = "cold"
    flows: Dict[str, FlowQuality] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def max_sim_time(self) -> float:
        latest = 0.0
        for name in sorted(self.flows):
            last = self.flows[name].totals.last_sim_time
            if last is not None:
                latest = max(latest, last)
        return latest

    def fold_event(self, event: TelemetryEvent) -> None:
        flow = flow_of(event)
        quality = self.flows.get(flow)
        if quality is None:
            quality = self.flows[flow] = FlowQuality()
        quality.fold(event, self.window_s)
        self.consumed_events += 1

    def to_dict(self) -> Dict[str, object]:
        """JSON-stable rendering (sorted keys, windows as strings)."""
        return {
            "schema": self.schema,
            "window_s": self.window_s,
            "consumed_bytes": self.consumed_bytes,
            "consumed_events": self.consumed_events,
            "truncated_lines": self.truncated_lines,
            "content_digest": self.content_digest,
            "max_sim_time": self.max_sim_time,
            "flows": {
                name: {
                    "totals": asdict(self.flows[name].totals),
                    "windows": {
                        str(index): asdict(self.flows[name].windows[index])
                        for index in sorted(self.flows[name].windows)
                    },
                }
                for name in sorted(self.flows)
            },
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
        }


# -- folding raw log bytes -------------------------------------------------
def _digests(handle: BinaryIO, *stops: int) -> List[str]:
    """The sha256 of the log's bytes ``[0, stop)`` for each of ``stops``
    (ascending), hashed in one streamed pass."""
    sha, done, digests = hashlib.sha256(), 0, []
    for stop in stops:
        for chunk in read_chunks(handle, done, stop):
            sha.update(chunk)
            del chunk  # before the next read (see read_chunks)
        digests.append(sha.hexdigest())
        done = stop
    return digests


def _fold_log(
    projection: RollupProjection, handle: BinaryIO, size: int, source: str
) -> None:
    """Fold bytes ``[consumed_bytes, size)`` of the log into the projection,
    and digest what it then covers.

    What a record, a torn tail and corruption are is
    :func:`~repro.core.telemetry.walk_event_log`'s to say; a torn tail is
    not consumed, so a later build over the grown log re-reads it from
    the same boundary.
    """
    try:
        projection.consumed_bytes, projection.truncated_lines = walk_event_log(
            handle, size, projection.fold_event, source, projection.consumed_bytes
        )
    except TelemetryError as exc:
        raise OpsError(str(exc)) from exc
    projection.consumed_digest, projection.content_digest = _digests(
        handle, projection.consumed_bytes, size
    )


def scan_log(
    path: Union[str, Path],
    window_s: float = DEFAULT_WINDOW_S,
) -> RollupProjection:
    """Cold build: fold the whole log with no store in sight.

    This is the raw-JSONL-scan baseline perfbench's ``ops.scan_s`` times
    the cached path against.
    """
    projection = RollupProjection(window_s=float(window_s))
    with Path(path).open("rb") as handle:
        _fold_log(projection, handle, os.fstat(handle.fileno()).st_size, str(path))
    projection.source = "cold"
    projection.counters["log.truncated_lines"] = float(projection.truncated_lines)
    return projection


# -- the cached build path -------------------------------------------------
def _entry_key(window_s: float, content_digest: str) -> str:
    return hashlib.sha256(
        "\x1f".join(
            ("ops.rollup", str(PROJECTION_SCHEMA), repr(float(window_s)), content_digest)
        ).encode("utf-8")
    ).hexdigest()


def _head_key(window_s: float, identity: str) -> str:
    return hashlib.sha256(
        "\x1f".join(
            ("ops.rollup.head", str(PROJECTION_SCHEMA), repr(float(window_s)), identity)
        ).encode("utf-8")
    ).hexdigest()


def _valid_projection(entry: object, window_s: float) -> Optional[RollupProjection]:
    if (
        isinstance(entry, RollupProjection)
        and entry.schema == PROJECTION_SCHEMA
        and entry.window_s == float(window_s)
    ):
        return entry
    return None


def _from_store(
    store: DiskCacheStore, path: Path, handle: BinaryIO, size: int, window_s: float
) -> Optional[RollupProjection]:
    """A content hit, or the last build's projection resumed over the grown
    log; ``None`` when neither is there (see :func:`build_rollup`)."""
    head = store.read(_head_key(window_s, str(path.resolve())))
    resume_at = 0
    if (
        isinstance(head, dict)
        and head.get("schema") == PROJECTION_SCHEMA
        and isinstance(head.get("consumed_bytes"), int)
        and 0 < head["consumed_bytes"] <= size
    ):
        resume_at = head["consumed_bytes"]
    prefix_digest, digest = _digests(handle, resume_at, size)
    hit = _valid_projection(store.read(_entry_key(window_s, digest)), window_s)
    if hit is not None:
        hit.source = "cache"
        return hit
    if not resume_at or prefix_digest != head.get("consumed_digest"):
        return None
    handle.seek(resume_at - 1)
    if handle.read(1) != b"\n":
        return None
    base = _valid_projection(
        store.read(_entry_key(window_s, head.get("content_digest", ""))), window_s
    )
    if base is None or base.consumed_bytes != resume_at:
        return None
    _fold_log(base, handle, size, str(path))
    base.source = "incremental"
    return base


def build_rollup(
    path: Union[str, Path],
    window_s: float = DEFAULT_WINDOW_S,
    store: Optional[DiskCacheStore] = None,
    telemetry: Optional[Telemetry] = None,
) -> RollupProjection:
    """The serving path: a projection over ``path``, via the store.

    Resolution order (each step falls through to the next on a miss):

    1. **content hit** — the store holds a projection keyed by the
       digest of exactly these log bytes: return it, zero lines parsed;
    2. **incremental resume** — a head pointer records the last build
       for this log path; if its consumed prefix is still a byte-exact
       prefix of the current content and ends in a newline, fold only the
       tail (an unterminated last record is complete only while nothing
       follows it, so a prefix that ends in one is folded again, cold);
    3. **cold build** — fold everything.

    The result is written back under its content digest and the head
    pointer is advanced, both via the store's atomic writes, so
    concurrent readers of a growing log each serve *some* complete
    prefix and never a torn projection.  ``log.truncated_lines`` is set
    in the returned projection's ``counters`` only — never in the stored
    entry, which stays a pure function of the log bytes.
    """
    path = Path(path)
    with path.open("rb") as handle:
        # Every step below reads bytes [0, size) and no further: what is
        # appended meanwhile is the next build's.
        size = os.fstat(handle.fileno()).st_size
        projection = None
        if store is not None:
            projection = _from_store(store, path, handle, size, window_s)
        if projection is None:
            projection = RollupProjection(window_s=float(window_s))
            _fold_log(projection, handle, size, str(path))
            projection.source = "cold"
        if store is not None and projection.source != "cache":
            store.write(_entry_key(window_s, projection.content_digest), projection)
            store.write(
                _head_key(window_s, str(path.resolve())),
                {
                    "schema": PROJECTION_SCHEMA,
                    "content_digest": projection.content_digest,
                    "consumed_bytes": projection.consumed_bytes,
                    "consumed_digest": projection.consumed_digest,
                },
            )
    projection.counters["log.truncated_lines"] = float(projection.truncated_lines)
    if telemetry is not None:
        telemetry.emit(
            "ops.rollup",
            path.name,
            events=projection.consumed_events,
            bytes=projection.consumed_bytes,
            truncated_lines=projection.truncated_lines,
            flows=len(projection.flows),
            source=projection.source,
        )
    return projection


def merge_projections(
    projections: Sequence[RollupProjection],
) -> RollupProjection:
    """Fold several projections (e.g. one per pipeline log) into one.

    All inputs must share ``window_s``; consumption accounting sums and
    the digest chains the input digests in order.
    """
    if not projections:
        raise OpsError("cannot merge zero projections")
    widths = {projection.window_s for projection in projections}
    if len(widths) > 1:
        raise OpsError(f"cannot merge projections with window_s {sorted(widths)}")
    merged = RollupProjection(window_s=projections[0].window_s)
    chain = hashlib.sha256()
    for projection in projections:
        merged.consumed_bytes += projection.consumed_bytes
        merged.consumed_events += projection.consumed_events
        merged.truncated_lines += projection.truncated_lines
        chain.update(projection.content_digest.encode("utf-8"))
        for name in sorted(projection.flows):
            quality = merged.flows.get(name)
            if quality is None:
                quality = merged.flows[name] = FlowQuality()
            quality.merge(projection.flows[name])
        for name in sorted(projection.counters):
            merged.counters[name] = (
                merged.counters.get(name, 0.0) + projection.counters[name]
            )
    merged.content_digest = chain.hexdigest()
    merged.consumed_digest = merged.content_digest
    merged.source = "merged"
    return merged
