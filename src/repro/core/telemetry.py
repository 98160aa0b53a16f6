"""Structured telemetry: one substrate for every book the paper keeps.

The three case studies live or die by bookkeeping — bytes per stage, tape
recalls, transfer rates, "50 to 200 processors" — and the reproduction
used to keep those books in half a dozen disconnected counter structs.
This module is the single substrate they all now share:

* a process-local **event bus** of typed, ordered
  :class:`TelemetryEvent` records (``stage.start/finish``,
  ``bytes.produced``, ``storage.write/recall/evict``,
  ``transfer.start/finish``, ``provenance.record``, ...);
* a **metrics registry** of named instruments — :class:`Counter`,
  :class:`Gauge`, and :class:`HighWaterMark` — with one read side,
  :func:`registry_view`, which every subsystem ``stats`` property
  (``HsmStats``, ``TapeStats``, ``LaneStats``, ...) is a call to;
* nested **trace spans** stamped by a :class:`SimClock` (simulated
  seconds, not wall-clock), so a log is reproducible run to run;
* a **replayable JSONL log** — :func:`write_event_log` and one reader,
  :func:`walk_event_log`, which :func:`read_event_log` collects from and
  the operations rollup folds from — plus view functions
  (:func:`flow_summary_from_log`, :func:`stage_rows_from_log`,
  :func:`peak_storage_from_log`) that regenerate a flow report offline
  from a persisted log, with no engine or pipeline objects in sight.

Determinism contract: an event records what happened and when in
simulated seconds, and nothing of the host clock.  Two runs of the same
flow — shards inline or on worker processes — produce byte-identical logs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
)

from repro.core.errors import TelemetryError
from repro.core.units import DataSize, Duration

#: The typed vocabulary.  Emitting an unknown kind is a programming error:
#: the whole point of a shared substrate is that consumers can rely on the
#: schema of each kind.
EVENT_KINDS = frozenset(
    {
        "flow.start",
        "flow.finish",
        "stage.start",
        "stage.finish",
        "bytes.produced",
        "storage.write",
        "storage.recall",
        "storage.evict",
        "transfer.start",
        "transfer.finish",
        "provenance.record",
        "span.start",
        "span.finish",
        "service.call",
        "integrity.verify",
        "fault.injected",
        "stage.retry",
        "stage.degraded",
        "stage.dead_letter",
        "window.open",
        "window.close",
        "workload.request",
        "readcache.hit",
        "readcache.miss",
        "readcache.admit",
        "readcache.evict",
        "serve.rejected",
        "ops.rollup",
        "ops.report",
        "alert.raised",
        "alert.cleared",
    }
)

_Scalar = Union[str, int, float, bool, None]

#: Exact types :meth:`Telemetry.emit` stores as they are, without a
#: :func:`_freeze_attr` call (which would return them unchanged).
_PLAIN_TYPES = frozenset({str, int, float, bool, type(None)})


def _freeze_attr(value: object) -> object:
    """Coerce an attribute value to a JSON-stable, hashable form.

    A number stays a number: numpy integer/floating/bool scalars that are
    not Python subclasses become ``int``/``float``/``bool`` rather than
    their string.  Sets become a sorted tuple, so the frozen form does not
    follow ``PYTHONHASHSEED``.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, DataSize):
        return value.bytes
    if isinstance(value, Duration):
        return value.seconds
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_attr(item) for item in value)
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, (set, frozenset)):
        items = [_freeze_attr(item) for item in value]
        try:
            return tuple(sorted(items))  # type: ignore[type-var]
        except TypeError:  # members of unorderable types: any fixed order
            return tuple(sorted(items, key=repr))
    # numpy.bool_ registers with no ``numbers`` ABC; its ``item()`` is a bool.
    if type(value).__module__ == "numpy" and type(value).__name__ in ("bool", "bool_"):
        return value.item()  # type: ignore[attr-defined]
    return str(value)


def _thaw(value: object) -> object:
    return list(value) if isinstance(value, tuple) else value


class TelemetryEvent(NamedTuple):
    """One record on the bus: an immutable tuple record.

    ``sim_time`` is the emitting :class:`SimClock`'s virtual seconds, the
    only time an event carries.  ``attrs`` is sorted by key, with every
    value frozen by :func:`_freeze_attr`.
    """

    seq: int
    kind: str
    name: str
    sim_time: float
    attrs: Tuple[Tuple[str, object], ...] = ()
    span: Tuple[str, ...] = ()

    def attr(self, key: str, default: object = None) -> object:
        for attr_key, value in self.attrs:
            if attr_key == key:
                return _thaw(value)
        return default

    def to_dict(self) -> Dict[str, object]:
        """The event's one dict form: what a log line holds."""
        return {
            "seq": self.seq,
            "kind": self.kind,
            "name": self.name,
            "sim_time": self.sim_time,
            "span": list(self.span),
            "attrs": {key: _thaw(value) for key, value in self.attrs},
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, object]) -> "TelemetryEvent":
        """The event a parsed log line describes; :class:`TelemetryError`
        unless it is an object with ``seq``/``kind``/``name`` and a finite
        ``sim_time`` (``attrs``, when present, an object; ``span`` an array).
        Keys it does not name are ignored, so a line from an older writer
        that also stamped host time still loads."""
        try:
            # ``dict`` first: every log line passes here, and the ABC check
            # alone costs ten times the exact-type one.
            if not isinstance(record, (dict, Mapping)):
                raise TypeError(f"expected an object, got {type(record).__name__}")
            attrs = record.get("attrs", {})
            if not isinstance(attrs, (dict, Mapping)):
                raise TypeError(f"attrs is {type(attrs).__name__}, not an object")
            span = record.get("span", ())
            if not isinstance(span, (list, tuple)):
                raise TypeError(f"span is {type(span).__name__}, not an array")
            # json.loads takes NaN and Infinity, which no SimClock reads.
            sim_time = float(record["sim_time"])  # type: ignore[arg-type]
            if not math.isfinite(sim_time):
                raise ValueError(f"sim_time is {sim_time}, not a finite number")
            return cls(
                seq=int(record["seq"]),  # type: ignore[arg-type]
                kind=str(record["kind"]),
                name=str(record["name"]),
                sim_time=sim_time,
                attrs=tuple(
                    (str(key), _freeze_attr(value)) for key, value in attrs.items()
                ),
                span=tuple(str(part) for part in span),
            )
        except KeyError as exc:
            raise TelemetryError(f"malformed telemetry record: no {exc} key") from exc
        except (TypeError, ValueError) as exc:
            raise TelemetryError(f"malformed telemetry record: {exc}") from exc


class SimClock:
    """A simulated clock: starts at zero, advances only when told to.

    The engine advances it by each stage's simulated CPU seconds while it
    replays accounting, so span and stage timestamps mean "simulated
    seconds into the run" and are identical across execution strategies.
    """

    def __init__(self, start: float = 0.0):
        if not math.isfinite(start):  # it would poison a shared clock for good
            raise TelemetryError(f"cannot start the clock at {start}")
        self._now = float(start)
        self._lock = threading.Lock()

    @property
    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        # NaN or inf too: it would poison a shared clock for good.
        if not 0 <= seconds < math.inf:
            raise TelemetryError(f"cannot advance the clock by {seconds}")
        with self._lock:
            self._now += seconds
            return self._now


# -- instruments ---------------------------------------------------------
class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._value = 0.0
        self._lock = lock

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> float:
        if not amount >= 0:  # NaN too: it would poison the total for good
            raise TelemetryError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount
            return self._value


class Gauge:
    """A value that can move both ways (live bytes, busy seconds)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._value = 0.0
        self._lock = lock

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> float:
        with self._lock:
            self._value = float(value)
            return self._value

    def add(self, amount: float) -> float:
        with self._lock:
            self._value += amount
            return self._value


class HighWaterMark:
    """Tracks the maximum a quantity ever reached (peak live storage)."""

    __slots__ = ("name", "_peak", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._peak = 0.0
        self._lock = lock

    @property
    def peak(self) -> float:
        return self._peak

    def observe(self, value: float) -> float:
        with self._lock:
            if value > self._peak:
                self._peak = float(value)
            return self._peak


Instrument = Union[Counter, Gauge, HighWaterMark]


class MetricsRegistry:
    """Named instruments, created on first use.

    A name is bound to exactly one instrument type for the registry's
    lifetime; asking for the same name as a different type raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, Instrument] = {}

    def _get_or_create(self, name: str, factory: Callable[..., Instrument]) -> Instrument:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory(name, threading.Lock())
                self._instruments[name] = instrument
            elif not isinstance(instrument, factory):  # type: ignore[arg-type]
                raise TelemetryError(
                    f"instrument {name!r} is a {type(instrument).__name__}, "
                    f"not a {factory.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)  # type: ignore[return-value]

    def highwater(self, name: str) -> HighWaterMark:
        return self._get_or_create(name, HighWaterMark)  # type: ignore[return-value]

    def value(self, name: str, default: float = 0.0) -> float:
        instrument = self._instruments.get(name)
        if instrument is None:
            return default
        if isinstance(instrument, HighWaterMark):
            return instrument.peak
        return instrument.value

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def as_dict(self) -> Dict[str, float]:
        return {name: self.value(name) for name in self.names()}

    def rows(self, prefix: str = "") -> List[Dict[str, object]]:
        """Benchmark-table rows (``metric``/``value``) for instruments whose
        name starts with ``prefix`` — the bridge from live counters to the
        ``report_rows`` tables the benchmark suite emits."""
        return [
            {"metric": name, "value": self.value(name)}
            for name in self.names()
            if name.startswith(prefix)
        ]

    # -- cross-process transfer ------------------------------------------
    def export(self) -> Dict[str, Tuple[str, float]]:
        """Picklable snapshot ``{name: (instrument type, value)}``.

        The transfer format for moving a worker process's registry home:
        plain strings and floats, nothing that needs this module on the
        unpickling side.
        """
        with self._lock:
            instruments = list(self._instruments.items())
        snapshot: Dict[str, Tuple[str, float]] = {}
        for name, instrument in instruments:
            if isinstance(instrument, Counter):
                snapshot[name] = ("counter", instrument.value)
            elif isinstance(instrument, Gauge):
                snapshot[name] = ("gauge", instrument.value)
            else:
                snapshot[name] = ("highwater", instrument.peak)
        return snapshot

    def absorb(self, snapshot: Mapping[str, Tuple[str, float]]) -> None:
        """Merge an :meth:`export` snapshot into this registry.

        Counters accumulate (a child's total is added), gauges adopt the
        snapshot value (last write wins), high-water marks observe it.
        Names are merged in sorted order so instrument creation order —
        and therefore :meth:`names`/:meth:`as_dict` — is deterministic no
        matter which worker finished first.
        """
        for name in sorted(snapshot):
            kind, value = snapshot[name]
            if kind == "counter":
                self.counter(name).inc(float(value))
            elif kind == "gauge":
                self.gauge(name).set(float(value))
            elif kind == "highwater":
                self.highwater(name).observe(float(value))
            else:
                raise TelemetryError(
                    f"cannot absorb unknown instrument type {kind!r} for {name!r}"
                )


_Stats = TypeVar("_Stats")


def registry_view(metrics: MetricsRegistry, cls: Type[_Stats], prefix: str) -> _Stats:
    """A stats dataclass read from a registry's ``<prefix>.<field>`` instruments.

    The one read side of every subsystem's books: each value is cast to
    the type of its field's default (``int`` counts, ``float`` volumes,
    :class:`Duration` times), and an instrument that was never touched
    reads as zero.  A field kept under another instrument name says so
    where it is declared, ``field(metadata={"instrument": "busy_seconds"})``.
    """
    blank = cls()  # every stats field has a default; its type is the field's
    values = {}
    for spec in dataclasses.fields(blank):  # type: ignore[arg-type]
        instrument = spec.metadata.get("instrument", spec.name)
        cast = type(getattr(blank, spec.name))
        values[spec.name] = cast(metrics.value(f"{prefix}.{instrument}"))
    return cls(**values)


# -- the bus -------------------------------------------------------------
class _SpanStack(threading.local):
    """One thread's open span path: the class default ``()`` until it opens one."""

    stack: Tuple[str, ...] = ()


class Telemetry:
    """The process-local substrate: event bus + registry + clock + spans.

    Emission is thread-safe (sequence numbers and the log are guarded by
    one lock); span nesting is tracked per thread so a worker pool cannot
    corrupt another thread's span path.
    """

    def __init__(self, clock: Optional[SimClock] = None):
        self.clock = clock if clock is not None else SimClock()
        self.registry = MetricsRegistry()
        self._events: List[TelemetryEvent] = []
        self._lock = threading.Lock()
        self._spans = _SpanStack()

    # -- events ----------------------------------------------------------
    def emit(self, kind: str, name: str = "", **attrs: object) -> TelemetryEvent:
        # The runtime kind check stays (≈ 0.04 µs an event): RPR003 proves
        # only literal kinds, and forward_events re-emits whatever it is given.
        if kind not in EVENT_KINDS:
            raise TelemetryError(
                f"unknown event kind {kind!r}; expected one of {sorted(EVENT_KINDS)}"
            )
        # Keys are unique, so sorting them alone orders the (key, value) pairs.
        pairs = []
        for key in sorted(attrs):
            value = attrs[key]
            if type(value) not in _PLAIN_TYPES:
                value = _freeze_attr(value)
            pairs.append((key, value))
        frozen = tuple(pairs)
        with self._lock:
            # tuple.__new__ skips the NamedTuple's Python-level __new__.
            event = tuple.__new__(TelemetryEvent, (
                len(self._events), kind, name, self.clock.now,
                frozen, self._spans.stack,
            ))
            self._events.append(event)
        return event

    def events(self, start: int = 0, kind: Optional[str] = None) -> List[TelemetryEvent]:
        with self._lock:
            window = self._events[start:]
        if kind is None:
            return window
        return [event for event in window if event.kind == kind]

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    # -- spans -----------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[TelemetryEvent]:
        """Nested trace span; emits ``span.start``/``span.finish``.

        The finish event records the span's simulated duration — the
        clock delta between entry and exit.
        """
        stack = self._spans.stack
        started = self.clock.now
        start_event = self.emit("span.start", name, depth=len(stack), **attrs)
        self._spans.stack = stack + (name,)
        try:
            yield start_event
        finally:
            self._spans.stack = stack
            self.emit(
                "span.finish",
                name,
                depth=len(stack),
                elapsed_s=self.clock.now - started,
                **attrs,
            )


# -- process default -----------------------------------------------------
_default_lock = threading.Lock()
_default: Optional[Telemetry] = None


def get_telemetry() -> Telemetry:
    """The process-local default substrate (created on first use).

    Subsystems that are not handed an explicit :class:`Telemetry` publish
    here, so one operational stream covers a whole process by default.
    The engine deliberately does *not* use it: each engine owns a private
    instance so a run's log is self-contained and deterministic.
    """
    global _default
    with _default_lock:
        if _default is None:
            _default = Telemetry()
        return _default


def set_telemetry(telemetry: Optional[Telemetry]) -> Optional[Telemetry]:
    """Install (or, with ``None``, reset) the process default; returns the old one."""
    global _default
    with _default_lock:
        previous = _default
        _default = telemetry
        return previous


@contextmanager
def telemetry_session(telemetry: Optional[Telemetry] = None) -> Iterator[Telemetry]:
    """Scoped default-telemetry override (tests, benchmark isolation)."""
    session = telemetry if telemetry is not None else Telemetry()
    previous = set_telemetry(session)
    try:
        yield session
    finally:
        set_telemetry(previous)


# -- child-process event forwarding ---------------------------------------
# A worker process cannot emit onto the parent's bus, so shard execution
# runs each unit of work under a fresh process-default substrate, captures
# what it emitted, and the parent replays it in shard order.  The replay
# assigns fresh sequence numbers from the parent's bus and timestamps from
# the parent's clock — exactly what an inline shard emitting directly
# would have gotten — so inline and process runs forward to identical
# logs.
def capture_events(
    fn: Callable[[], object],
) -> Tuple[object, List[TelemetryEvent], Dict[str, Tuple[str, float]]]:
    """Run ``fn`` under a private default substrate; return what it emitted.

    Returns ``(fn's result, emitted events, registry export)``.
    """
    with telemetry_session() as session:
        value = fn()
        return value, session.events(), session.registry.export()


def forward_events(
    telemetry: Telemetry,
    events: Iterable[TelemetryEvent],
    counters: Optional[Mapping[str, Tuple[str, float]]] = None,
) -> List[TelemetryEvent]:
    """Re-emit captured child events onto a bus.

    Each event lands with a fresh sequence number and the receiving bus's
    clock; the optional ``counters`` snapshot is absorbed afterwards.
    """
    forwarded: List[TelemetryEvent] = []
    for event in events:
        attrs = {key: _thaw(value) for key, value in event.attrs}
        forwarded.append(telemetry.emit(event.kind, event.name, **attrs))
    if counters:
        telemetry.registry.absorb(counters)
    return forwarded


# -- JSONL persistence ---------------------------------------------------
def write_event_log(
    path: Union[str, Path],
    events: Union[Telemetry, Sequence[TelemetryEvent]],
) -> int:
    """Persist events as one JSON object per line; returns the count."""
    if isinstance(events, Telemetry):
        events = events.events()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event.to_dict(), sort_keys=True))
            handle.write("\n")
    return len(events)


class EventLog(List[TelemetryEvent]):
    """A loaded event log: a plain event list plus read accounting.

    ``truncated_lines`` counts the torn tail :func:`walk_event_log`
    skipped (0 or 1), so an operations reader can always serve the intact
    prefix of a live log and the skip stays visible instead of silent.
    """

    __slots__ = ("truncated_lines",)

    def __init__(
        self,
        events: Iterable[TelemetryEvent] = (),
        truncated_lines: int = 0,
    ):
        super().__init__(events)
        self.truncated_lines = truncated_lines


def walk_event_log(
    data: bytes,
    sink: Callable[[TelemetryEvent], object],
    source: str,
    start: int = 0,
) -> Tuple[int, int]:
    """The one log reader: hand every event in ``data[start:]`` to ``sink``.

    Returns ``(consumed, truncated_lines)`` — the offset a later walk over
    the grown log resumes from, and the torn lines skipped (0 or 1).

    A *record* is a non-blank line :meth:`TelemetryEvent.from_dict` accepts.
    The *torn tail* is the last non-blank line when it does not parse (a
    writer died, or still is, mid-append): skipped, counted, never consumed,
    with or without a newline or blank lines after it.  A strict prefix of
    a serialised object never parses, so unterminated bytes that do parse
    are a complete record.  Any other line that does not parse, or parses
    to something other than an event, is *corruption* and raises
    :class:`TelemetryError` naming ``source`` and the line.
    """
    offset, end = start, len(data)
    while offset < end:
        found = data.find(b"\n", offset)
        stop = end if found < 0 else found + 1
        line = data[offset:stop].strip()
        if line:
            try:
                event = TelemetryEvent.from_dict(json.loads(line.decode("utf-8")))
            except (ValueError, TelemetryError) as exc:
                problem = str(exc)
                if isinstance(exc, ValueError):  # bad JSON, or bytes that are not UTF-8
                    if not data[stop:].strip():
                        return offset, 1
                    problem = f"corrupt interior line at byte {offset}, not valid JSON: {exc}"
                line_number = data.count(b"\n", 0, offset) + 1
                raise TelemetryError(f"{source}: line {line_number}: {problem}") from exc
            sink(event)
        offset = stop
    return offset, 0


def read_event_log(path: Union[str, Path]) -> EventLog:
    """Load a JSONL event log (:func:`walk_event_log`'s rules) into a list."""
    events = EventLog()
    _, events.truncated_lines = walk_event_log(Path(path).read_bytes(), events.append, str(path))
    return events


def strip_wall_clock(
    events: Iterable[TelemetryEvent],
) -> List[Dict[str, object]]:
    """``[event.to_dict() for event in events]``: an event holds no wall
    clock to strip.  Kept under its old name for perfbench's
    ``canonical_digest``, which imports it."""
    return [event.to_dict() for event in events]


# -- views over a flow log -----------------------------------------------
# These functions regenerate engine reports *offline* from a persisted
# log.  They must stay in lock-step with what the engine emits — the
# round-trip is pinned by tests (live FlowReport == replayed report).
def stage_rows_from_log(
    events: Iterable[TelemetryEvent],
) -> List[Dict[str, object]]:
    """Raw per-stage accounting from the ``stage.finish`` events."""
    rows: List[Dict[str, object]] = []
    for event in events:
        if event.kind != "stage.finish":
            continue
        attr = dict(event.attrs).get
        rows.append(
            {
                "name": event.name,
                "site": attr("site"),
                "input_bytes": float(attr("input_bytes", 0.0)),  # type: ignore[arg-type]
                "output_bytes": float(attr("output_bytes", 0.0)),  # type: ignore[arg-type]
                "cpu_seconds": float(attr("cpu_seconds", 0.0)),  # type: ignore[arg-type]
                "provenance_id": attr("provenance_id"),
                # Availability columns (absent from pre-fault logs, so
                # default to a clean single attempt).
                "attempts": int(attr("attempts", 1)),  # type: ignore[arg-type]
                "retry_wait_s": float(attr("retry_wait_s", 0.0)),  # type: ignore[arg-type]
                "degraded": bool(attr("degraded", False)),
            }
        )
    return rows


def flow_summary_from_log(
    events: Iterable[TelemetryEvent],
) -> List[Dict[str, object]]:
    """Regenerate ``FlowReport.summary_rows()`` from a log alone."""
    return [
        {
            "stage": row["name"],
            "site": row["site"],
            "in": str(DataSize(row["input_bytes"])),  # type: ignore[arg-type]
            "out": str(DataSize(row["output_bytes"])),  # type: ignore[arg-type]
            "cpu": str(Duration(row["cpu_seconds"])),  # type: ignore[arg-type]
            "attempts": row["attempts"],
            "wait": str(Duration(row["retry_wait_s"])),  # type: ignore[arg-type]
            "degraded": row["degraded"],
        }
        for row in stage_rows_from_log(events)
    ]


def peak_storage_from_log(events: Iterable[TelemetryEvent]) -> DataSize:
    """The run's live-storage high-water mark, from ``flow.finish``."""
    for event in events:
        if event.kind == "flow.finish":
            return DataSize(float(event.attr("peak_bytes", 0.0)))  # type: ignore[arg-type]
    raise TelemetryError("log holds no flow.finish event")


def total_cpu_from_log(events: Iterable[TelemetryEvent]) -> Duration:
    """Total simulated CPU across all stages of a logged run."""
    return Duration(
        sum(row["cpu_seconds"] for row in stage_rows_from_log(events))  # type: ignore[misc]
    )


def availability_from_log(events: Iterable[TelemetryEvent]) -> Dict[str, object]:
    """Flow availability accounting regenerated from a persisted log.

    Counts stage completions, retry attempts and their simulated wait,
    injected faults, graceful degradations, and dead letters — the
    columns the resilience experiment (C17) reports.  Works on pre-fault
    logs too: absent attributes read as a clean single attempt.
    """
    summary: Dict[str, object] = {
        "stages": 0,
        "completed": 0,
        "degraded": 0,
        "dead_letters": 0,
        "attempts": 0,
        "faults_injected": 0,
        "retry_wait_s": 0.0,
    }
    for event in events:
        if event.kind == "stage.finish":
            summary["stages"] += 1  # type: ignore[operator]
            summary["completed"] += 1  # type: ignore[operator]
            summary["attempts"] += int(event.attr("attempts", 1))  # type: ignore[arg-type, operator]
            summary["retry_wait_s"] += float(event.attr("retry_wait_s", 0.0))  # type: ignore[arg-type, operator]
            if event.attr("degraded", False):
                summary["degraded"] += 1  # type: ignore[operator]
        elif event.kind == "fault.injected":
            summary["faults_injected"] += 1  # type: ignore[operator]
        elif event.kind == "stage.dead_letter":
            summary["dead_letters"] += 1  # type: ignore[operator]
    return summary
