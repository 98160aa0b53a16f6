"""Structured telemetry: one substrate for every book the paper keeps.

The three case studies live or die by bookkeeping — bytes per stage, tape
recalls, transfer rates, "50 to 200 processors" — and the reproduction
used to keep those books in half a dozen disconnected counter structs.
This module is the single substrate they all now share:

* an **event bus** of typed, ordered
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
import os
from contextlib import contextmanager
from pathlib import Path
from typing import (
    BinaryIO,
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

#: Bytes a log walk reads at a time: what a reader holds of a log, whatever
#: its length.
READ_CHUNK = 1 << 16

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


def _from_json(value: object) -> object:
    """An attribute value as :func:`_freeze_attr` left it, from the JSON a
    log line holds: an array becomes a tuple.  An object raises
    :class:`TypeError` — a frozen value is never one."""
    if type(value) in _PLAIN_TYPES:
        return value
    if type(value) is list or type(value) is tuple:
        return tuple(_from_json(item) for item in value)
    raise TypeError(f"attribute value {value!r} is {type(value).__name__}, not a scalar or array")


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
        unless it is an object with an integer ``seq``, a string ``kind``
        and ``name`` and a finite number ``sim_time`` (``attrs``, when
        present, an object of scalars and arrays of them; ``span`` an array
        of strings).  Nothing is coerced: :meth:`Telemetry.emit` writes no
        other shape, so a coerced line would read back as an event no run
        emitted.  Keys it does not name are ignored, so a line from an older
        writer that also stamped host time still loads."""
        try:
            # ``dict`` first: every log line passes here, and the ABC check
            # alone costs ten times the exact-type one.
            if not isinstance(record, (dict, Mapping)):
                raise TypeError(f"expected an object, got {type(record).__name__}")
            seq, kind, name = record["seq"], record["kind"], record["name"]
            sim_time = record["sim_time"]
            attrs = record.get("attrs", {})
            span = record.get("span", ())
            if type(seq) is not int:  # a bool is an int to isinstance
                raise TypeError(f"seq is {type(seq).__name__}, not an integer")
            if type(kind) is not str or type(name) is not str:
                raise TypeError(f"kind and name are {type(kind).__name__} and "
                                f"{type(name).__name__}, not strings")
            if type(sim_time) is not float:
                if type(sim_time) is not int:
                    raise TypeError(f"sim_time is {type(sim_time).__name__}, not a number")
                sim_time = float(sim_time)
            # json.loads takes NaN and Infinity, which no SimClock reads.
            if not math.isfinite(sim_time):
                raise ValueError(f"sim_time is {sim_time}, not a finite number")
            if not isinstance(attrs, (dict, Mapping)):
                raise TypeError(f"attrs is {type(attrs).__name__}, not an object")
            pairs = []
            for key, value in attrs.items():
                if type(value) not in _PLAIN_TYPES:
                    value = _from_json(value)
                pairs.append((key, value))
            if not isinstance(span, (list, tuple)):
                raise TypeError(f"span is {type(span).__name__}, not an array")
            for part in span:
                if type(part) is not str:
                    raise TypeError(f"span part {part!r} is not a string")
        except KeyError as exc:
            raise TelemetryError(f"malformed telemetry record: no {exc} key") from exc
        except (TypeError, ValueError) as exc:
            raise TelemetryError(f"malformed telemetry record: {exc}") from exc
        return tuple.__new__(cls, (seq, kind, name, sim_time, tuple(pairs), tuple(span)))


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

    @property
    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        # NaN or inf too: it would poison a shared clock for good.
        if not 0 <= seconds < math.inf:
            raise TelemetryError(f"cannot advance the clock by {seconds}")
        self._now += seconds
        return self._now


# -- instruments ---------------------------------------------------------
class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> float:
        if not amount >= 0:  # NaN too: it would poison the total for good
            raise TelemetryError(f"counter {self.name!r} cannot decrease")
        self._value += amount
        return self._value


class Gauge:
    """A value that can move both ways (live bytes, busy seconds)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> float:
        self._value = float(value)
        return self._value

    def add(self, amount: float) -> float:
        self._value += amount
        return self._value


class HighWaterMark:
    """Tracks the maximum a quantity ever reached (peak live storage)."""

    __slots__ = ("name", "_peak")

    def __init__(self, name: str):
        self.name = name
        self._peak = 0.0

    @property
    def peak(self) -> float:
        return self._peak

    def observe(self, value: float) -> float:
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
        self._instruments: Dict[str, Instrument] = {}

    def _get_or_create(self, name: str, factory: Callable[[str], Instrument]) -> Instrument:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = factory(name)
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
class Telemetry:
    """The substrate: event bus + registry + clock + spans.

    One thread owns a bus: an event's sequence number is the log's length
    when it lands, and its span path is the bus's one open-span tuple.
    A subsystem handed no bus keeps a private one; there is no process
    default.  Shard workers and kernel tiles never reach a bus.
    """

    def __init__(self, clock: Optional[SimClock] = None):
        self.clock = clock if clock is not None else SimClock()
        self.registry = MetricsRegistry()
        self._events: List[TelemetryEvent] = []
        #: The open span path, outermost first.
        self._span_path: Tuple[str, ...] = ()

    # -- events ----------------------------------------------------------
    def emit(self, kind: str, name: str = "", **attrs: object) -> TelemetryEvent:
        # The runtime checks stay (≈ 0.04 µs an event): RPR003 proves only
        # literal kinds, and a name that is not a str writes a log line the
        # reader refuses.
        if kind not in EVENT_KINDS:
            raise TelemetryError(
                f"unknown event kind {kind!r}; expected one of {sorted(EVENT_KINDS)}"
            )
        if type(name) is not str and not isinstance(name, str):
            raise TelemetryError(f"event name {name!r} is {type(name).__name__}, not a str")
        # Keys are unique, so sorting them alone orders the (key, value) pairs.
        pairs = []
        for key in sorted(attrs):
            value = attrs[key]
            if type(value) not in _PLAIN_TYPES:
                value = _freeze_attr(value)
            pairs.append((key, value))
        # tuple.__new__ skips the NamedTuple's Python-level __new__.
        event = tuple.__new__(TelemetryEvent, (
            len(self._events), kind, name, self.clock.now,
            tuple(pairs), self._span_path,
        ))
        self._events.append(event)
        return event

    def events(self, start: int = 0, kind: Optional[str] = None) -> List[TelemetryEvent]:
        window = self._events[start:]
        if kind is None:
            return window
        return [event for event in window if event.kind == kind]

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        self._events.clear()

    # -- spans -----------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[TelemetryEvent]:
        """Nested trace span; emits ``span.start``/``span.finish``.

        The finish event records the span's simulated duration — the
        clock delta between entry and exit.
        """
        stack = self._span_path
        started = self.clock.now
        start_event = self.emit("span.start", name, depth=len(stack), **attrs)
        self._span_path = stack + (name,)
        try:
            yield start_event
        finally:
            self._span_path = stack
            self.emit(
                "span.finish",
                name,
                depth=len(stack),
                elapsed_s=self.clock.now - started,
                **attrs,
            )


def forward_events(
    telemetry: Telemetry, events: Iterable[TelemetryEvent]
) -> List[TelemetryEvent]:
    """Re-emit events onto a bus, each with a fresh sequence number and
    the receiving bus's clock.

    Nothing in ``src/`` forwards events any more (a shard emits nothing);
    this stays while perfbench's ``shards.forward`` boundary wraps it by
    name.
    """
    forwarded: List[TelemetryEvent] = []
    for event in events:
        attrs = {key: _thaw(value) for key, value in event.attrs}
        forwarded.append(telemetry.emit(event.kind, event.name, **attrs))
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


def read_chunks(handle: BinaryIO, start: int, stop: int) -> Iterator[bytes]:
    """``handle``'s bytes ``[start, stop)``, :data:`READ_CHUNK` at a time
    (fewer if the file is shorter)."""
    handle.seek(start)
    while start < stop:
        chunk = handle.read(min(READ_CHUNK, stop - start))
        if not chunk:
            return
        start += len(chunk)
        yield chunk
        # Let go before the next read, and a reader that does the same holds
        # one chunk at a time, never two.
        del chunk


def _lines(chunks: Iterable[bytes]) -> Iterator[bytes]:
    """The lines of a chunked byte stream, each with its newline (the last
    may lack one).  A line is a slice of its chunk, or of the few chunks it
    straddles joined."""
    pending = b""
    for chunk in chunks:
        pos, found = 0, chunk.find(b"\n")
        if pending and found >= 0:
            yield pending + chunk[: found + 1]
            pending, pos = b"", found + 1
            found = chunk.find(b"\n", pos)
        while found >= 0:
            yield chunk[pos : found + 1]
            pos = found + 1
            found = chunk.find(b"\n", pos)
        pending += chunk[pos:]
        del chunk  # before the next read (see read_chunks)
    if pending:
        yield pending


def walk_event_log(
    handle: BinaryIO,
    size: int,
    sink: Callable[[TelemetryEvent], object],
    source: str,
    start: int = 0,
) -> Tuple[int, int]:
    """The one log reader: hand every event in bytes ``[start, size)`` of
    the binary file ``handle`` to ``sink``.

    Returns ``(consumed, truncated_lines)`` — the offset a later walk over
    the grown log resumes from, and the torn lines skipped (0 or 1).

    The file is read :data:`READ_CHUNK` bytes at a time, so a walk holds one
    chunk and the line in hand, never the log.  ``size`` is what the caller
    took when it opened the log: bytes appended during the walk are the
    next walk's.

    A *record* is a non-blank line :meth:`TelemetryEvent.from_dict` accepts.
    The *torn tail* is the last non-blank line when it does not parse (a
    writer died, or still is, mid-append): skipped, counted, never consumed,
    with or without a newline or blank lines after it.  A strict prefix of
    a serialised object never parses, so unterminated bytes that do parse
    are a complete record.  Any other line that does not parse, or parses
    to something other than an event, is *corruption* and raises
    :class:`TelemetryError` naming ``source`` and the line.
    """
    offset = start
    lines = _lines(read_chunks(handle, start, size))
    for line in lines:
        text = line.strip()
        if text:
            try:
                event = TelemetryEvent.from_dict(json.loads(text.decode("utf-8")))
            except (ValueError, TelemetryError) as exc:
                problem = str(exc)
                if isinstance(exc, ValueError):  # bad JSON, or bytes that are not UTF-8
                    if not any(rest.strip() for rest in lines):
                        return offset, 1
                    problem = f"corrupt interior line at byte {offset}, not valid JSON: {exc}"
                before = read_chunks(handle, 0, offset)
                line_number = 1 + sum(chunk.count(b"\n") for chunk in before)
                raise TelemetryError(f"{source}: line {line_number}: {problem}") from exc
            sink(event)
        offset += len(line)
    return offset, 0


def read_event_log(path: Union[str, Path]) -> EventLog:
    """Load a JSONL event log (:func:`walk_event_log`'s rules) into a list.

    The events share their strings: each distinct kind, name, attribute
    key, span part and string value (in arrays too) is one object across
    the list.  The memo lives for this read only — no :func:`sys.intern` —
    and the folds, which keep no event, walk without it.
    """
    events = EventLog()
    share = {}.setdefault

    def shared(value: object) -> object:
        if type(value) is str:
            return share(value, value)
        if type(value) is tuple:
            return tuple([shared(item) for item in value])
        return value

    def keep(event: TelemetryEvent) -> None:
        seq, kind, name, sim_time, attrs, span = event
        events.append(tuple.__new__(TelemetryEvent, (
            seq, share(kind, kind), share(name, name), sim_time,
            tuple([(share(key, key), shared(value)) for key, value in attrs]),
            tuple([share(part, part) for part in span]),
        )))

    with Path(path).open("rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        _, events.truncated_lines = walk_event_log(handle, size, keep, str(path))
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
