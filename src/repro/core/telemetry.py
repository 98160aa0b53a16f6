"""Structured telemetry: one substrate for every book the paper keeps.

The three case studies live or die by bookkeeping — bytes per stage, tape
recalls, transfer rates, "50 to 200 processors" — and the reproduction
used to keep those books in half a dozen disconnected counter structs.
This module is the single substrate they all now share:

* an **event bus** of typed, ordered
  :class:`TelemetryEvent` records (``stage.start/finish``,
  ``bytes.produced``, ``storage.write/recall/evict``,
  ``transfer.start/finish``, ``provenance.record``, ...);
* a **metrics registry** of named :class:`Counter` totals on each bus,
  which the trace replayer's ``workload.*`` counts fill.  The engine
  books a run only in its events, and every other subsystem keeps its
  books in its own stats (``HsmStats``, ``TapeStats``, ``LaneStats``,
  the stage cache's ``int`` fields, ...), bumped in place;
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

import json
import math
import numbers
import os
from collections import _tuplegetter  # type: ignore[attr-defined]
from contextlib import contextmanager
from operator import itemgetter
from pathlib import Path
from typing import (
    BinaryIO,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.errors import TelemetryError
from repro.core.recovery import AvailabilitySummary
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

    A number stays a number: numpy integer/floating/bool scalars become
    ``int``/``float``/``bool`` rather than their string, ``numpy.float64``
    (a ``float`` subclass) included: a plain float is what the log line
    holds and a read gives back.  Sets become a sorted tuple, so the frozen
    form does not follow ``PYTHONHASHSEED``.
    """
    if isinstance(value, float):
        return float(value)
    if isinstance(value, (str, int, bool)) or value is None:
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


class TelemetryEvent(tuple):
    """One record on the bus: one immutable flat tuple,
    ``(seq, kind, name, sim_time, span, keys, *values)``.

    ``sim_time`` is the emitting :class:`SimClock`'s virtual seconds, the
    only time an event carries.  ``keys`` is the tuple of attribute keys,
    sorted (:meth:`Telemetry.emit` sorts them, and a log line holds them as
    :func:`write_event_log` sorted them), and ``values`` follow in its
    order, each frozen by :func:`_freeze_attr`.  Events of one shape share
    one ``keys`` object (the emitting bus, or the read, keeps the memo), so
    an attribute costs its event one slot, not a ``(key, value)`` pair.
    Equality and hashing are the tuple's: by value.
    """

    __slots__ = ()

    # The read-only field descriptor a NamedTuple's fields use: a fold reads
    # ~5 fields an event, and property(itemgetter(i)) reads each ~15 ns slower.
    seq = _tuplegetter(0, "Position in the emitting bus's log.")
    kind = _tuplegetter(1, "The event's kind, one of EVENT_KINDS.")
    name = _tuplegetter(2, "What the event is about: a stage, file, request, ...")
    sim_time = _tuplegetter(3, "The emitting clock's simulated seconds.")
    span = _tuplegetter(4, "The open span path, outermost first.")

    def __new__(
        cls,
        seq: int,
        kind: str,
        name: str,
        sim_time: float,
        attrs: Iterable[Tuple[str, object]] = (),
        span: Tuple[str, ...] = (),
    ) -> "TelemetryEvent":
        pairs = sorted(attrs, key=itemgetter(0))
        keys = tuple([key for key, _ in pairs])
        return tuple.__new__(cls, (seq, kind, name, sim_time, tuple(span), keys,
                                   *[value for _, value in pairs]))

    def __getnewargs__(self) -> Tuple[object, ...]:
        return (self[0], self[1], self[2], self[3], self.attrs, self[4])

    def __repr__(self) -> str:
        return (f"TelemetryEvent(seq={self[0]!r}, kind={self[1]!r}, name={self[2]!r}, "
                f"sim_time={self[3]!r}, attrs={self.attrs!r}, span={self[4]!r})")

    @property
    def attrs(self) -> Tuple[Tuple[str, object], ...]:
        """The ``(key, value)`` pairs, sorted by key, built on each read."""
        return tuple(zip(self[5], self[6:]))

    def attr(self, key: str, default: object = None) -> object:
        keys = self[5]
        if key in keys:
            return _thaw(self[6 + keys.index(key)])
        return default

    def to_dict(self) -> Dict[str, object]:
        """The event's one dict form: what a log line holds."""
        return {
            "seq": self[0],
            "kind": self[1],
            "name": self[2],
            "sim_time": self[3],
            "span": list(self[4]),
            # _thaw inline: every event written passes here.
            "attrs": {
                key: list(value) if type(value) is tuple else value
                for key, value in zip(self[5], self[6:])
            },
        }

    @classmethod
    def from_dict(
        cls, record: Mapping[str, object], memo: Optional[Dict[object, object]] = None
    ) -> "TelemetryEvent":
        """The event a parsed log line describes; :class:`TelemetryError`
        unless it is an object with an integer ``seq``, a string ``kind``
        and ``name`` and a finite number ``sim_time`` (``attrs``, when
        present, an object of scalars and arrays of them; ``span`` an array
        of strings).  Nothing is coerced: :meth:`Telemetry.emit` writes no
        other shape, so a coerced line would read back as an event no run
        emitted.  Keys it does not name are ignored, so a line from an older
        writer that also stamped host time still loads.

        With a ``memo`` (a dict kept for one read), the event shares each
        string — kind, name, key, span part, string value — and its ``keys``
        tuple with every event built through the same memo."""
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
            # The keys in the line's order: write_event_log wrote them sorted,
            # and sorting them again added ~8 % to every line's parse.
            items = [seq, kind, name, sim_time, (), tuple(attrs)]
            for value in attrs.values():
                if type(value) not in _PLAIN_TYPES:
                    value = _from_json(value)
                items.append(value)
            if not isinstance(span, (list, tuple)):
                raise TypeError(f"span is {type(span).__name__}, not an array")
            for part in span:
                if type(part) is not str:
                    raise TypeError(f"span part {part!r} is not a string")
        except KeyError as exc:
            raise TelemetryError(f"malformed telemetry record: no {exc} key") from exc
        except (TypeError, ValueError) as exc:
            raise TelemetryError(f"malformed telemetry record: {exc}") from exc
        if memo is not None:
            share = memo.setdefault
            keys = memo.get(items[5])
            if keys is None:
                keys = memo[items[5]] = tuple([share(key, key) for key in items[5]])
            items[1], items[2], items[5] = share(kind, kind), share(name, name), keys
            items[6:] = [_shared(value, share) for value in items[6:]]
            span = [share(part, part) for part in span]
        items[4] = tuple(span)
        return tuple.__new__(cls, items)


def _shared(value: object, share: Callable[[str, str], str]) -> object:
    """``value`` with each string in it, in arrays too, taken from ``share``."""
    if type(value) is str:
        return share(value, value)
    if type(value) is tuple:
        return tuple([_shared(item, share) for item in value])
    return value


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


# -- counters ------------------------------------------------------------
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


class MetricsRegistry:
    """Named counters, created on first use."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def value(self, name: str, default: float = 0.0) -> float:
        counter = self._counters.get(name)
        return default if counter is None else counter.value

    def as_dict(self) -> Dict[str, float]:
        return {name: self._counters[name].value for name in sorted(self._counters)}


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
        #: A call's attribute keys, in the order it passed them, and also
        #: sorted -> the one sorted ``keys`` tuple its events share.
        self._keys: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

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
        # One call site passes its keys in one order: the memo sorts each
        # order once, and every event of the shape holds the same tuple.
        order = tuple(attrs)
        keys = self._keys.get(order)
        if keys is None:
            ordered = tuple(sorted(order))
            keys = self._keys[order] = self._keys.setdefault(ordered, ordered)
        values = []
        for key in keys:
            value = attrs[key]
            if type(value) not in _PLAIN_TYPES:
                value = _freeze_attr(value)
            values.append(value)
        # tuple.__new__ skips TelemetryEvent.__new__, which sorts pairs.
        event = tuple.__new__(TelemetryEvent, (
            len(self._events), kind, name, self.clock.now, self._span_path, keys, *values,
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
        attrs = {key: _thaw(value) for key, value in zip(event[5], event[6:])}
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
    # json.dumps(..., sort_keys=True) builds this encoder once a call.
    encode = json.JSONEncoder(sort_keys=True).encode
    with path.open("w", encoding="utf-8") as handle:
        for event in events:
            handle.write(encode(event.to_dict()))
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
    memo: Optional[Dict[object, object]] = None,
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

    ``memo`` goes to :meth:`TelemetryEvent.from_dict`: the events share
    their strings and key tuples through it.
    """
    offset = start
    lines = _lines(read_chunks(handle, start, size))
    for line in lines:
        text = line.strip()
        if text:
            try:
                event = TelemetryEvent.from_dict(json.loads(text.decode("utf-8")), memo)
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

    The events share their strings and key tuples: each distinct kind,
    name, attribute key, span part and string value (in arrays too), and
    each shape's ``keys``, is one object across the list.  The memo lives
    for this read only — no :func:`sys.intern` — and the folds, which keep
    no event, walk without it.
    """
    events = EventLog()
    with Path(path).open("rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        _, events.truncated_lines = walk_event_log(
            handle, size, events.append, str(path), memo={})
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
        attr = dict(zip(event[5], event[6:])).get
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


def availability_from_log(events: Iterable[TelemetryEvent]) -> AvailabilitySummary:
    """Flow availability accounting regenerated from a persisted log.

    Counts finished stages, retry attempts and their simulated wait,
    injected faults, graceful degradations, and dead letters — the
    columns the resilience experiment (C17) reports.  Works on pre-fault
    logs too: absent attributes read as a clean single attempt.
    """
    summary = AvailabilitySummary()
    for event in events:
        if event.kind == "stage.finish":
            summary.stages += 1
            summary.attempts += int(event.attr("attempts", 1))  # type: ignore[arg-type]
            summary.retry_wait_s += float(event.attr("retry_wait_s", 0.0))  # type: ignore[arg-type]
            if event.attr("degraded", False):
                summary.degraded += 1
        elif event.kind == "fault.injected":
            summary.faults_injected += 1
        elif event.kind == "stage.dead_letter":
            summary.dead_letters += 1
    return summary
