"""The telemetry substrate: bus, instruments, spans, and the JSONL log."""

import contextlib
import copy
import gc
import io
import json
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.dataflow import DataFlow
from repro.core.dataset import Dataset
from repro.core.engine import Engine
from repro.core.cachestore import DiskCacheStore
from repro.core.errors import OpsError, TelemetryError
from repro.core.telemetry import (
    EVENT_KINDS,
    Counter,
    MetricsRegistry,
    SimClock,
    Telemetry,
    TelemetryEvent,
    flow_summary_from_log,
    peak_storage_from_log,
    read_event_log,
    stage_rows_from_log,
    total_cpu_from_log,
    walk_event_log,
    write_event_log,
)
from repro.core.telemetry import _freeze_attr
from repro.core.units import DataSize, Duration
from repro.ops.rollup import build_rollup, scan_log

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.floats(min_value=0, max_value=1e15).map(DataSize),
    st.floats(min_value=0, max_value=1e9).map(Duration),
    st.integers(min_value=-(2**31), max_value=2**31 - 1).map(np.int64),
    st.floats(width=32, allow_nan=False).map(np.float32),
    st.floats(allow_nan=False).map(np.float64),
    st.booleans().map(np.bool_),
)
#: Sets whose members need not be mutually orderable.
_set_members = st.one_of(st.integers(-9, 9), st.floats(allow_nan=False), st.text(max_size=3))
_mixed_sets = st.one_of(
    st.sets(_set_members, max_size=4), st.frozensets(_set_members, max_size=4)
)
_attr_values = st.recursive(
    st.one_of(_scalars, _mixed_sets),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple)),
    max_leaves=8,
)
#: Keyword names ``emit`` itself does not bind.
_attr_keys = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=6).filter(
    lambda key: key not in ("kind", "name", "self")
)


#: The keys a record must carry; ``attrs`` and ``span`` may be absent.
_RECORD = {"seq": 0, "kind": "stage.start", "name": "s", "sim_time": 0.0}


_TORN = b'{"seq": 7, "kind": "stage.st'
_UNTERMINATED = b'{"seq": 7, "kind": "stage.start", "name": "t", "sim_time": 0.0}'
_STRING_SPAN = b'{"seq": 7, "kind": "stage.start", "name": "t", "sim_time": 0.0, "span": "abc"}'
#: ``json.loads`` reads ``NaN`` and ``Infinity``; no clock does.
_NAN_TIME = b'{"seq": 7, "kind": "stage.start", "name": "t", "sim_time": NaN}'
_INFINITE_TIME = b'{"seq": 7, "kind": "stage.start", "name": "t", "sim_time": Infinity}'


def _read_both_ways(path):
    """``(events, truncated_lines)`` or ``("corrupt", message)`` — the one
    answer the collecting reader and the folding reader must both give."""
    def answer(read, count):
        try:
            log = read(path)
        except (TelemetryError, OpsError) as exc:
            return "corrupt", str(exc)
        return count(log), log.truncated_lines

    collected = answer(read_event_log, len)
    assert collected == answer(scan_log, lambda projection: projection.consumed_events)
    return collected


def _types(value):
    """The type tree of a frozen attribute value (``1 == True == 1.0``, so
    equality alone would not see a number change type)."""
    if isinstance(value, tuple):
        return tuple(_types(item) for item in value)
    return type(value)


class TestEventBus:
    def test_emit_assigns_monotonic_sequence(self):
        bus = Telemetry()
        first = bus.emit("storage.write", "a")
        second = bus.emit("storage.recall", "b")
        assert (first.seq, second.seq) == (0, 1)
        assert len(bus) == 2

    def test_unknown_kind_rejected(self):
        bus = Telemetry()
        with pytest.raises(TelemetryError, match="unknown event kind"):
            bus.emit("storage.wrote", "a")

    @pytest.mark.parametrize("name", [5, None, b"stage", ("a",)])
    def test_a_name_that_is_not_a_str_is_refused(self, name):
        """A name the log reader would refuse never lands on the bus."""
        bus = Telemetry()
        with pytest.raises(TelemetryError, match="not a str"):
            bus.emit("stage.start", name)
        assert len(bus) == 0

    def test_attrs_are_coerced_and_sorted(self):
        bus = Telemetry()
        event = bus.emit(
            "storage.write",
            "file-1",
            size=DataSize.gigabytes(2),
            took=Duration(5.0),
            tags=["a", "b"],
        )
        # Units become plain numbers, lists become tuples internally but
        # thaw back to lists through the accessor.
        assert event.attr("size") == DataSize.gigabytes(2).bytes
        assert event.attr("took") == 5.0
        assert event.attr("tags") == ["a", "b"]
        assert event.attr("absent", "fallback") == "fallback"
        assert [key for key, _ in event.attrs] == sorted(
            key for key, _ in event.attrs
        )

    def test_events_filter_by_kind_and_start(self):
        bus = Telemetry()
        bus.emit("storage.write", "a")
        bus.emit("storage.recall", "b")
        bus.emit("storage.write", "c")
        assert [e.name for e in bus.events(kind="storage.write")] == ["a", "c"]
        assert [e.name for e in bus.events(start=1)] == ["b", "c"]

    def test_event_has_no_wall_clock_field(self):
        bus = Telemetry()
        event = bus.emit("transfer.start", "ship-1", bytes=10)
        # The flat record holds these and nothing else.
        assert event == TelemetryEvent(0, "transfer.start", "ship-1", 0.0, (("bytes", 10),))
        assert tuple(event) == (0, "transfer.start", "ship-1", 0.0, (), ("bytes",), 10)
        assert event.to_dict() == {
            "seq": 0,
            "kind": "transfer.start",
            "name": "ship-1",
            "sim_time": 0.0,
            "span": [],
            "attrs": {"bytes": 10},
        }

    def test_dict_roundtrip(self):
        bus = Telemetry()
        original = bus.emit("provenance.record", "stage", parents=["p1", "p2"])
        restored = TelemetryEvent.from_dict(original.to_dict())
        assert restored == original

    def test_numpy_scalars_stay_numbers(self, tmp_path):
        bus = Telemetry()
        event = bus.emit(
            "storage.write",
            "f",
            bytes=np.int64(5),
            ok=np.bool_(True),
            ratio=np.float32(1.5),
            nested=[np.int32(2), (np.float64(0.25), np.bool_(False))],
        )
        assert event.attrs == (
            ("bytes", 5),
            ("nested", (2, (0.25, False))),
            ("ok", True),
            ("ratio", 1.5),
        )
        assert [type(value) for _, value in event.attrs] == [int, tuple, bool, float]
        assert type(event.attrs[1][1][0]) is int
        assert type(event.attrs[1][1][1][1]) is bool
        path = tmp_path / "log.jsonl"
        write_event_log(path, [event])
        (restored,) = read_event_log(path)
        assert restored == event
        assert restored.attr("bytes") == 5 and restored.attr("ok") is True

    def test_sets_freeze_to_a_sorted_tuple(self, tmp_path):
        bus = Telemetry()
        event = bus.emit(
            "storage.write",
            "f",
            sites=frozenset({"ctc", "arecibo", "consortium"}),
            sizes={DataSize(3.0), DataSize(1.0)},
            mixed={1, "a"},
        )
        assert event.attr("sites") == ["arecibo", "consortium", "ctc"]
        assert event.attr("sizes") == [1.0, 3.0]
        assert event.attr("mixed") == ["a", 1]  # unorderable members: by repr
        path = tmp_path / "log.jsonl"
        write_event_log(path, [event])
        assert read_event_log(path) == [event]

    def test_event_is_an_immutable_picklable_record(self):
        bus = Telemetry()
        with bus.span("outer"):
            event = bus.emit("provenance.record", "stage", parents=["p1", ["p2"]], n=3)
        with pytest.raises(AttributeError):
            event.seq = 9
        with pytest.raises(AttributeError):
            event.extra = 1
        with pytest.raises(TypeError):
            event.attrs[0] = ("n", 4)
        assert event.span == ("outer",)
        assert TelemetryEvent.from_dict(event.to_dict()) == event
        assert pickle.loads(pickle.dumps(event)) == event
        assert hash(pickle.loads(pickle.dumps(event))) == hash(event)
        assert event != TelemetryEvent(
            event.seq, event.kind, "other", event.sim_time, event.attrs, event.span
        )
        # attr() thaws tuples one level (as it always has) and honours its default.
        assert event.attr("parents") == ["p1", ("p2",)]
        assert event.to_dict()["attrs"]["parents"] == ["p1", ("p2",)]
        assert event.attr("n") == 3
        assert event.attr("absent") is None
        assert event.attr("absent", 7) == 7

    # The session's first text draw builds Hypothesis's charmap cache, which
    # can trip the too_slow health check on a fresh checkout.
    @settings(suppress_health_check=[HealthCheck.too_slow])
    @given(st.dictionaries(_attr_keys, _attr_values, max_size=6))
    def test_emit_freezes_and_sorts_like_the_reference_expression(self, attrs):
        event = Telemetry().emit("service.call", "probe", **attrs)
        # Sort by key, freeze every value: emit skips the freeze call only
        # where it would return the value unchanged.
        expected = tuple((k, _freeze_attr(v)) for k, v in sorted(attrs.items()))
        assert event.attrs == expected
        assert _types(event.attrs) == _types(expected)
        line = (json.dumps(event.to_dict(), sort_keys=True) + "\n").encode("utf-8")
        restored = []
        consumed = walk_event_log(io.BytesIO(line), len(line), restored.append, "probe")
        assert consumed == (len(line), 0)
        assert restored == [event]

    def test_malformed_record_raises(self):
        with pytest.raises(TelemetryError, match="malformed"):
            TelemetryEvent.from_dict({"kind": "stage.start"})

    @pytest.mark.parametrize(
        "record",
        [[1, 2], "event", None, {**_RECORD, "attrs": [1]}, {**_RECORD, "seq": "x"},
         {**_RECORD, "span": 5}, {**_RECORD, "span": "abc"}]
        + [{k: v for k, v in _RECORD.items() if k != key} for key in _RECORD]
        + [{**_RECORD, "sim_time": value} for value in (float("nan"), float("inf"), float("-inf"))]
        # Shapes emit never writes, refused rather than coerced.
        + [{**_RECORD, "seq": value} for value in (1.9, "7", True)]
        + [{**_RECORD, "kind": 5}, {**_RECORD, "name": 5}]
        + [{**_RECORD, "sim_time": value} for value in ("2.5", True)]
        + [{**_RECORD, "attrs": {"a": {"b": 1}}}, {**_RECORD, "attrs": {"a": [1, {"b": 1}]}}]
        + [{**_RECORD, "span": [1]}, {**_RECORD, "span": ["flow", None]}],
    )
    def test_wrong_shaped_record_is_a_telemetry_error(self, record):
        with pytest.raises(TelemetryError, match="malformed telemetry record"):
            TelemetryEvent.from_dict(record)

    def test_event_kinds_cover_the_documented_vocabulary(self):
        for kind in (
            "stage.start",
            "stage.finish",
            "bytes.produced",
            "storage.write",
            "storage.recall",
            "storage.evict",
            "transfer.start",
            "transfer.finish",
            "provenance.record",
        ):
            assert kind in EVENT_KINDS

    def test_event_kinds_cover_the_serving_vocabulary(self):
        for kind in (
            "workload.request",
            "readcache.hit",
            "readcache.miss",
            "readcache.admit",
            "readcache.evict",
            "serve.rejected",
        ):
            assert kind in EVENT_KINDS


class TestEventRecord:
    """The flat record ``(seq, kind, name, sim_time, span, keys, *values)``."""

    def test_equal_and_hashed_by_value(self):
        events = []
        for bus in (Telemetry(), Telemetry()):
            with bus.span("outer"):  # its span.start is seq 0
                events.append(bus.emit("storage.write", "f", n=3, tags=["a"], ok=True))
        first, second = events
        assert first == second and hash(first) == hash(second)
        assert first[5] is not second[5]  # one memo per bus: shared within, not across
        assert first == TelemetryEvent(
            1, "storage.write", "f", 0.0, (("n", 3), ("ok", True), ("tags", ("a",))), ("outer",)
        )
        assert first != TelemetryEvent(1, "storage.write", "f", 0.0, first.attrs)
        assert first != TelemetryEvent(1, "storage.write", "f", 0.0, (("n", 3),), first.span)
        assert len({first, second}) == 1

    def test_immutable_and_pickled_at_every_protocol(self):
        bus = Telemetry()
        event = bus.emit("stage.finish", "s", cpu_seconds=1.5, site="ctc")
        for field in ("seq", "kind", "name", "sim_time", "span", "attrs"):
            with pytest.raises(AttributeError):
                setattr(event, field, None)
        with pytest.raises(TypeError):
            event[0] = 5  # type: ignore[index]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(event, protocol=protocol))
            assert type(restored) is TelemetryEvent
            assert tuple(restored) == tuple(event) and hash(restored) == hash(event)
        assert copy.deepcopy(event) == event
        assert repr(event) == (
            "TelemetryEvent(seq=0, kind='stage.finish', name='s', sim_time=0.0, "
            "attrs=(('cpu_seconds', 1.5), ('site', 'ctc')), span=())"
        )

    def test_attrs_are_sorted_pairs_and_attr_thaws_arrays(self):
        event = Telemetry().emit("service.call", "probe", zeta=1, alpha=("x", ("y",)), mid=None)
        assert event.attrs == (("alpha", ("x", ("y",))), ("mid", None), ("zeta", 1))
        # The constructor sorts the pairs it is given, as emit does.
        assert TelemetryEvent(0, "service.call", "probe", 0.0, reversed(event.attrs)) == event
        assert event.attr("alpha") == ["x", ("y",)]
        assert event.attr("mid", "default") is None
        assert event.attr("absent", "default") == "default"
        assert event.to_dict()["attrs"] == {"alpha": ["x", ("y",)], "mid": None, "zeta": 1}

    @given(
        st.dictionaries(_attr_keys, _attr_values, max_size=6),
        st.lists(st.text("abc/-", max_size=4), max_size=3).map(tuple),
        st.floats(min_value=0, max_value=1e9),
    )
    def test_from_dict_inverts_to_dict(self, attrs, span, advance):
        bus = Telemetry()
        bus.clock.advance(advance)
        with contextlib.ExitStack() as stack:
            for part in span:
                stack.enter_context(bus.span(part))
            event = bus.emit("service.call", "probe", **attrs)
        assert event.span == span
        assert TelemetryEvent.from_dict(event.to_dict()) == event
        assert TelemetryEvent.from_dict(event.to_dict(), memo={}) == event

    def test_events_of_one_shape_share_one_keys_tuple(self, tmp_path):
        bus = Telemetry()
        events = [bus.emit("storage.write", "f", size=index, site="ctc") for index in range(3)]
        events.append(bus.emit("storage.write", "f", site="ctc", size=9))  # another order
        events.append(bus.emit("storage.recall", "g", size=1, site="x"))  # another kind
        assert all(event[5] is events[0][5] for event in events)
        assert events[0][5] == ("site", "size")
        other = bus.emit("storage.write", "f", size=1)
        assert other[5] == ("size",) and other[5] is not events[0][5]
        path = tmp_path / "log.jsonl"
        write_event_log(path, bus)
        read = read_event_log(path)
        assert read == bus.events()
        assert all(event[5] is read[0][5] for event in read[:5])
        assert read[0][5] is not events[0][5]

    def test_an_event_holds_no_per_attribute_objects(self):
        """10 000 three-attribute events whose values are shared cost the
        bus about 150 B each: the flat tuple, its seq and the list slot.
        A ``(key, value)`` tuple per attribute made it 362."""
        bus = Telemetry()
        values = {"bytes": 1 << 40, "site": "arecibo", "ratio": 0.25}
        bus.emit("storage.write", "f", **values)  # the shape's keys, before tracing
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(10_000):
                bus.emit("storage.write", "f", **values)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held / 10_000 <= 200, held / 10_000


class TestSimClock:
    def test_advances_and_stamps_events(self):
        bus = Telemetry()
        bus.emit("flow.start", "f")
        bus.clock.advance(12.5)
        late = bus.emit("flow.finish", "f")
        assert bus.clock.now == 12.5
        assert late.sim_time == 12.5

    def test_rejects_negative_advance(self):
        clock = SimClock()
        # NaN or inf would stay on a shared clock for good.
        for seconds in (-1.0, float("nan"), float("inf")):
            with pytest.raises(TelemetryError):
                clock.advance(seconds)
        assert clock.now == 0.0

    def test_refuses_a_non_finite_start(self):
        for start in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(TelemetryError, match="cannot start the clock"):
                SimClock(start)


class TestInstruments:
    def test_counter_is_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("reads")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(TelemetryError):
            counter.inc(-1)

    def test_counter_refuses_nan(self):
        counter = MetricsRegistry().counter("x")
        with pytest.raises(TelemetryError, match="cannot decrease"):
            counter.inc(float("nan"))  # would read nan for good
        counter.inc(5)
        assert counter.value == 5

    def test_registry_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("n") is registry.counter("n")

    def test_value_and_as_dict(self):
        registry = MetricsRegistry()
        registry.counter("b").inc(9)
        registry.counter("a").inc(2)
        assert registry.value("a") == 2
        assert registry.value("missing", default=-1.0) == -1.0
        assert list(registry.as_dict().items()) == [("a", 2.0), ("b", 9.0)]


class TestSpans:
    def test_nested_spans_stamp_the_path(self):
        bus = Telemetry()
        with bus.span("flow"):
            with bus.span("stage"):
                inner = bus.emit("bytes.produced", "x", bytes=1)
        assert inner.span == ("flow", "stage")
        kinds = [event.kind for event in bus.events()]
        assert kinds == [
            "span.start",
            "span.start",
            "bytes.produced",
            "span.finish",
            "span.finish",
        ]

    def test_span_finish_records_simulated_elapsed(self):
        bus = Telemetry()
        with bus.span("work"):
            bus.clock.advance(42.0)
        finish = bus.events(kind="span.finish")[0]
        assert finish.attr("elapsed_s") == 42.0

    def test_span_closes_on_error(self):
        bus = Telemetry()
        with pytest.raises(RuntimeError):
            with bus.span("doomed"):
                raise RuntimeError("nope")
        assert [event.kind for event in bus.events()] == [
            "span.start",
            "span.finish",
        ]
        assert bus.emit("storage.write", "later").span == ()

    def test_a_raising_inner_span_restores_the_outer_path(self):
        bus = Telemetry()
        with bus.span("outer"):
            with pytest.raises(RuntimeError):
                with bus.span("doomed"):
                    raise RuntimeError("nope")
            assert bus.emit("storage.write", "after").span == ("outer",)
        assert [event.attr("depth") for event in bus.events(kind="span.start")] == [0, 1]


class TestJsonlPersistence:
    def make_log(self):
        bus = Telemetry()
        with bus.span("flow"):
            bus.emit("stage.start", "s", site="lab", input_bytes=10.0)
            bus.clock.advance(2.0)
            bus.emit(
                "stage.finish",
                "s",
                site="lab",
                input_bytes=10.0,
                output_bytes=4.0,
                cpu_seconds=2.0,
                provenance_id="rec-1",
                live_bytes=4.0,
            )
        return bus

    def test_roundtrip_preserves_every_event(self, tmp_path):
        """A log reads back as the events written, and so does one written
        while every line still carried a ``wall_time`` field."""
        bus = self.make_log()
        path, old = tmp_path / "log.jsonl", tmp_path / "old.jsonl"
        count = write_event_log(path, bus)
        assert count == len(bus)
        assert read_event_log(path) == bus.events()
        old.write_text("".join(
            json.dumps({**event.to_dict(), "wall_time": 1.7e9 + event.seq}, sort_keys=True) + "\n"
            for event in bus.events()
        ))
        assert read_event_log(old) == bus.events()

        def folded(log):  # what the events give; the offsets count file bytes
            rendered = scan_log(log).to_dict()
            del rendered["consumed_bytes"], rendered["content_digest"]
            return rendered

        assert folded(old) == folded(path)

    def test_two_runs_logs_compare_equal_as_read(self, tmp_path):
        """Nothing in an event follows the host clock: two runs of one
        workload write the same bytes, and read back equal."""
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        write_event_log(first, self.make_log())
        write_event_log(second, self.make_log())
        assert first.read_bytes() == second.read_bytes()
        assert read_event_log(first) == read_event_log(second)

    def test_read_rejects_bad_json_mid_log(self, tmp_path):
        """Invalid JSON *before* the final line is corruption, not a
        crash-mid-write truncation: it still raises."""
        bus = self.make_log()
        path = tmp_path / "bad.jsonl"
        good = "\n".join(
            json.dumps(event.to_dict()) for event in bus.events()
        )
        path.write_text("not json\n" + good + "\n")
        with pytest.raises(TelemetryError, match="not valid JSON"):
            read_event_log(path)

    def test_read_skips_truncated_trailing_line(self, tmp_path):
        """A torn final line (writer crashed mid-append) is skipped and
        counted in ``truncated_lines`` instead of raising."""
        bus = self.make_log()
        path = tmp_path / "torn.jsonl"
        write_event_log(path, bus)
        whole = path.read_text()
        last_line = whole.rstrip("\n").rsplit("\n", 1)[-1]
        torn = whole[: len(whole) - len(last_line) - 1] + last_line[: len(last_line) // 2]
        path.write_text(torn)
        events = read_event_log(path)
        assert events == bus.events()[:-1]
        assert events.truncated_lines == 1

    def test_read_intact_log_reports_zero_truncated(self, tmp_path):
        bus = self.make_log()
        path = tmp_path / "whole.jsonl"
        write_event_log(path, bus)
        events = read_event_log(path)
        assert events.truncated_lines == 0
        assert events == bus.events()

    @pytest.mark.parametrize(
        "damage, expected",
        [
            (lambda whole: whole[:-1], (2, 0)),  # last record whole, newline missing
            (lambda whole: whole[:-1] + b"\n" + _UNTERMINATED, (3, 0)),
            (lambda whole: whole + _TORN + b"\n\n  \n", (2, 1)),  # torn, then blank lines
            (lambda whole: whole + b"[1, 2]\n", ("corrupt", "line 3: malformed")),
            (lambda whole: whole + _TORN + b"\n" + whole, ("corrupt", "line 3: corrupt interior")),
            # A span that is not an array is corruption anywhere, the tail too.
            (lambda whole: whole + _STRING_SPAN + b"\n" + whole, ("corrupt", "line 3: malformed")),
            (lambda whole: whole + _STRING_SPAN, ("corrupt", "line 3: malformed")),
            # So is a time no clock reads: it parses, so it is not torn.
            (lambda whole: whole + _NAN_TIME + b"\n" + whole, ("corrupt", "line 3: malformed")),
            (lambda whole: whole + _INFINITE_TIME + b"\n", ("corrupt", "line 3: malformed")),
        ],
    )
    def test_both_readers_give_one_answer(self, tmp_path, damage, expected):
        path = tmp_path / "log.jsonl"
        write_event_log(path, self.make_log().events()[:2])
        path.write_bytes(damage(path.read_bytes()))
        count, detail = _read_both_ways(path)
        if count == "corrupt":
            assert expected[0] == "corrupt" and f"{path}: {expected[1]}" in detail
        else:
            assert (count, detail) == expected

    def test_rollup_resumes_only_after_a_newline(self, tmp_path):
        """An unterminated record is complete only while nothing follows
        it: once a second record is glued on, the line is torn, and the
        rollup built over the first must not resume past it."""
        path = tmp_path / "log.jsonl"
        bus = Telemetry()
        bus.emit("workload.request", "a")
        write_event_log(path, bus)
        record = path.read_bytes().rstrip(b"\n")
        store = DiskCacheStore(tmp_path / "rollups")
        path.write_bytes(record)
        assert build_rollup(path, store=store).consumed_events == 1
        path.write_bytes(record + record)
        grown = build_rollup(path, store=store)
        assert (grown.consumed_events, grown.truncated_lines) == (0, 1)
        assert grown.to_dict() == scan_log(path).to_dict()
        assert _read_both_ways(path) == (0, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        names=st.lists(st.text("ab", max_size=2), max_size=5),
        cut=st.integers(0, 30),
        tail=st.lists(st.sampled_from([b"\n", b"  \n", _TORN, _UNTERMINATED]), max_size=3),
        shares=st.lists(st.floats(0.0, 1.0), max_size=3),
    )
    # Two unterminated records back to back, the first built on its own.
    @example(names=[], cut=0, tail=[_UNTERMINATED, _UNTERMINATED], shares=[0.5])
    def test_damaged_logs_read_one_way_and_resume_to_the_cold_scan(
        self, tmp_path_factory, names, cut, tail, shares
    ):
        """Cut a written log anywhere, append any tail: both readers agree,
        and rollups built over the file as it grows end equal to one cold scan."""
        root = tmp_path_factory.mktemp("damaged")
        path, bus = root / "log.jsonl", Telemetry()
        for name in names:
            bus.emit("workload.request", name)
        write_event_log(path, bus)
        whole = path.read_bytes()
        final = whole[: max(0, len(whole) - cut)] + b"".join(tail)
        path.write_bytes(final)
        count, _ = _read_both_ways(path)
        store, grown = DiskCacheStore(root / "rollups"), None
        try:
            for share in sorted(shares) + [1.0]:
                path.write_bytes(final[: int(len(final) * share)])
                grown = build_rollup(path, store=store)
        except OpsError:
            assert count == "corrupt"  # a prefix is corrupt only if the whole is
        else:
            assert grown.to_dict() == scan_log(path).to_dict()

    def test_roundtrip_with_fault_retry_degraded_kinds(self, tmp_path):
        """Logs carrying the recovery-era event kinds survive the
        write/read cycle exactly, payloads (kind, name, attrs, sim time,
        seq) included."""
        bus = Telemetry()
        bus.emit(
            "fault.injected",
            "arecibo-figure1/process",
            scope="stage",
            fault_kind="crash",
            site="CTC/PALFA",
        )
        bus.clock.advance(1.0)
        bus.emit(
            "stage.retry", "process", attempt=2.0, backoff_seconds=4.0
        )
        bus.emit(
            "stage.degraded",
            "arecibo-figure1/p0003/b5",
            reason="beam culled",
        )
        bus.emit("stage.dead_letter", "process", attempts=3.0)
        path = tmp_path / "faulty.jsonl"
        assert write_event_log(path, bus) == 4
        restored = read_event_log(path)
        assert restored == bus.events()
        records = [event.to_dict() for event in restored]
        assert [event["kind"] for event in records] == [
            "fault.injected",
            "stage.retry",
            "stage.degraded",
            "stage.dead_letter",
        ]
        attrs = [dict(event["attrs"]) for event in records]
        assert attrs[0]["fault_kind"] == "crash"
        assert attrs[1]["attempt"] == 2.0
        assert attrs[2]["reason"] == "beam culled"
        assert [event["seq"] for event in records] == [0, 1, 2, 3]

    def test_roundtrip_with_serving_kinds(self, tmp_path):
        """Logs carrying the C21 serving-era kinds (workload requests,
        read-cache traffic, admission rejections) survive write/read
        exactly."""
        bus = Telemetry()
        bus.clock.advance(0.5)
        bus.emit("workload.request", "browse", seq=0, tenant="crawler", key="u1")
        bus.emit("readcache.miss", "readcache", key="asof:u1@3.0")
        bus.emit("readcache.admit", "readcache", key="asof:u1@3.0")
        bus.clock.advance(0.25)
        bus.emit("workload.request", "browse", seq=1, tenant="crawler", key="u1")
        bus.emit("readcache.hit", "readcache", key="asof:u1@3.0")
        bus.emit("readcache.evict", "readcache", key="asof:u0@1.0")
        bus.emit("serve.rejected", "browse", seq=2, tenant="storm")
        path = tmp_path / "serving.jsonl"
        assert write_event_log(path, bus) == 7
        restored = read_event_log(path)
        assert restored == bus.events()
        records = [event.to_dict() for event in restored]
        assert [event["kind"] for event in records] == [
            "workload.request",
            "readcache.miss",
            "readcache.admit",
            "workload.request",
            "readcache.hit",
            "readcache.evict",
            "serve.rejected",
        ]
        assert records[0]["sim_time"] == 0.5
        assert records[3]["attrs"]["seq"] == 1
        assert records[6]["attrs"]["tenant"] == "storm"

    def test_roundtrip_with_ops_and_alert_kinds(self, tmp_path):
        """Logs carrying the operations-console kinds (rollup builds,
        report renders, alert transitions) survive write/read exactly."""
        bus = Telemetry()
        bus.clock.advance(10.0)
        bus.emit(
            "ops.rollup",
            "telemetry.jsonl",
            events=128,
            bytes=16384,
            source="cold",
            flows=2,
        )
        bus.emit("ops.report", "nightly", channels=3, overall="yellow")
        bus.emit(
            "alert.raised",
            "quality-red:arecibo",
            rule="quality-red",
            channel="arecibo",
            metric="completeness",
            value=0.5,
            flap=False,
        )
        bus.clock.advance(5.0)
        bus.emit(
            "alert.cleared",
            "quality-red:arecibo",
            rule="quality-red",
            channel="arecibo",
        )
        path = tmp_path / "ops.jsonl"
        assert write_event_log(path, bus) == 4
        restored = read_event_log(path)
        assert restored == bus.events()
        assert restored.truncated_lines == 0
        records = [event.to_dict() for event in restored]
        assert [event["kind"] for event in records] == [
            "ops.rollup",
            "ops.report",
            "alert.raised",
            "alert.cleared",
        ]
        assert records[0]["attrs"]["source"] == "cold"
        assert records[2]["attrs"]["value"] == 0.5
        assert records[3]["sim_time"] == 15.0

    def test_event_kinds_cover_the_ops_vocabulary(self):
        for kind in ("ops.rollup", "ops.report", "alert.raised", "alert.cleared"):
            assert kind in EVENT_KINDS


class TestLogViews:
    def run_flow(self):
        def source(inputs, ctx):
            return Dataset("raw", DataSize.gigabytes(4))

        def reduce(inputs, ctx):
            (only,) = inputs.values()
            return only.derive("small", DataSize.gigabytes(1))

        flow = DataFlow("view-flow")
        flow.stage("source", source, site="lab", cpu_seconds_per_gb=10)
        flow.stage("reduce", reduce, site="center", cpu_seconds_per_gb=30)
        flow.connect("source", "reduce")
        return Engine(seed=1).run(flow)

    def test_stage_rows_match_report(self):
        report = self.run_flow()
        rows = stage_rows_from_log(report.events)
        assert [row["name"] for row in rows] == ["source", "reduce"]
        assert rows[1]["input_bytes"] == DataSize.gigabytes(4).bytes
        assert rows[1]["provenance_id"] == report.stage("reduce").provenance_id

    def test_flow_summary_regenerates_summary_rows(self, tmp_path):
        report = self.run_flow()
        path = tmp_path / "run.jsonl"
        write_event_log(path, report.events)
        assert flow_summary_from_log(read_event_log(path)) == report.summary_rows()

    def test_peak_and_cpu_views(self):
        report = self.run_flow()
        assert peak_storage_from_log(report.events).bytes == (
            report.peak_live_storage.bytes
        )
        assert total_cpu_from_log(report.events).seconds == (
            report.total_cpu_time.seconds
        )

    def test_peak_requires_flow_finish(self):
        bus = Telemetry()
        bus.emit("stage.start", "s")
        with pytest.raises(TelemetryError):
            peak_storage_from_log(bus.events())

    def test_engine_run_leaves_the_registry_empty(self):
        """The log is the run's one book: the engine counts nothing on
        the side that its events do not already say."""
        report = self.run_flow()
        assert len(report.events) > 0
        assert report.telemetry.registry.as_dict() == {}
