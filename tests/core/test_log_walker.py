"""The chunked log walker, held to the whole-bytes walker it replaced.

``oracle_walk`` below is that walker, kept as the reference: it reads a log
as one ``bytes``.  ``walk_event_log`` reads the file ``READ_CHUNK`` bytes at
a time and must give the same events, offsets, torn-line counts and error
lines for every chunk size.  The readers built on it hold one chunk, not the
log, and ``read_event_log``'s events share their strings.
"""

import gc
import hashlib
import io
import json
import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import telemetry
from repro.core.cachestore import DiskCacheStore
from repro.core.errors import TelemetryError
from repro.core.telemetry import (
    Telemetry,
    TelemetryEvent,
    read_event_log,
    walk_event_log,
    write_event_log,
)
from repro.ops.rollup import RollupProjection, build_rollup, scan_log


def oracle_walk(data, sink, source, start=0):
    """``(consumed, truncated_lines)`` of ``data[start:]``, read whole."""
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
                if isinstance(exc, ValueError):
                    if not data[stop:].strip():
                        return offset, 1
                    problem = f"corrupt interior line at byte {offset}, not valid JSON: {exc}"
                line_number = data.count(b"\n", 0, offset) + 1
                raise TelemetryError(f"{source}: line {line_number}: {problem}") from exc
            sink(event)
        offset = stop
    return offset, 0


def _answer(walk):
    """The events a walk hands over, and its ``(consumed, truncated_lines)``
    or its error's message."""
    events = []
    try:
        return events, walk(events.append)
    except TelemetryError as exc:
        return events, str(exc)


def _record(seq, name):
    return json.dumps(
        {"seq": seq, "kind": "k", "name": name, "sim_time": 0.5}, separators=(",", ":")
    ).encode()


_lines = st.one_of(
    st.builds(_record, st.integers(0, 9), st.text("ab", max_size=2)),  # a record
    st.sampled_from([b"", b"  ", b"\t", b" \r"]),  # blank
    st.sampled_from([b"not json", b"[1, 2]", b'{"seq": 1}', b"\xff\xfe"]),  # corrupt
    st.builds(lambda record, cut: record[: max(1, len(record) - cut)],  # torn
              st.builds(_record, st.integers(0, 9), st.just("t")), st.integers(1, 30)),
)


@settings(max_examples=200, deadline=None)
@given(
    lines=st.lists(st.tuples(_lines, st.sampled_from([b"\n", b"\r\n"])), max_size=7),
    terminated=st.booleans(),
    data=st.data(),
)
# An unterminated record after a blank CRLF line; a torn tail before blank
# lines; bad JSON, a blank line, then a record (corruption, not a torn tail).
@example(lines=[(b"  ", b"\r\n"), (_record(1, "a"), b"\r\n")], terminated=False, data=None)
@example(lines=[(_record(1, "a"), b"\n"), (b'{"se', b"\n"), (b" ", b"\n")],
         terminated=True, data=None)
@example(lines=[(b'{"se', b"\n"), (b"", b"\n"), (_record(1, "a"), b"\n")],
         terminated=True, data=None)
def test_every_chunk_size_walks_like_the_whole_bytes_oracle(lines, terminated, data):
    log = b"".join(line + end for line, end in lines)
    if not terminated and lines:
        log = log[: -len(lines[-1][1])]
    start = data.draw(st.integers(0, len(log)), label="start") if data else 0
    expected = _answer(lambda sink: oracle_walk(log, sink, "probe", start))
    saved = telemetry.READ_CHUNK
    try:
        for chunk in range(1, len(log) + 2):
            telemetry.READ_CHUNK = chunk
            got = _answer(
                lambda sink: walk_event_log(io.BytesIO(log), len(log), sink, "probe", start)
            )
            assert got == expected, f"READ_CHUNK={chunk}"
    finally:
        telemetry.READ_CHUNK = saved


def _serving_log(path, at_least):
    """A serving-shaped log of ``at_least`` bytes or more."""
    bus = Telemetry()
    with bus.span("weblab-serving"):
        index = 0
        while len(bus) * 150 < at_least * 1.2:
            bus.clock.advance(0.25)
            key = f"http://site{index % 7:02d}.com/page{index:05d}.html"
            bus.emit("workload.request", "browse", key=key, seq=index, tenant="crawler")
            bus.emit("readcache.miss", "readcache", key=f"asof:{key}")
            bus.emit("readcache.admit", "readcache", key=f"asof:{key}")
            index += 1
    write_event_log(path, bus)
    assert path.stat().st_size >= at_least
    return bus


def test_the_folds_hold_a_chunk_not_the_log(tmp_path):
    """Over a log of eight chunks or more, a cold scan and a stored build
    peak below two chunks plus the projection they return."""
    path = tmp_path / "log.jsonl"
    _serving_log(path, 8 * telemetry.READ_CHUNK)
    store = DiskCacheStore(tmp_path / "rollups")
    for build in (lambda: scan_log(path), lambda: build_rollup(path, store=store)):
        gc.collect()
        tracemalloc.start()
        try:
            projection = build()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert projection.consumed_bytes == path.stat().st_size
        assert peak < 2 * telemetry.READ_CHUNK + held, (peak, held)


def test_read_back_events_share_their_strings(tmp_path):
    path = tmp_path / "log.jsonl"
    bus = Telemetry()
    with bus.span("weblab-serving"):
        for index in range(4):
            key = f"asof:page-{index % 2}"
            bus.emit("readcache.miss", "readcache", key=key, tags=["hot-tier", key])
    write_event_log(path, bus)
    events = read_event_log(path)
    assert events == bus.events()
    first, second, third, _ = [event for event in events if event.kind == "readcache.miss"]
    assert first.kind is second.kind and first.name is third.name
    assert first.span[0] is third.span[0]
    assert first.attrs[0][0] is second.attrs[0][0]  # the key "key"
    assert first.attrs[0][1] is third.attrs[0][1]  # "asof:page-0"
    assert first.attrs[1][1][0] is second.attrs[1][1][0]  # "hot-tier", in an array
    assert first.attrs[1][1][1] is first.attrs[0][1]
    # The memo lives for one read: a second read shares nothing with the first.
    again = read_event_log(path)
    assert again == events and again[0].attrs[0][1] is not first.attrs[0][1]


def test_a_log_growing_during_a_build_is_read_to_its_size_at_open(tmp_path, monkeypatch):
    """Bytes appended while a build walks the log are the next build's: the
    projection's ``content_digest`` is the sha256 of exactly what it read."""
    path = tmp_path / "log.jsonl"
    bus = _serving_log(path, 4096)
    written = path.read_bytes()
    tail = b"".join(
        (json.dumps(event.to_dict(), sort_keys=True) + "\n").encode()
        for event in bus.events()[:30]
    )
    monkeypatch.setattr(telemetry, "READ_CHUNK", 256)
    fold = RollupProjection.fold_event

    def fold_and_grow(projection, event):
        if projection.consumed_events == 1:
            with path.open("ab") as handle:
                handle.write(tail)
        fold(projection, event)

    store = DiskCacheStore(tmp_path / "rollups")
    monkeypatch.setattr(RollupProjection, "fold_event", fold_and_grow)
    built = build_rollup(path, store=store)
    monkeypatch.setattr(RollupProjection, "fold_event", fold)
    assert path.read_bytes() == written + tail
    assert built.content_digest == built.consumed_digest == hashlib.sha256(written).hexdigest()
    assert (built.consumed_bytes, built.consumed_events) == (len(written), len(bus))
    grown = build_rollup(path, store=store)
    assert grown.source == "incremental" and grown.consumed_events == len(bus) + 30
    assert grown.to_dict() == scan_log(path).to_dict()
