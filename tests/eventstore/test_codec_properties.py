"""The per-file codec, writer and reader vs their field-at-a-time oracles.

``pack_array`` interns headers, ``write_event_file`` frames a whole file in
memory, ``EventFile.events`` parses a mapped file by offset.  Their contract
is the oracles' bytes and the oracles' errors: equality here is exact.
"""

import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import EventStoreError
from repro.eventstore import arrays
from repro.eventstore.arrays import array_header, pack_array, unpack_array
from repro.eventstore.fileformat import FileHeader, open_event_file, write_event_file
from repro.eventstore.model import ASU, Event
from repro.eventstore.provenance import stamp_step

from tests.eventstore.conftest import (
    oracle_pack_array,
    oracle_read_events,
    oracle_write_event_file,
)

DTYPES = ("<f4", "<f8", ">f4", "<i4", "<u1", "<i8", "?")
STAMP = stamp_step("PassRecon", "Feb13_04_P2", {"calibration": "cal_v7"})
HEADER = FileHeader(run_number=7, version="v1", data_kind="recon", created_at=2.5)


@st.composite
def drawn_arrays(draw):
    """0-d, empty, 1-D to 3-D arrays, often a strided or transposed view."""
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    shape = tuple(draw(st.lists(st.integers(0, 5), min_size=0, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Integer-valued, so every dtype holds them and no NaN clouds equality.
    array = rng.integers(0, 100, size=shape).astype(dtype)
    for axis in range(array.ndim):
        step = draw(st.sampled_from([1, 1, 2, -1, 3]))
        array = array[(slice(None),) * axis + (slice(None, None, step),)]
    if array.ndim >= 2 and draw(st.booleans()):
        array = array.T
    return array


@given(array=drawn_arrays())
@settings(max_examples=300, deadline=None)
def test_pack_array_equals_the_json_per_array_oracle(array):
    packed = pack_array(array)
    assert packed == oracle_pack_array(array)
    stored = np.ascontiguousarray(array)  # 0-d is stored as its one-element 1-D form
    unpacked = unpack_array(packed)
    assert unpacked.dtype == stored.dtype
    assert unpacked.shape == stored.shape
    assert unpacked.tobytes() == stored.tobytes()
    assert unpacked.flags.writeable and unpacked.flags.owndata
    unpacked[...] = 1  # a copy: writing must not need, or touch, the payload
    assert packed == oracle_pack_array(array)
    assert unpack_array(bytearray(packed)).tobytes() == stored.tobytes()


def _payload(header: object, body: bytes = b"\0" * 8) -> bytes:
    raw = header if isinstance(header, bytes) else json.dumps(header).encode("ascii")
    return struct.pack("<I", len(raw)) + raw + body


@pytest.mark.parametrize(
    "header",
    [
        {"dtype": "bogus", "shape": [1]},
        {"dtype": "<f8", "shape": 1},
        {"dtype": "<f8"},
        ["<f8", [1]],
        {"dtype": "|O", "shape": [1]},
        b"{not json",
        b"\xff\xfe",
    ],
)
def test_corrupt_header_is_an_eventstore_error_and_is_not_interned(header):
    payload = _payload(header)
    for _ in range(2):  # the second call must not find a cached half-parse
        with pytest.raises(EventStoreError, match="bad array payload header"):
            unpack_array(payload)
    assert payload[4:-8] not in arrays._PARSED_HEADERS


def test_object_arrays_are_refused_by_name():
    with pytest.raises(EventStoreError, match="object dtype"):
        pack_array(np.array([{"a": 1}], dtype=object))
    with pytest.raises(EventStoreError, match="object dtype"):
        unpack_array(_payload({"dtype": "|O", "shape": [1]}))


def test_body_length_is_checked_on_interned_headers_too():
    packed = pack_array(np.arange(10.0))
    unpack_array(packed)  # interns the header
    with pytest.raises(EventStoreError, match="77 bytes, expected 80"):
        unpack_array(packed[:-3])
    with pytest.raises(EventStoreError, match="truncated in header"):
        unpack_array(packed[:9])
    with pytest.raises(EventStoreError, match="too short"):
        unpack_array(b"\x01")


def test_interning_tables_are_bounded():
    for n in range(arrays._MAX_INTERNED + 50):
        array = np.zeros(n, dtype="<u1")
        packed = pack_array(array)
        assert packed == oracle_pack_array(array)
        assert unpack_array(packed).shape == (n,)
        assert len(arrays._FRAMED_HEADERS) <= arrays._MAX_INTERNED
        assert len(arrays._PARSED_HEADERS) <= arrays._MAX_INTERNED
    assert array_header(np.dtype("<f4"), (1,)) == oracle_pack_array(np.zeros(1, "<f4"))[:-4]


asu_maps = st.dictionaries(
    st.text(min_size=1, max_size=6),  # non-ASCII names included
    st.binary(min_size=0, max_size=40),
    max_size=13,
)
event_lists = st.lists(
    st.tuples(st.integers(0, 2**32 - 1), asu_maps), min_size=0, max_size=20
)


def _events(drawn):
    return [
        Event(
            run_number=HEADER.run_number,
            event_number=number,
            asus={name: ASU(name=name, payload=blob) for name, blob in blobs.items()},
        )
        for number, blobs in drawn
    ]


@given(drawn=event_lists, data=st.data())
@settings(max_examples=150, deadline=None)
def test_event_file_equals_the_field_at_a_time_oracle(drawn, data):
    events = _events(drawn)
    names = sorted({name for _, blobs in drawn for name in blobs})
    projection = data.draw(st.lists(st.sampled_from(names), unique=True)) if names else []
    with tempfile.TemporaryDirectory() as tmp:
        path, oracle_path = Path(tmp) / "new.evs", Path(tmp) / "oracle.evs"
        assert write_event_file(path, HEADER, iter(events), STAMP) == len(events)
        oracle_write_event_file(oracle_path, HEADER, events, STAMP)
        assert path.read_bytes() == oracle_path.read_bytes()
        event_file = open_event_file(path)
        assert event_file.read_all() == events
        assert list(event_file.events(None)) == oracle_read_events(event_file, None)
        projected = list(event_file.events(iter(projection)))
        assert projected == oracle_read_events(event_file, projection)
        assert projected == [event.project(projection) for event in events]


def _outcome(read):
    try:
        return ("events", read())
    except EventStoreError as exc:
        return ("refused", str(exc))


def test_every_truncation_is_refused_as_the_oracle_refuses_it(tmp_path):
    """Cut a small file at every byte: only ``EventStoreError`` may come out."""
    events = _events(
        [
            (0, {"tracks": b"abcdefgh", "hits": b"", "näme": b"xyz"}),
            (1, {}),
            (2, {"hits": b"0123456789", "tracks": b"q"}),
        ]
    )
    whole = tmp_path / "whole.evs"
    write_event_file(whole, HEADER, events, STAMP)
    data = whole.read_bytes()
    events_offset = open_event_file(whole)._events_offset
    cut_path = tmp_path / "cut.evs"
    refused_while_reading = 0
    for cut in range(len(data)):
        cut_path.write_bytes(data[:cut])
        if cut < events_offset:
            with pytest.raises(EventStoreError):
                open_event_file(cut_path)
            continue
        event_file = open_event_file(cut_path)
        for projection in (None, ["tracks"], ["hits", "näme"], []):
            expected = _outcome(lambda: oracle_read_events(event_file, projection))
            assert _outcome(lambda: list(event_file.events(projection))) == expected, (
                cut, projection)
            refused_while_reading += expected[0] == "refused"
        # Reading everything, no cut can hide inside a skipped payload.
        assert _outcome(event_file.read_all)[0] == "refused", cut
    assert refused_while_reading > 3 * (len(data) - events_offset)
    # A file emptied after it was opened cannot be mapped; it is still "truncated".
    event_file = open_event_file(whole)
    cut_path.write_bytes(b"")
    event_file.path = cut_path
    with pytest.raises(EventStoreError, match="truncated event file while reading event number"):
        event_file.read_all()


def test_refused_event_leaves_no_file(tmp_path):
    long_name = "n" * 70_000
    events = _events([(0, {"a": b"xx"}), (1, {long_name: b"yy"})])
    path = tmp_path / "torn.evs"
    with pytest.raises(EventStoreError, match="u16 overflow: 70000"):
        write_event_file(path, HEADER, events, STAMP)
    assert not path.exists()
    events[1].event_number = 2**32
    with pytest.raises(EventStoreError, match=f"u32 overflow: {2**32}"):
        write_event_file(path, HEADER, events, STAMP)
    assert not path.exists()
