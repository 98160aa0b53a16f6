"""Tests for the event data model and the binary file format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import EventStoreError
from repro.core.units import Duration
from repro.eventstore.fileformat import (
    FileHeader,
    open_event_file,
    write_event_file,
)
from repro.eventstore.model import (
    ASU,
    Event,
    Run,
    parse_run_key,
    run_key,
    run_range_key,
)
from repro.eventstore.provenance import stamp_step

from tests.eventstore.conftest import make_events, make_run


class TestModel:
    def test_run_validation(self):
        with pytest.raises(EventStoreError):
            Run.create(0, 0.0, Duration.minutes(50), 100)
        with pytest.raises(EventStoreError):
            Run.create(1, 0.0, Duration.minutes(50), -1)

    def test_run_conditions_frozen_and_accessible(self):
        run = make_run()
        assert run.condition_map == {"beam_energy": "5.29GeV"}

    def test_asu_validation(self):
        with pytest.raises(EventStoreError):
            ASU(name="", payload=b"x")
        with pytest.raises(EventStoreError):
            ASU(name="tracks", payload="not-bytes")

    def test_event_asu_key_consistency(self):
        with pytest.raises(EventStoreError):
            Event(run_number=1, event_number=0, asus={"a": ASU(name="b", payload=b"")})

    def test_event_add_and_duplicate(self):
        event = Event(run_number=1, event_number=0)
        event.add(ASU(name="tracks", payload=b"xy"))
        with pytest.raises(EventStoreError):
            event.add(ASU(name="tracks", payload=b"zz"))

    def test_event_project(self):
        events = make_events(count=1, asu_names=("a", "b", "c"))
        projected = events[0].project(["a", "c"])
        assert projected.asu_names == ["a", "c"]
        assert events[0].asu_names == ["a", "b", "c"]

    def test_event_size_and_total(self):
        events = make_events(count=3, asu_names=("a", "b"), payload_bytes=10)
        assert events[0].size.bytes == 20
        assert sum(event.size.bytes for event in events) == 60

    def test_missing_asu_raises(self):
        event = Event(run_number=1, event_number=0)
        with pytest.raises(EventStoreError):
            event.asu("ghost")

    def test_run_keys(self):
        assert run_key(42) == "run:42"
        assert run_range_key(1, 50) == "runs:1-50"
        assert parse_run_key("run:42") == (42, 42)
        assert parse_run_key("runs:1-50") == (1, 50)
        with pytest.raises(EventStoreError):
            run_range_key(50, 1)
        with pytest.raises(EventStoreError):
            parse_run_key("pointing:9")

    @pytest.mark.parametrize("key", ["run:abc", "run:", "runs:1", "runs:-", "runs:3-1"])
    def test_malformed_run_keys_are_eventstore_errors_naming_the_key(self, key):
        # An inverted range is one run_range_key refuses to build.
        with pytest.raises(EventStoreError, match=repr(key)):
            parse_run_key(key)


class TestFileFormat:
    def test_round_trip(self, tmp_path, recon_stamp):
        events = make_events(count=25)
        path = tmp_path / "run1.evs"
        header = FileHeader(run_number=1, version="Recon_v1", data_kind="recon",
                            created_at=5.0)
        assert write_event_file(path, header, events, recon_stamp) == 25

        event_file = open_event_file(path)
        assert event_file.header == header
        assert event_file.event_count == 25
        assert event_file.stamp.matches(recon_stamp)
        loaded = event_file.read_all()
        assert len(loaded) == 25
        for original, read in zip(events, loaded):
            assert read.event_number == original.event_number
            assert read.asu_names == original.asu_names
            for name in original.asus:
                assert read.asu(name).payload == original.asu(name).payload

    def test_projection_skips_payloads(self, tmp_path, recon_stamp):
        events = make_events(count=5, asu_names=("tracks", "showers"))
        path = tmp_path / "run1.evs"
        header = FileHeader(1, "v1", "recon", 0.0)
        write_event_file(path, header, events, recon_stamp)
        loaded = list(open_event_file(path).events(["tracks"]))
        assert all(event.asu_names == ["tracks"] for event in loaded)

    def test_empty_file(self, tmp_path, recon_stamp):
        path = tmp_path / "empty.evs"
        write_event_file(path, FileHeader(1, "v1", "raw", 0.0), [], recon_stamp)
        event_file = open_event_file(path)
        assert event_file.event_count == 0
        assert event_file.read_all() == []

    def test_wrong_run_rejected(self, tmp_path, recon_stamp):
        events = make_events(run_number=2, count=1)
        with pytest.raises(EventStoreError, match="run 2"):
            write_event_file(
                tmp_path / "x.evs", FileHeader(1, "v1", "raw", 0.0), events, recon_stamp
            )

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.evs"
        path.write_bytes(b"NOTANEVS" + b"\x00" * 100)
        with pytest.raises(EventStoreError, match="magic"):
            open_event_file(path)

    def test_truncated_file_rejected(self, tmp_path, recon_stamp):
        path = tmp_path / "run1.evs"
        write_event_file(
            path, FileHeader(1, "v1", "raw", 0.0), make_events(count=3), recon_stamp
        )
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 10])
        event_file = open_event_file(path)  # header still intact
        with pytest.raises(EventStoreError, match="truncated"):
            event_file.read_all()

    def test_tampered_provenance_detected(self, tmp_path, recon_stamp):
        path = tmp_path / "run1.evs"
        write_event_file(
            path, FileHeader(1, "v1", "raw", 0.0), make_events(count=1), recon_stamp
        )
        data = bytearray(path.read_bytes())
        # Flip a byte inside the first provenance line (well past the header).
        marker = data.find(b"PassRecon")
        assert marker > 0
        data[marker] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(EventStoreError, match="digest"):
            open_event_file(path)

    def test_provenance_history_preserved(self, tmp_path):
        stamp = stamp_step("acquire", "daq_v3")
        stamp = stamp_step("recon", "Feb13_04_P2", {"cal": "v7"}, parents=[stamp])
        path = tmp_path / "run1.evs"
        write_event_file(path, FileHeader(1, "v1", "recon", 0.0), [], stamp)
        loaded = open_event_file(path)
        assert len(loaded.stamp.history) == 2
        assert "acquire@daq_v3" in loaded.stamp.history[0]


@settings(max_examples=25, deadline=None)
@given(
    payloads=st.lists(
        st.lists(st.binary(min_size=0, max_size=200), min_size=1, max_size=4),
        min_size=0,
        max_size=10,
    )
)
def test_fileformat_round_trip_property(tmp_path_factory, payloads):
    """Arbitrary payload bytes survive the write/read cycle exactly."""
    tmp_path = tmp_path_factory.mktemp("evs")
    events = []
    for event_number, blobs in enumerate(payloads):
        asus = {
            f"asu{i}": ASU(name=f"asu{i}", payload=blob) for i, blob in enumerate(blobs)
        }
        events.append(Event(run_number=7, event_number=event_number, asus=asus))
    stamp = stamp_step("gen", "v1")
    path = tmp_path / "roundtrip.evs"
    write_event_file(path, FileHeader(7, "v1", "raw", 0.0), events, stamp)
    loaded = open_event_file(path).read_all()
    assert len(loaded) == len(events)
    for original, read in zip(events, loaded):
        assert {n: a.payload for n, a in read.asus.items()} == {
            n: a.payload for n, a in original.asus.items()
        }
