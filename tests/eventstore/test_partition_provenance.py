"""Tests for hot/warm/cold partitioning and store-level provenance tools."""

import pytest

from repro.core.errors import EventStoreError
from repro.eventstore.fileformat import FileHeader, open_event_file, write_event_file
from repro.eventstore.model import ASU, Event
from repro.eventstore.partition import (
    AccessProfile,
    PartitionLayout,
    derive_layout,
    split_events,
    write_partitioned_run,
)
from repro.eventstore.provenance import (
    asu_level_cost,
    check_consistency,
    file_level_cost,
    stamp_step,
)

from tests.eventstore.conftest import make_events


def sized_events(count=10, run_number=1):
    """Events with a small hot ASU and large warm/cold ASUs (the paper's shape)."""
    events = []
    for number in range(count):
        events.append(
            Event(
                run_number=run_number,
                event_number=number,
                asus={
                    "summary": ASU("summary", b"s" * 32),       # hot, small
                    "tracks": ASU("tracks", b"t" * 512),        # warm
                    "rawhits": ASU("rawhits", b"r" * 4096),     # cold, large
                },
            )
        )
    return events


class TestAccessProfile:
    def test_frequencies(self):
        profile = AccessProfile()
        profile.record(["summary", "tracks"])
        profile.record(["summary"])
        profile.record(["summary", "rawhits"])
        assert profile.frequency("summary") == pytest.approx(1.0)
        assert profile.frequency("tracks") == pytest.approx(1 / 3)
        assert profile.frequency("never") == 0.0
        assert profile.frequency("rawhits") == pytest.approx(1 / 3)

    def test_empty_working_set_rejected(self):
        with pytest.raises(EventStoreError):
            AccessProfile().record([])


class TestLayout:
    def make_profile(self):
        profile = AccessProfile()
        for _ in range(8):
            profile.record(["summary"])
        profile.record(["summary", "tracks", "rawhits"])
        profile.record(["summary", "tracks"])
        return profile

    def test_derive_layout_thresholds(self):
        layout = derive_layout(
            self.make_profile(),
            ["summary", "tracks", "rawhits", "unseen"],
            hot_threshold=0.5,
            warm_threshold=0.15,
        )
        assert layout.temperature_of("summary") == "hot"
        assert layout.temperature_of("tracks") == "warm"
        assert layout.temperature_of("rawhits") == "cold"
        assert layout.temperature_of("unseen") == "cold"

    def test_invalid_thresholds(self):
        with pytest.raises(EventStoreError):
            derive_layout(self.make_profile(), ["a"], hot_threshold=0.1, warm_threshold=0.5)

    def test_temperatures_for_working_set(self):
        layout = PartitionLayout.from_mapping(
            {"summary": "hot", "tracks": "warm", "rawhits": "cold"}
        )
        assert layout.temperatures_for(["summary"]) == ["hot"]
        assert layout.temperatures_for(["summary", "tracks"]) == ["hot", "warm"]
        with pytest.raises(EventStoreError):
            layout.temperatures_for(["unknown"])

    def test_bad_temperature_rejected(self):
        with pytest.raises(EventStoreError):
            PartitionLayout.from_mapping({"a": "lukewarm"})

    def test_asus_at(self):
        layout = PartitionLayout.from_mapping({"a": "hot", "b": "hot", "c": "cold"})
        assert layout.asus_at("hot") == ["a", "b"]
        assert layout.asus_at("warm") == []
        with pytest.raises(EventStoreError):
            layout.asus_at("tepid")


class TestSplitAndPartitionedFiles:
    layout = PartitionLayout.from_mapping(
        {"summary": "hot", "tracks": "warm", "rawhits": "cold"}
    )

    def test_split_projects_columns(self):
        split = split_events(sized_events(5), self.layout)
        assert all(e.asu_names == ["summary"] for e in split["hot"])
        assert all(e.asu_names == ["tracks"] for e in split["warm"])
        assert all(e.asu_names == ["rawhits"] for e in split["cold"])

    def test_partitioned_run_read_size_reflects_claim(self, tmp_path):
        """Hot-only analyses read a small fraction of the event volume."""
        stamp = stamp_step("PassRecon", "v1")
        partitioned = write_partitioned_run(
            tmp_path, 1, sized_events(50), self.layout, "Recon_v1", stamp
        )
        hot_read = partitioned.read_size(["summary"], self.layout)
        full_read = partitioned.monolithic_size()
        assert hot_read.bytes < 0.1 * full_read.bytes

    def test_partitioned_run_events_merge_temperatures(self, tmp_path):
        stamp = stamp_step("PassRecon", "v1")
        events = sized_events(10)
        partitioned = write_partitioned_run(
            tmp_path, 1, events, self.layout, "Recon_v1", stamp
        )
        merged = list(partitioned.events(["hot", "warm"]))
        assert len(merged) == 10
        assert merged[0].asu_names == ["summary", "tracks"]
        hot_only = list(partitioned.events(["hot"]))
        assert hot_only[3].asu("summary").payload == events[3].asu("summary").payload


class TestProvenanceTools:
    def write_file(self, path, stamp, count=4):
        events = make_events(count=count)
        write_event_file(path, FileHeader(1, "v1", "recon", 0.0), events, stamp)
        return open_event_file(path)

    def test_consistent_set(self, tmp_path):
        stamp = stamp_step("PassRecon", "v1", {"cal": "v7"})
        files = [
            self.write_file(tmp_path / f"f{i}.evs", stamp) for i in range(3)
        ]
        report = check_consistency(files)
        assert report.consistent
        assert report.outliers() == []

    def test_discrepancy_detected_and_explained(self, tmp_path):
        good = stamp_step("PassRecon", "v1", {"cal": "v7"})
        drifted = stamp_step("PassRecon", "v1", {"cal": "v8"})
        files = [
            self.write_file(tmp_path / "a.evs", good),
            self.write_file(tmp_path / "b.evs", good),
            self.write_file(tmp_path / "c.evs", drifted),
        ]
        report = check_consistency(files)
        assert not report.consistent
        assert report.outliers() == ["c.evs"]
        assert any("cal=v7" in line or "cal=v8" in line for line in report.explanations)

    def test_cost_comparison_favors_file_level(self, tmp_path):
        """ASU-level tracking costs orders of magnitude more metadata."""
        stamp = stamp_step("PassRecon", "v1")
        files = [self.write_file(tmp_path / f"f{i}.evs", stamp, count=100) for i in range(3)]
        file_cost = file_level_cost(files)
        asu_cost = asu_level_cost(files, asus_per_event=12)
        assert asu_cost.records == 3 * 100 * 12
        assert asu_cost.bytes_total > 100 * file_cost.bytes_total
