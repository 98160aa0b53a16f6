"""Tests for merge-based ingest — "the fundamental operation"."""

import pytest

from repro.core.errors import MergeConflictError
from repro.eventstore.merge import merge_into
from repro.eventstore.model import run_key
from repro.eventstore.provenance import stamp_step
from repro.eventstore.scales import CollaborationEventStore, PersonalEventStore

from tests.eventstore.conftest import make_events, make_run


def personal_with_run(tmp_path, name, number, version="Recon_v1", payload_seed=0):
    store = PersonalEventStore(tmp_path / name, name=name)
    events = make_events(run_number=number, count=5, seed=payload_seed)
    run = make_run(number=number, events=events)
    stamp = stamp_step("PassRecon", version, {"seed": payload_seed})
    store.inject(run, events, version, "recon", stamp)
    return store


@pytest.fixture()
def collab(tmp_path):
    with CollaborationEventStore(tmp_path / "collab") as store:
        yield store


class TestMerge:
    def test_merge_adds_everything(self, tmp_path, collab):
        personal = personal_with_run(tmp_path, "alice", 1)
        personal.assign_grade("physics", 100.0, {run_key(1): "Recon_v1"})
        report = merge_into(personal, collab)
        assert report.files_added == 1
        assert report.runs_added == 1
        assert report.grade_entries_added == 1
        # Target can now serve the data end to end.
        events = list(collab.events_for("physics", 200.0, "recon"))
        assert len(events) == 5

    def test_merge_copies_file_content(self, tmp_path, collab):
        personal = personal_with_run(tmp_path, "alice", 1)
        merge_into(personal, collab)
        source_file = personal.open_file(1, "Recon_v1", "recon")
        target_file = collab.open_file(1, "Recon_v1", "recon")
        assert target_file.stamp.matches(source_file.stamp)
        source_events = source_file.read_all()
        target_events = target_file.read_all()
        for a, b in zip(source_events, target_events):
            assert {n: x.payload for n, x in a.asus.items()} == {
                n: x.payload for n, x in b.asus.items()
            }

    def test_merge_is_idempotent(self, tmp_path, collab):
        personal = personal_with_run(tmp_path, "alice", 1)
        personal.assign_grade("physics", 100.0, {run_key(1): "Recon_v1"})
        merge_into(personal, collab)
        second = merge_into(personal, collab)
        assert second.files_added == 0
        assert second.files_skipped == 1
        assert second.runs_added == 0
        assert second.grade_entries_added == 0
        assert collab.file_count() == 1

    def test_merges_from_many_personals(self, tmp_path, collab):
        alice = personal_with_run(tmp_path, "alice", 1)
        bob = personal_with_run(tmp_path, "bob", 2)
        merge_into(alice, collab)
        merge_into(bob, collab)
        assert collab.file_count() == 2
        assert [run.number for run in collab.runs()] == [1, 2]

    def test_conflicting_content_aborts_cleanly(self, tmp_path, collab):
        alice = personal_with_run(tmp_path, "alice", 1, payload_seed=1)
        mallory = personal_with_run(tmp_path, "mallory", 1, payload_seed=2)
        merge_into(alice, collab)
        files_before = collab.file_count()
        with pytest.raises(MergeConflictError, match="digest mismatch"):
            merge_into(mallory, collab)
        assert collab.file_count() == files_before

    def test_conflicting_run_metadata_aborts(self, tmp_path, collab):
        alice = personal_with_run(tmp_path, "alice", 1)
        bob = PersonalEventStore(tmp_path / "bob", name="bob")
        events = make_events(run_number=1, count=9)  # different event count
        bob.inject(
            make_run(number=1, events=events),
            events,
            "Recon_v9",
            "recon",
            stamp_step("PassRecon", "Recon_v9"),
        )
        merge_into(alice, collab)
        with pytest.raises(MergeConflictError, match="metadata"):
            merge_into(bob, collab)

    def test_failed_merge_removes_copied_files(self, tmp_path, collab):
        # bob has a good run 2 AND a conflicting run 1; nothing of bob's may
        # survive in the target after the aborted merge.
        alice = personal_with_run(tmp_path, "alice", 1, payload_seed=1)
        bob = personal_with_run(tmp_path, "bob", 1, payload_seed=2)
        events = make_events(run_number=2, count=5)
        bob.inject(
            make_run(number=2, events=events),
            events,
            "Recon_v1",
            "recon",
            stamp_step("PassRecon", "Recon_v1"),
        )
        merge_into(alice, collab)
        with pytest.raises(MergeConflictError):
            merge_into(bob, collab)
        assert collab.file_count() == 1
        leftover = [p for p in collab.files_dir.iterdir()]
        assert len(leftover) == 1  # only alice's file remains on disk

    def test_grade_history_rewrite_rejected(self, tmp_path, collab):
        alice = personal_with_run(tmp_path, "alice", 1)
        alice.assign_grade("physics", 200.0, {run_key(1): "Recon_v1"})
        merge_into(alice, collab)
        bob = personal_with_run(tmp_path, "bob", 2)
        bob.assign_grade("physics", 100.0, {run_key(2): "Recon_v1"})
        with pytest.raises(MergeConflictError, match="rewrite history"):
            merge_into(bob, collab)

    def test_merge_recorded_in_target(self, tmp_path, collab):
        alice = personal_with_run(tmp_path, "alice", 1)
        merge_into(alice, collab, merged_at=42.0)
        row = collab.db.query_one("SELECT * FROM merges")
        assert row["source_name"] == "alice"
        assert row["merged_at"] == 42.0
        assert row["files_added"] == 1

    def test_merge_between_personals_allowed(self, tmp_path):
        """Merging also serves personal-to-personal data exchange."""
        alice = personal_with_run(tmp_path, "alice", 1)
        with PersonalEventStore(tmp_path / "carol", name="carol") as carol:
            report = merge_into(alice, carol)
            assert report.files_added == 1
