"""Tests for the EventStore itself: injection, grades, consistent reads."""

import pytest

from repro.core.errors import DatabaseError, EventStoreError
from repro.eventstore.merge import merge_into
from repro.eventstore.model import ASU, run_key, run_range_key
from repro.eventstore.provenance import stamp_step
from repro.eventstore.scales import CollaborationEventStore, PersonalEventStore
from repro.eventstore.store import EventStore

from tests.eventstore.conftest import make_events, make_run


@pytest.fixture()
def store(tmp_path):
    with PersonalEventStore(tmp_path / "personal") as s:
        yield s


def inject_run(store, number, version="Recon_v1", kind="recon", count=5, admin=False):
    events = make_events(run_number=number, count=count)
    run = make_run(number=number, events=events)
    stamp = stamp_step("PassRecon", version, {"run": number})
    return store.inject(run, events, version, kind, stamp, admin=admin)


class TestInjection:
    def test_inject_and_read_back(self, store):
        inject_run(store, 1)
        event_file = store.open_file(1, "Recon_v1", "recon")
        assert event_file.event_count == 5
        assert store.file_count() == 1
        assert store.total_size().bytes > 0

    def test_duplicate_injection_rejected(self, store):
        inject_run(store, 1)
        with pytest.raises(EventStoreError, match="already has run 1"):
            inject_run(store, 1)

    def test_multiple_versions_coexist(self, store):
        inject_run(store, 1, version="Recon_v1")
        inject_run(store, 1, version="Recon_v2")
        assert store.file_count() == 2
        for version in ("Recon_v1", "Recon_v2"):
            assert store.open_file(1, version, "recon").header.version == version

    def test_unknown_kind_rejected(self, store):
        events = make_events(count=1)
        run = make_run(events=events)
        with pytest.raises(EventStoreError, match="kind"):
            store.inject(run, events, "v1", "bogus", stamp_step("x", "v1"))

    def test_run_metadata_conflict_rejected(self, store):
        inject_run(store, 1, count=5)
        other = make_run(number=1, event_count=999)
        with pytest.raises(EventStoreError, match="different metadata"):
            store.register_run(other)

    def test_metadata_conflict_is_refused_before_the_file_is_written(self, store):
        inject_run(store, 1, count=5)
        events = make_events(run_number=1, count=3)
        other = make_run(number=1, event_count=999)
        with pytest.raises(EventStoreError, match="different metadata"):
            store.inject(other, events, "Recon_v2", "recon", stamp_step("x", "v2"))
        assert [path.name for path in store.files_dir.iterdir()] == [
            "run000001_recon_Recon_v1.evs"
        ]
        assert store.file_count() == 1

    def test_refused_event_leaves_no_orphan_for_a_later_merge(self, store, tmp_path):
        events = make_events(run_number=1, count=2)
        run = make_run(number=1, events=events)
        long_name = "n" * 70_000
        events[1].asus = {long_name: ASU(name=long_name, payload=b"yy")}
        stamp = stamp_step("PassRecon", "Recon_v1", {"run": 1})
        with pytest.raises(EventStoreError, match="u16 overflow"):
            store.inject(run, events, "Recon_v1", "recon", stamp)
        assert list(store.files_dir.iterdir()) == []
        assert store.file_count() == 0 and store.runs() == []
        # The same coordinate arriving by merge is not blocked by a torn file.
        with PersonalEventStore(tmp_path / "source") as source:
            inject_run(source, 1)
            assert merge_into(source, store).files_added == 1

    def test_run_row_and_file_row_commit_together(self, store, monkeypatch):
        real_insert = store.db.insert

        def failing_insert(table, **values):
            if table == "files":
                raise DatabaseError("disk full")
            return real_insert(table, **values)

        monkeypatch.setattr(store.db, "insert", failing_insert)
        with pytest.raises(DatabaseError):
            inject_run(store, 1)
        assert store.runs() == []
        assert list(store.files_dir.iterdir()) == []

    def test_runs_listing(self, store):
        inject_run(store, 3)
        inject_run(store, 1)
        assert [run.number for run in store.runs()] == [1, 3]
        assert store.runs()[0].condition_map == {"beam_energy": "5.29GeV"}

    def test_missing_file_raises(self, store):
        with pytest.raises(EventStoreError, match="no recon file"):
            store.open_file(99, "v1", "recon")


class TestScales:
    def test_shared_stores_reject_direct_inject(self, tmp_path):
        for scale in ("group", "collaboration"):
            with EventStore(tmp_path / scale, scale=scale) as shared:
                with pytest.raises(EventStoreError, match="merge"):
                    inject_run(shared, 1)

    def test_admin_override(self, tmp_path):
        with CollaborationEventStore(tmp_path / "collab") as shared:
            inject_run(shared, 1, admin=True)
            assert shared.file_count() == 1

    def test_command_prefix_is_scale_name(self, tmp_path):
        for scale in ("personal", "group", "collaboration"):
            with EventStore(tmp_path / scale, scale=scale) as s:
                assert s.command("inject").startswith(scale)

    def test_personal_store_reopens_from_disk(self, tmp_path):
        root = tmp_path / "p"
        with PersonalEventStore(root) as store:
            inject_run(store, 1)
        with PersonalEventStore(root) as store:
            assert store.file_count() == 1
            assert store.open_file(1, "Recon_v1", "recon").event_count == 5


class TestGrades:
    def setup_grades(self, store):
        inject_run(store, 1, version="Recon_v1")
        inject_run(store, 2, version="Recon_v1")
        inject_run(store, 1, version="Recon_v2")
        store.assign_grade("physics", 100.0, {run_range_key(1, 2): "Recon_v1"})
        store.assign_grade("physics", 200.0, {run_key(1): "Recon_v2"})

    def test_resolution_pins_versions(self, store):
        self.setup_grades(store)
        resolved = store.resolve_runs("physics", 150.0)
        assert resolved == {1: "Recon_v1", 2: "Recon_v1"}
        resolved_later = store.resolve_runs("physics", 250.0)
        assert resolved_later == {1: "Recon_v2", 2: "Recon_v1"}

    def test_first_time_data_visible_to_old_timestamp(self, store):
        self.setup_grades(store)
        inject_run(store, 5, version="Recon_v2")
        store.assign_grade("physics", 300.0, {run_key(5): "Recon_v2"})
        resolved = store.resolve_runs("physics", 150.0)
        assert resolved[5] == "Recon_v2"  # new data appears
        assert resolved[1] == "Recon_v1"  # old data stays pinned

    def test_unknown_grade_raises(self, store):
        with pytest.raises(EventStoreError, match="no grade"):
            store.resolve_grade("physics", 100.0)

    def test_non_monotonic_grade_rejected(self, store):
        inject_run(store, 1)
        store.assign_grade("physics", 100.0, {run_key(1): "Recon_v1"})
        with pytest.raises(EventStoreError, match="non-decreasing"):
            store.assign_grade("physics", 50.0, {run_key(1): "Recon_v1"})

    def test_empty_assignment_rejected(self, store):
        with pytest.raises(EventStoreError):
            store.assign_grade("physics", 100.0, {})

    def test_bad_run_key_rejected(self, store):
        with pytest.raises(EventStoreError):
            store.assign_grade("physics", 100.0, {"pointing:9": "v1"})

    def test_refused_assignment_assigns_nothing(self, store):
        with pytest.raises(EventStoreError, match="unrecognized run key 'zzz'"):
            store.assign_grade("physics", 1.0, {"run:1": "v1", "zzz": "v1"})
        assert store.db.count("grade_entries") == 0
        assert store.grades() == []
        # The retry lands each row once.
        store.assign_grade("physics", 1.0, {"run:1": "v1", "runs:2-3": "v1"})
        assert store.db.count("grade_entries") == 2

    def test_assignment_rows_commit_together(self, store, monkeypatch):
        real_insert = store.db.insert
        calls = []

        def failing_insert(table, **values):
            calls.append(values["run_key"])
            if len(calls) == 2:
                raise DatabaseError("disk full")
            return real_insert(table, **values)

        monkeypatch.setattr(store.db, "insert", failing_insert)
        with pytest.raises(DatabaseError):
            store.assign_grade("physics", 1.0, {"run:1": "v1", "run:2": "v1"})
        assert calls == ["run:1", "run:2"]
        assert store.db.count("grade_entries") == 0

    def test_collaboration_grade_assignment_is_admin_only(self, tmp_path):
        with CollaborationEventStore(tmp_path / "collab") as shared:
            with pytest.raises(EventStoreError, match="officers"):
                shared.assign_grade("physics", 100.0, {run_key(1): "v1"})
            inject_run(shared, 1, admin=True)
            shared.assign_grade("physics", 100.0, {run_key(1): "Recon_v1"}, admin=True)
            assert shared.grades() == ["physics"]

    def test_events_for_streams_consistent_set(self, store):
        self.setup_grades(store)
        events = list(store.events_for("physics", 150.0, "recon"))
        assert len(events) == 10  # 5 events x 2 runs, all at Recon_v1
        runs_seen = {event.run_number for event in events}
        assert runs_seen == {1, 2}

    def test_events_for_respects_reprocessing(self, store):
        self.setup_grades(store)
        digests_early = store.consistency_digests("physics", 150.0, "recon")
        digests_late = store.consistency_digests("physics", 250.0, "recon")
        assert digests_early[2] == digests_late[2]
        assert digests_early[1] != digests_late[1]  # run 1 was reprocessed

    def test_events_for_with_projection(self, store):
        self.setup_grades(store)
        events = list(store.events_for("physics", 150.0, "recon", asu_names=["tracks"]))
        assert all(event.asu_names == ["tracks"] for event in events)

    def test_grade_covering_missing_runs_is_harmless(self, store):
        inject_run(store, 1)
        store.assign_grade("physics", 100.0, {run_range_key(1, 100): "Recon_v1"})
        events = list(store.events_for("physics", 150.0, "recon"))
        assert {event.run_number for event in events} == {1}
