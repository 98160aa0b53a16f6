"""EventStore read-path caching: grade resolution and file-row lookups."""

import pytest

from repro.core.readcache import ReadCache
from repro.eventstore.provenance import stamp_step
from repro.eventstore.store import EventStore

from tests.eventstore.conftest import make_events, make_run


@pytest.fixture()
def cached_store(tmp_path):
    with EventStore(
        tmp_path / "cached", scale="personal", cache=ReadCache(capacity=64)
    ) as store:
        yield store


def inject_run(store, number, version="Recon_v1", kind="recon", count=3):
    events = make_events(run_number=number, count=count)
    run = make_run(number=number, events=events)
    stamp = stamp_step("PassRecon", version, {"run": number})
    return store.inject(run, events, version, kind, stamp)


class TestGradeResolutionCache:
    def test_repeat_resolution_is_served_from_cache(self, cached_store):
        inject_run(cached_store, 1)
        inject_run(cached_store, 2)
        cached_store.assign_grade("physics", 10.0, {"runs:1-2": "Recon_v1"})
        first = cached_store.resolve_runs("physics", 15.0)
        baseline_hits = cached_store.cache.stats.hits
        second = cached_store.resolve_runs("physics", 15.0)
        assert second == first == {1: "Recon_v1", 2: "Recon_v1"}
        assert cached_store.cache.stats.hits == baseline_hits + 1

    def test_cached_mapping_is_a_private_copy(self, cached_store):
        inject_run(cached_store, 1)
        cached_store.assign_grade("physics", 10.0, {"run:1": "Recon_v1"})
        resolved = cached_store.resolve_runs("physics", 15.0)
        resolved[999] = "tampered"
        assert 999 not in cached_store.resolve_runs("physics", 15.0)

    def test_assign_grade_invalidates_that_grade(self, cached_store):
        inject_run(cached_store, 1, version="Recon_v1")
        inject_run(cached_store, 1, version="Recon_v2")
        cached_store.assign_grade("physics", 10.0, {"run:1": "Recon_v1"})
        assert cached_store.resolve_runs("physics", 99.0) == {1: "Recon_v1"}
        cached_store.assign_grade("physics", 20.0, {"run:1": "Recon_v2"})
        assert cached_store.resolve_runs("physics", 99.0) == {1: "Recon_v2"}

    def test_new_run_invalidates_every_grade(self, cached_store):
        inject_run(cached_store, 1)
        cached_store.assign_grade("physics", 10.0, {"runs:1-5": "Recon_v1"})
        assert cached_store.resolve_runs("physics", 99.0) == {1: "Recon_v1"}
        inject_run(cached_store, 2)  # registers run 2, covered by runs:1-5
        assert cached_store.resolve_runs("physics", 99.0) == {
            1: "Recon_v1",
            2: "Recon_v1",
        }

    def test_uncached_store_unaffected(self, tmp_path):
        with EventStore(tmp_path / "plain", scale="personal") as store:
            inject_run(store, 1)
            store.assign_grade("physics", 10.0, {"run:1": "Recon_v1"})
            assert store.cache is None
            assert store.resolve_runs("physics", 15.0) == {1: "Recon_v1"}


class TestFileRowCache:
    def test_repeat_reads_skip_the_query(self, cached_store):
        inject_run(cached_store, 1)
        cached_store.assign_grade("physics", 10.0, {"run:1": "Recon_v1"})
        first = list(cached_store.events_for("physics", 15.0, "recon"))
        hits_before = cached_store.cache.stats.hits
        second = list(cached_store.events_for("physics", 15.0, "recon"))
        assert [e.event_number for e in first] == [e.event_number for e in second]
        # Second pass hits both the grade: and the file: entries.
        assert cached_store.cache.stats.hits >= hits_before + 2

    def test_missing_file_is_negative_cached_until_inject(self, cached_store):
        inject_run(cached_store, 1, kind="recon")
        cached_store.assign_grade("physics", 10.0, {"run:1": "Recon_v1"})
        # No "postrecon" kind file exists: the row lookup caches the absence.
        assert list(cached_store.events_for("physics", 15.0, "postrecon")) == []
        assert list(cached_store.events_for("physics", 15.0, "postrecon")) == []
        assert cached_store.cache.stats.negative_hits >= 1
        # Injecting the missing kind drops the negative entry.  The run's
        # metadata must match its first registration, so count stays 3.
        events = make_events(run_number=1, count=3)
        run = make_run(number=1, events=events)
        cached_store.inject(
            run, events, "Recon_v1", "postrecon", stamp_step("PassPostrecon", "Recon_v1")
        )
        assert len(list(cached_store.events_for("physics", 15.0, "postrecon"))) == 3

    def test_open_file_round_trips_through_cache(self, cached_store):
        inject_run(cached_store, 1, count=4)
        first = cached_store.open_file(1, "Recon_v1", "recon")
        second = cached_store.open_file(1, "Recon_v1", "recon")
        assert first.event_count == second.event_count == 4

    def test_consistency_digests_match_uncached(self, tmp_path, cached_store):
        inject_run(cached_store, 1)
        cached_store.assign_grade("physics", 10.0, {"run:1": "Recon_v1"})
        cached = cached_store.consistency_digests("physics", 15.0, "recon")
        cached_again = cached_store.consistency_digests("physics", 15.0, "recon")
        assert cached == cached_again
        assert set(cached) == {1}
