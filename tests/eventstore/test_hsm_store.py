"""Tests for the HSM-backed EventStore."""


from repro.core.units import DataSize
from repro.eventstore.hsm_store import HsmEventStore
from repro.eventstore.model import run_key
from repro.eventstore.provenance import stamp_step

from tests.eventstore.conftest import make_events, make_run


def build_store(tmp_path, cache_kb, n_runs=6, payload_bytes=512):
    store = HsmEventStore(
        tmp_path / "hsm-store",
        cache_capacity=DataSize(cache_kb * 1000),
        scale="personal",
    )
    for number in range(1, n_runs + 1):
        events = make_events(run_number=number, count=10, seed=number,
                             payload_bytes=payload_bytes)
        store.inject(
            make_run(number=number, events=events),
            events,
            "Recon_v1",
            "recon",
            stamp_step("PassRecon", "v1", {"run": number}),
        )
    store.assign_grade(
        "physics", 100.0, {run_key(n): "Recon_v1" for n in range(1, n_runs + 1)}
    )
    return store


class TestHsmEventStore:
    def test_small_working_set_stays_cached(self, tmp_path):
        """Cache bigger than the collection: all reads are cache hits."""
        store = build_store(tmp_path, cache_kb=2000)
        list(store.events_for("physics", 200.0, "recon"))
        report = store.storage_report()
        assert report["tape_recalls"] == 0
        assert report["cache_hits"] == 6
        assert report["hit_rate"] == 1.0
        store.close()

    def test_oversized_working_set_pays_recalls(self, tmp_path):
        """Cache smaller than the collection: scans page against tape."""
        store = build_store(tmp_path, cache_kb=30)  # holds ~2 files
        list(store.events_for("physics", 200.0, "recon"))
        list(store.events_for("physics", 200.0, "recon"))  # second scan
        report = store.storage_report()
        assert report["tape_recalls"] > 0
        assert report["recall_time_s"] > 0
        assert report["bytes_recalled"] > 0
        store.close()

    def test_repeat_access_to_one_run_hits_cache(self, tmp_path):
        store = build_store(tmp_path, cache_kb=30)
        store.open_file(1, "Recon_v1", "recon")
        before = store.storage_report()["tape_recalls"]
        store.open_file(1, "Recon_v1", "recon")
        after = store.storage_report()
        assert after["tape_recalls"] == before  # still resident
        assert after["cache_hits"] >= 1
        store.close()

    def test_smaller_files_mean_fewer_recalls(self, tmp_path):
        """The HSM case for hot/cold splitting: small hot files fit the
        cache where monolithic events would thrash."""
        fat = build_store(tmp_path / "fat", cache_kb=40, payload_bytes=1024)
        slim = build_store(tmp_path / "slim", cache_kb=40, payload_bytes=64)
        for store in (fat, slim):
            for _ in range(3):
                list(store.events_for("physics", 200.0, "recon"))
        fat_recalls = fat.storage_report()["tape_recalls"]
        slim_recalls = slim.storage_report()["tape_recalls"]
        assert slim_recalls < fat_recalls
        fat.close()
        slim.close()

    def test_everything_archived_to_tape(self, tmp_path):
        store = build_store(tmp_path, cache_kb=2000)
        assert store.hsm.library.cartridge_count >= 1
        assert store.hsm.library.stats.writes == 6
        store.close()
