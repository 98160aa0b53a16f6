"""Tests for the file catalog and the long-term archive."""

import random

import pytest

from repro.core.errors import IntegrityError, StorageError
from repro.core.units import DataSize, Rate
from repro.storage.archive import LongTermArchive
from repro.storage.catalog import FileCatalog
from repro.storage.media import MediaType


def media(capacity_gb=100, failure=0.0, cost=50.0):
    return MediaType(
        name=f"gen-{capacity_gb}GB",
        capacity=DataSize.gigabytes(capacity_gb),
        read_rate=Rate.megabytes_per_second(100),
        write_rate=Rate.megabytes_per_second(100),
        unit_cost=cost,
        annual_failure_prob=failure,
    )


class TestFileCatalog:
    def test_register_and_replicas(self):
        catalog = FileCatalog()
        size = DataSize.gigabytes(1)
        entry = catalog.register("f", size)
        catalog.add_replica("f", "arecibo", "med-1", entry.checksum)
        catalog.add_replica("f", "ctc", "med-2", entry.checksum)
        assert catalog.entry("f").replica_count == 2
        assert [r.location for r in catalog.entry("f").replicas] == ["arecibo", "ctc"]

    def test_bad_replica_checksum_rejected(self):
        catalog = FileCatalog()
        catalog.register("f", DataSize.gigabytes(1))
        with pytest.raises(IntegrityError):
            catalog.add_replica("f", "ctc", "med-1", "deadbeef")

    def test_duplicate_registration_rejected(self):
        catalog = FileCatalog()
        catalog.register("f", DataSize.gigabytes(1))
        with pytest.raises(StorageError):
            catalog.register("f", DataSize.gigabytes(1))

    def test_unknown_file_rejected(self):
        with pytest.raises(StorageError):
            FileCatalog().entry("ghost")

    def test_unreplicated_and_lost(self):
        catalog = FileCatalog()
        e1 = catalog.register("single", DataSize.gigabytes(1))
        catalog.register("none", DataSize.gigabytes(1))
        catalog.add_replica("single", "ctc", "med-1", e1.checksum)
        assert catalog.unreplicated(minimum=2) == ["none", "single"]
        assert catalog.lost() == ["none"]
        assert catalog.files_alive() == ["single"]

    def test_drop_replicas(self):
        catalog = FileCatalog()
        entry = catalog.register("f", DataSize.gigabytes(1))
        catalog.add_replica("f", "ctc", "med-1", entry.checksum)
        catalog.add_replica("f", "palfa", "med-2", entry.checksum)
        assert catalog.drop_replicas_at_medium("med-1") == 1
        assert [r.location for r in catalog.entry("f").replicas] == ["palfa"]
        assert catalog.drop_replicas_at_medium("med-2") == 1
        assert catalog.lost() == ["f"]

    def test_files_at(self):
        catalog = FileCatalog()
        e1 = catalog.register("a", DataSize.gigabytes(1))
        e2 = catalog.register("b", DataSize.gigabytes(1))
        catalog.add_replica("a", "ctc", "m1", e1.checksum)
        catalog.add_replica("b", "ctc", "m2", e2.checksum)
        catalog.add_replica("b", "palfa", "m3", e2.checksum)
        assert [r.location for r in catalog.entry("a").replicas] == ["ctc"]
        assert [r.location for r in catalog.entry("b").replicas] == ["ctc", "palfa"]

    def test_logical_vs_physical_totals(self):
        catalog = FileCatalog()
        entry = catalog.register("f", DataSize.gigabytes(2))
        catalog.add_replica("f", "x", "m1", entry.checksum)
        catalog.add_replica("f", "y", "m2", entry.checksum)
        assert catalog.total_logical().gb == pytest.approx(2)
        assert catalog.entry("f").replica_count == 2


class TestLongTermArchive:
    def test_ingest_single_copy(self):
        archive = LongTermArchive("arc", media())
        elapsed = archive.ingest("f", DataSize.gigabytes(10))
        assert elapsed.seconds > 0
        assert archive.total_stored().gb == pytest.approx(10)
        assert archive.readable("f")
        assert archive.fixity_check() == []

    def test_dual_copy_uses_distinct_media(self):
        archive = LongTermArchive("arc", media(), copies=2)
        archive.ingest("f", DataSize.gigabytes(1))
        entry = archive.catalog.entry("f")
        assert entry.replica_count == 2
        medium_ids = {replica.medium_id for replica in entry.replicas}
        assert len(medium_ids) == 2

    def test_media_cost_charged(self):
        archive = LongTermArchive("arc", media(capacity_gb=5, cost=50), copies=1)
        archive.ingest("a", DataSize.gigabytes(4))
        archive.ingest("b", DataSize.gigabytes(4))
        assert archive.ledger.total("media") == pytest.approx(100)

    def test_oversized_rejected(self):
        archive = LongTermArchive("arc", media(capacity_gb=1))
        with pytest.raises(StorageError):
            archive.ingest("big", DataSize.gigabytes(2))

    def test_aging_without_hazard_is_safe(self):
        archive = LongTermArchive("arc", media(failure=0.0))
        archive.ingest("f", DataSize.gigabytes(1))
        report = archive.age(10)
        assert report.media_failed == 0
        assert report.files_lost == []

    def test_aging_with_certain_failure_loses_single_copies(self):
        archive = LongTermArchive(
            "arc", media(failure=0.9), copies=1, rng=random.Random(1)
        )
        archive.ingest("f", DataSize.gigabytes(1))
        report = archive.age(10)  # hazard saturates at 0.95
        assert report.media_failed == 1
        assert report.files_lost == ["f"]
        assert not archive.readable("f")

    def test_dual_copy_survives_one_failure(self):
        archive = LongTermArchive("arc", media(failure=0.0), copies=2)
        archive.ingest("f", DataSize.gigabytes(1))
        # Fail one copy's medium by hand.
        first_medium = archive._media_sets[0][0]
        first_medium.fail()
        archive.catalog.drop_replicas_at_medium(first_medium.label)
        assert archive.readable("f")
        assert archive.catalog.files_alive() == ["f"]

    def test_negative_aging_rejected(self):
        with pytest.raises(StorageError):
            LongTermArchive("arc", media()).age(-1)

    def test_migration_moves_everything_and_costs(self):
        archive = LongTermArchive("arc", media(capacity_gb=5, cost=50))
        for index in range(4):
            archive.ingest(f"f{index}", DataSize.gigabytes(4))
        report = archive.migrate(media(capacity_gb=100, cost=30))
        assert report.files_moved == 4
        assert report.bytes_moved.gb == pytest.approx(16)
        assert report.media_retired == 4
        assert report.media_purchased == 1
        assert report.media_cost == pytest.approx(30)
        assert report.personnel_cost > 0
        assert report.machine_time.seconds > 0
        assert all(archive.readable(f"f{i}") for i in range(4))

    def test_migration_leaves_lost_files_behind(self):
        archive = LongTermArchive("arc", media(failure=0.9), rng=random.Random(1))
        archive.ingest("doomed", DataSize.gigabytes(1))
        archive.age(10)
        report = archive.migrate(media())
        assert report.files_moved == 0
        assert archive.total_stored() == DataSize.zero()

    def test_zero_copies_rejected(self):
        with pytest.raises(StorageError):
            LongTermArchive("arc", media(), copies=0)
