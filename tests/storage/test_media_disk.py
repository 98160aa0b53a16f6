"""Tests for media models."""

import pytest

from repro.core.errors import CapacityError, StorageError
from repro.core.units import DataSize, Rate
from repro.storage.media import (
    ATA_DISK_2005,
    LTO3_TAPE,
    MediaType,
    Medium,
    StoredFile,
    checksum_for,
)


def small_disk(capacity_gb=10):
    return MediaType(
        name="test disk",
        capacity=DataSize.gigabytes(capacity_gb),
        read_rate=Rate.megabytes_per_second(100),
        write_rate=Rate.megabytes_per_second(100),
    )


class TestMediaType:
    def test_reference_media_sane(self):
        assert ATA_DISK_2005.capacity.gb == pytest.approx(400)
        assert LTO3_TAPE.mount_latency.seconds == 90

    def test_write_read_time_include_mount(self):
        elapsed = LTO3_TAPE.write_time(DataSize.gigabytes(8))
        assert elapsed.seconds == pytest.approx(90 + 8000 / 80)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(StorageError):
            MediaType(
                name="bad",
                capacity=DataSize.zero(),
                read_rate=Rate.megabytes_per_second(1),
                write_rate=Rate.megabytes_per_second(1),
            )

    def test_invalid_failure_prob_rejected(self):
        with pytest.raises(StorageError):
            MediaType(
                name="bad",
                capacity=DataSize.gigabytes(1),
                read_rate=Rate.megabytes_per_second(1),
                write_rate=Rate.megabytes_per_second(1),
                annual_failure_prob=1.5,
            )


class TestStoredFile:
    def test_checksum_verifies(self):
        size = DataSize.megabytes(10)
        file = StoredFile("f", size, checksum_for("f", size))
        assert file.verify()

    def test_corruption_detected(self):
        size = DataSize.megabytes(10)
        file = StoredFile("f", size, checksum_for("f", size))
        file.corrupt()
        assert not file.verify()

    def test_checksum_depends_on_identity(self):
        size = DataSize.megabytes(1)
        assert checksum_for("a", size) != checksum_for("b", size)
        assert checksum_for("a", size) != checksum_for("a", size * 2)
        assert checksum_for("a", size, "v1") != checksum_for("a", size, "v2")


class TestMedium:
    def test_store_and_fetch(self):
        medium = Medium(media_type=small_disk())
        size = DataSize.gigabytes(2)
        elapsed = medium.store(StoredFile("f", size, checksum_for("f", size)))
        assert medium.used == size
        assert elapsed.seconds > 0
        assert medium.fetch("f").size == size

    def test_capacity_enforced(self):
        medium = Medium(media_type=small_disk(capacity_gb=1))
        size = DataSize.gigabytes(2)
        with pytest.raises(CapacityError):
            medium.store(StoredFile("f", size, checksum_for("f", size)))

    def test_duplicate_name_rejected(self):
        medium = Medium(media_type=small_disk())
        size = DataSize.megabytes(1)
        medium.store(StoredFile("f", size, checksum_for("f", size)))
        with pytest.raises(StorageError):
            medium.store(StoredFile("f", size, checksum_for("f", size)))

    def test_failed_medium_unusable(self):
        medium = Medium(media_type=small_disk())
        medium.fail()
        size = DataSize.megabytes(1)
        with pytest.raises(StorageError):
            medium.store(StoredFile("f", size, checksum_for("f", size)))
        with pytest.raises(StorageError):
            medium.fetch("f")

    def test_remove(self):
        medium = Medium(media_type=small_disk())
        size = DataSize.megabytes(1)
        medium.store(StoredFile("f", size, checksum_for("f", size)))
        medium.remove("f")
        assert not medium.holds("f")
        assert medium.used == DataSize.zero()
