"""Storage media models.

Each :class:`MediaType` bundles the handful of physical constants the
simulations need: capacity, sustained transfer rates, mount/spin-up latency,
unit cost, and an annual failure probability used by the archive's decay
model.  The predefined constants are mid-2000s values matching the paper's
hardware: ATA disks shipped from Arecibo, USB drives shipped to Cornell by
CLEO's Monte-Carlo producers, LTO tape in the CTC robot, and RAID for the
WebLab server.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import List

from repro.core.errors import CapacityError, StorageError
from repro.core.units import DataSize, Duration, Rate

_medium_counter = itertools.count(1)


@dataclass(frozen=True)
class MediaType:
    """Physical characteristics of one kind of storage medium."""

    name: str
    capacity: DataSize
    read_rate: Rate
    write_rate: Rate
    mount_latency: Duration = field(default_factory=Duration.zero)
    unit_cost: float = 0.0
    annual_failure_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity.bytes <= 0:
            raise StorageError(f"media type {self.name!r} needs positive capacity")
        if not 0.0 <= self.annual_failure_prob < 1.0:
            raise StorageError(
                f"media type {self.name!r}: failure probability must be in [0, 1)"
            )

    def write_time(self, size: DataSize) -> Duration:
        return self.mount_latency + size / self.write_rate


# -- mid-2000s reference media ------------------------------------------------
ATA_DISK_2005 = MediaType(
    name="ATA disk (400 GB)",
    capacity=DataSize.gigabytes(400),
    read_rate=Rate.megabytes_per_second(60),
    write_rate=Rate.megabytes_per_second(55),
    unit_cost=250.0,
    annual_failure_prob=0.03,
)

USB_DISK_2005 = MediaType(
    name="USB disk (300 GB)",
    capacity=DataSize.gigabytes(300),
    read_rate=Rate.megabytes_per_second(30),
    write_rate=Rate.megabytes_per_second(25),
    unit_cost=200.0,
    annual_failure_prob=0.04,
)

LTO3_TAPE = MediaType(
    name="LTO-3 cartridge (400 GB)",
    capacity=DataSize.gigabytes(400),
    read_rate=Rate.megabytes_per_second(80),
    write_rate=Rate.megabytes_per_second(80),
    mount_latency=Duration.from_seconds(90),
    unit_cost=80.0,
    annual_failure_prob=0.005,
)

LTO5_TAPE = MediaType(
    name="LTO-5 cartridge (1.5 TB)",
    capacity=DataSize.terabytes(1.5),
    read_rate=Rate.megabytes_per_second(140),
    write_rate=Rate.megabytes_per_second(140),
    mount_latency=Duration.from_seconds(75),
    unit_cost=60.0,
    annual_failure_prob=0.004,
)

RAID_SHELF_2005 = MediaType(
    name="RAID shelf (2 TB usable)",
    capacity=DataSize.terabytes(2),
    read_rate=Rate.megabytes_per_second(200),
    write_rate=Rate.megabytes_per_second(150),
    unit_cost=8000.0,
    annual_failure_prob=0.002,
)


def checksum_for(name: str, size: DataSize, content_tag: str = "") -> str:
    """Deterministic stand-in checksum for a simulated file's content.

    Simulated files have no real bytes; their identity is (name, size,
    content tag).  Corruption is modelled by flipping the tag.
    """
    digest = hashlib.md5()
    digest.update(name.encode("utf-8"))
    digest.update(str(int(size.bytes)).encode("ascii"))
    digest.update(content_tag.encode("utf-8"))
    return digest.hexdigest()


@dataclass
class StoredFile:
    """A (simulated) file resident on a medium."""

    name: str
    size: DataSize
    checksum: str
    content_tag: str = ""

    def verify(self) -> bool:
        return self.checksum == checksum_for(self.name, self.size, self.content_tag)

    def corrupt(self) -> None:
        """Flip the content so the recorded checksum no longer matches."""
        self.content_tag += "!corrupted"


@dataclass
class Medium:
    """One physical instance of a media type (a cartridge, a disk)."""

    media_type: MediaType
    label: str = ""
    medium_id: str = field(default_factory=lambda: f"med-{next(_medium_counter):05d}")
    files: List[StoredFile] = field(default_factory=list)
    failed: bool = False
    age_years: float = 0.0

    @property
    def used(self) -> DataSize:
        return DataSize(sum(file.size.bytes for file in self.files))

    @property
    def free(self) -> DataSize:
        return DataSize(max(0.0, self.media_type.capacity.bytes - self.used.bytes))

    def store(self, file: StoredFile) -> Duration:
        """Write a file; returns simulated write time."""
        if self.failed:
            raise StorageError(f"medium {self.medium_id} has failed")
        if any(existing.name == file.name for existing in self.files):
            raise StorageError(f"medium {self.medium_id} already holds {file.name!r}")
        if file.size.bytes > self.free.bytes:
            raise CapacityError(
                f"medium {self.medium_id} ({self.media_type.name}): "
                f"{file.size} does not fit in {self.free} free"
            )
        self.files.append(file)
        return self.media_type.write_time(file.size)

    def fetch(self, name: str) -> StoredFile:
        if self.failed:
            raise StorageError(f"medium {self.medium_id} has failed")
        for file in self.files:
            if file.name == name:
                return file
        raise StorageError(f"medium {self.medium_id} does not hold {name!r}")

    def holds(self, name: str) -> bool:
        return any(file.name == name for file in self.files)

    def remove(self, name: str) -> StoredFile:
        file = self.fetch(name)
        self.files.remove(file)
        return file

    def fail(self) -> None:
        self.failed = True
