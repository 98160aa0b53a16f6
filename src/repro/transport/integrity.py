"""Transfer integrity: manifests, verification, retransmission accounting.

"The main issues of data transport are: personnel requirements; assessment
and maintenance of data integrity; tracking and logging; ensuring no data
loss" — every shipment and bulk network transfer in this library travels
with a :class:`Manifest`, and arrival runs :func:`verify_delivery`, which
reports corrupt or missing items for retransmission.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.errors import IntegrityError
from repro.core.telemetry import Telemetry
from repro.core.units import DataSize
from repro.storage.media import StoredFile


@dataclass(frozen=True)
class ManifestEntry:
    name: str
    size_bytes: float
    checksum: str


@dataclass
class Manifest:
    """The packing list of one transfer: names, sizes, checksums."""

    shipment_id: str
    entries: List[ManifestEntry] = field(default_factory=list)

    @classmethod
    def for_files(cls, shipment_id: str, files: Iterable[StoredFile]) -> "Manifest":
        manifest = cls(shipment_id=shipment_id)
        for file in files:
            manifest.add(file)
        return manifest

    def add(self, file: StoredFile) -> None:
        if any(entry.name == file.name for entry in self.entries):
            raise IntegrityError(
                f"manifest {self.shipment_id}: duplicate entry {file.name!r}"
            )
        self.entries.append(
            ManifestEntry(name=file.name, size_bytes=file.size.bytes, checksum=file.checksum)
        )

    @property
    def total_size(self) -> DataSize:
        return DataSize(sum(entry.size_bytes for entry in self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def names(self) -> List[str]:
        return [entry.name for entry in self.entries]


@dataclass
class DeliveryReport:
    """Outcome of verifying a delivery against its manifest."""

    shipment_id: str
    delivered: List[str] = field(default_factory=list)
    corrupt: List[str] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    unexpected: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (self.corrupt or self.missing or self.unexpected)

    def needs_retransmission(self) -> List[str]:
        return sorted(set(self.corrupt) | set(self.missing))


def verify_delivery(
    manifest: Manifest,
    received: Sequence[StoredFile],
    telemetry: Optional[Telemetry] = None,
) -> DeliveryReport:
    """Compare received files against the manifest.

    A file is *corrupt* when present but its checksum disagrees with the
    manifest (or its own content no longer matches its recorded checksum),
    *missing* when listed but absent, and *unexpected* when delivered but
    never listed.  When ``telemetry`` is given, the verification outcome is
    published as an ``integrity.verify`` event (carriers like
    :class:`~repro.transport.sneakernet.ShippingLane` add the tallies to
    their stats from the returned report).
    """
    report = DeliveryReport(shipment_id=manifest.shipment_id)
    by_name: Dict[str, StoredFile] = {}
    for file in received:
        if file.name in by_name:
            raise IntegrityError(f"duplicate delivery of {file.name!r}")
        by_name[file.name] = file
    listed = {entry.name: entry for entry in manifest.entries}

    for name, entry in listed.items():
        file = by_name.get(name)
        if file is None:
            report.missing.append(name)
        elif file.checksum != entry.checksum or not file.verify():
            report.corrupt.append(name)
        else:
            report.delivered.append(name)
    for name in by_name:
        if name not in listed:
            report.unexpected.append(name)
    for bucket in (report.delivered, report.corrupt, report.missing, report.unexpected):
        bucket.sort()
    if telemetry is not None:
        telemetry.emit(
            "integrity.verify",
            manifest.shipment_id,
            delivered=len(report.delivered),
            corrupt=len(report.corrupt),
            missing=len(report.missing),
            unexpected=len(report.unexpected),
            clean=report.clean,
        )
    return report


def damage_in_transit(
    files: Sequence[StoredFile],
    corruption_prob: float,
    loss_prob: float,
    rng: random.Random,
) -> List[StoredFile]:
    """Simulate transit damage: per-file corruption and loss.

    Returns the files that arrive (possibly corrupted in place).  Used by
    the sneakernet model and the fault-injection tests.
    """
    if not 0.0 <= corruption_prob <= 1.0 or not 0.0 <= loss_prob <= 1.0:
        raise IntegrityError("damage probabilities must be within [0, 1]")
    arrived: List[StoredFile] = []
    for file in files:
        if rng.random() < loss_prob:
            continue
        copy = StoredFile(
            name=file.name,
            size=file.size,
            checksum=file.checksum,
            content_tag=file.content_tag,
        )
        if rng.random() < corruption_prob:
            copy.corrupt()
        arrived.append(copy)
    return arrived
