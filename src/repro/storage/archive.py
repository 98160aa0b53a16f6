"""Long-term archive with media-generation migration.

"A key issue [...] is the migration of the data to new storage technologies
as they emerge.  Storage media costs undoubtedly will decrease, but manpower
requirements for migrating the data are significant and care is needed to
avoid loss of data."

The :class:`LongTermArchive` holds logical files on media of the current
generation (optionally dual-copy), ages them with an increasing hazard
model, and supports migration to a newer media type with explicit media,
machine-time, and personnel costs — the trade study of experiment C15.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.errors import StorageError
from repro.core.resources import CostLedger, PersonnelModel
from repro.core.telemetry import Telemetry
from repro.core.units import DataSize, Duration
from repro.storage.catalog import FileCatalog
from repro.storage.media import MediaType, Medium, StoredFile

# Handling labor per medium moved during a migration: locate, mount, copy
# supervision, verify, relabel.  Calibrated to "significant manpower".
_MIGRATION_MINUTES_PER_MEDIUM = 15.0
# Media hazard grows with age: effective annual failure probability is
# base * (1 + AGING_FACTOR * age_years).
_AGING_FACTOR = 0.35


@dataclass
class MigrationReport:
    """Outcome of one media-generation migration."""

    from_type: str
    to_type: str
    files_moved: int
    bytes_moved: DataSize
    media_retired: int
    media_purchased: int
    machine_time: Duration
    personnel_time: Duration
    media_cost: float
    personnel_cost: float


@dataclass
class AgingReport:
    """Outcome of advancing the archive clock."""

    years: float
    media_failed: int
    files_lost: List[str] = field(default_factory=list)
    files_degraded: List[str] = field(default_factory=list)


#: Default seed for an archive's media-failure RNG when the caller does
#: not supply one.  Explicit so standalone archives are reproducible by
#: default; runs that need independent streams pass their own
#: ``random.Random(seed)``.
DEFAULT_ARCHIVE_SEED = 0


class LongTermArchive:
    """Versioned, fixity-checked archival storage across media generations."""

    def __init__(
        self,
        name: str,
        media_type: MediaType,
        copies: int = 1,
        personnel: Optional[PersonnelModel] = None,
        rng: Optional[random.Random] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        if copies < 1:
            raise StorageError("archive needs at least one copy per file")
        self.name = name
        self.media_type = media_type
        self.copies = copies
        self.personnel = personnel if personnel is not None else PersonnelModel()
        self.rng = rng if rng is not None else random.Random(DEFAULT_ARCHIVE_SEED)
        self.catalog = FileCatalog()
        self.ledger = CostLedger()
        self._telemetry = telemetry if telemetry is not None else Telemetry()
        # One media set per copy index, so copies of a file never share a medium.
        self._media_sets: List[List[Medium]] = [[] for _ in range(copies)]
        self._content_tags: Dict[str, str] = {}

    # -- inventory ---------------------------------------------------------
    @property
    def media_count(self) -> int:
        return sum(len(media_set) for media_set in self._media_sets)

    def total_stored(self) -> DataSize:
        return self.catalog.total_logical()

    # -- ingest ---------------------------------------------------------------
    def _open_medium(self, copy_index: int, size: DataSize) -> Medium:
        for medium in self._media_sets[copy_index]:
            if not medium.failed and medium.free.bytes >= size.bytes:
                return medium
        medium = Medium(
            media_type=self.media_type,
            label=f"{self.name}-c{copy_index}-{len(self._media_sets[copy_index])}",
        )
        self._media_sets[copy_index].append(medium)
        self.ledger.charge("media", self.media_type.unit_cost, self.media_type.name)
        return medium

    def ingest(self, name: str, size: DataSize, content_tag: str = "") -> Duration:
        """Archive a logical file (writing all configured copies)."""
        if size.bytes > self.media_type.capacity.bytes:
            raise StorageError(
                f"{name!r} ({size}) exceeds one {self.media_type.name}; split first"
            )
        entry = self.catalog.register(name, size, content_tag)
        self._content_tags[name] = content_tag
        elapsed = Duration.zero()
        for copy_index in range(self.copies):
            medium = self._open_medium(copy_index, size)
            file = StoredFile(
                name=name,
                size=size,
                checksum=entry.checksum,
                content_tag=content_tag,
            )
            elapsed += medium.store(file)
            self.catalog.add_replica(
                name,
                location=f"{self.name}/copy{copy_index}",
                medium_id=medium.label,
                checksum=entry.checksum,
            )
        self._telemetry.emit(
            "storage.write",
            name,
            store=self.name,
            bytes=size.bytes,
            copies=self.copies,
            elapsed_s=elapsed.seconds,
            medium=self.media_type.name,
        )
        return elapsed

    # -- integrity ---------------------------------------------------------
    def fixity_check(self) -> List[str]:
        """Verify every stored copy; returns names of files with bad copies."""
        bad: List[str] = []
        for media_set in self._media_sets:
            for medium in media_set:
                if medium.failed:
                    continue
                for file in medium.files:
                    if not file.verify():
                        bad.append(file.name)
        return sorted(set(bad))

    def readable(self, name: str) -> bool:
        """True if at least one intact copy survives."""
        self.catalog.entry(name)  # raises StorageError for unknown names
        for media_set in self._media_sets:
            for medium in media_set:
                if medium.failed or not medium.holds(name):
                    continue
                if medium.fetch(name).verify():
                    return True
        return False

    # -- aging ---------------------------------------------------------------
    def age(self, years: float) -> AgingReport:
        """Advance time; media may fail with an age-increasing hazard."""
        if years < 0:
            raise StorageError("cannot age the archive backwards")
        failed = 0
        for media_set in self._media_sets:
            for medium in media_set:
                if medium.failed:
                    continue
                medium.age_years += years
                hazard = medium.media_type.annual_failure_prob * (
                    1.0 + _AGING_FACTOR * medium.age_years
                )
                prob = min(0.95, hazard * years)
                if self.rng.random() < prob:
                    medium.fail()
                    self.catalog.drop_replicas_at_medium(medium.label)
                    failed += 1
        lost = [name for name in self.catalog.lost()]
        degraded = self.catalog.unreplicated(minimum=self.copies)
        return AgingReport(
            years=years,
            media_failed=failed,
            files_lost=lost,
            files_degraded=[name for name in degraded if name not in lost],
        )

    # -- migration -----------------------------------------------------------
    def migrate(self, new_type: MediaType) -> MigrationReport:
        """Copy everything readable onto fresh media of ``new_type``.

        Unreadable files (all copies lost/corrupt) are left behind — the
        data-loss risk of deferring migration too long.
        """
        old_type = self.media_type
        old_media = [m for ms in self._media_sets for m in ms]
        survivors = [
            name for name in self.catalog.files_alive() if self.readable(name)
        ]

        machine_seconds = 0.0
        for name in survivors:
            size = self.catalog.entry(name).size
            machine_seconds += (size / old_type.read_rate).seconds
            machine_seconds += self.copies * (size / new_type.write_rate).seconds

        # Rebuild onto the new generation.
        self.media_type = new_type
        retired = len(old_media)
        old_catalog = self.catalog
        old_tags = dict(self._content_tags)
        self.catalog = FileCatalog()
        self._content_tags = {}
        self._media_sets = [[] for _ in range(self.copies)]
        media_before = self.ledger.total("media")
        moved_bytes = 0.0
        for name in survivors:
            size = old_catalog.entry(name).size
            self.ingest(name, size, old_tags.get(name, ""))
            moved_bytes += size.bytes

        purchased = self.media_count
        media_cost = self.ledger.total("media") - media_before
        personnel_time = Duration.minutes(
            _MIGRATION_MINUTES_PER_MEDIUM * (retired + purchased)
        )
        personnel_cost = self.personnel.cost(personnel_time)
        self.ledger.charge("personnel", personnel_cost, "migration handling")
        return MigrationReport(
            from_type=old_type.name,
            to_type=new_type.name,
            files_moved=len(survivors),
            bytes_moved=DataSize(moved_bytes),
            media_retired=retired,
            media_purchased=purchased,
            machine_time=Duration(machine_seconds),
            personnel_time=personnel_time,
            media_cost=media_cost,
            personnel_cost=personnel_cost,
        )
