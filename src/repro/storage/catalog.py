"""File catalog: logical files and their replicas.

All three projects replicate: Arecibo raw data exists at the observatory,
on shipped disks, on CTC tape, and at PALFA member sites; provenance and
fixity only make sense against a catalog that knows where every copy lives
and what its checksum should be.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.errors import IntegrityError, StorageError
from repro.core.units import DataSize
from repro.storage.media import checksum_for


@dataclass(frozen=True)
class Replica:
    """One copy of a logical file at one location."""

    location: str
    medium_id: str
    checksum: str


@dataclass
class CatalogEntry:
    """A logical file with its expected checksum and known replicas."""

    name: str
    size: DataSize
    checksum: str
    replicas: List[Replica] = field(default_factory=list)

    @property
    def replica_count(self) -> int:
        return len(self.replicas)


class FileCatalog:
    """Registry of logical files → replicas, with fixity verification."""

    def __init__(self) -> None:
        self._entries: Dict[str, CatalogEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def register(self, name: str, size: DataSize, content_tag: str = "") -> CatalogEntry:
        """Register a new logical file and its expected checksum."""
        if name in self._entries:
            raise StorageError(f"catalog already has {name!r}")
        entry = CatalogEntry(
            name=name, size=size, checksum=checksum_for(name, size, content_tag)
        )
        self._entries[name] = entry
        return entry

    def entry(self, name: str) -> CatalogEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise StorageError(f"catalog has no file {name!r}") from None

    def add_replica(self, name: str, location: str, medium_id: str, checksum: str) -> Replica:
        """Record a new copy; the checksum must match the catalog's."""
        entry = self.entry(name)
        if checksum != entry.checksum:
            raise IntegrityError(
                f"replica of {name!r} at {location!r} has checksum {checksum[:8]}..., "
                f"expected {entry.checksum[:8]}..."
            )
        replica = Replica(location=location, medium_id=medium_id, checksum=checksum)
        entry.replicas.append(replica)
        return replica

    def drop_replicas_at_medium(self, medium_id: str) -> int:
        """Forget all replicas on one physical medium; returns count."""
        dropped = 0
        for entry in self._entries.values():
            before = len(entry.replicas)
            entry.replicas = [r for r in entry.replicas if r.medium_id != medium_id]
            dropped += before - len(entry.replicas)
        return dropped

    def files(self) -> List[str]:
        """All registered logical file names."""
        return sorted(self._entries)

    def files_alive(self) -> List[str]:
        """Logical files with at least one surviving replica."""
        return sorted(
            name for name, entry in self._entries.items() if entry.replica_count > 0
        )

    def files_at(self, location: str) -> List[str]:
        return sorted(
            name
            for name, entry in self._entries.items()
            if any(replica.location == location for replica in entry.replicas)
        )

    def unreplicated(self, minimum: int = 2) -> List[str]:
        """Logical files with fewer than ``minimum`` replicas (loss risk)."""
        return sorted(
            name
            for name, entry in self._entries.items()
            if entry.replica_count < minimum
        )

    def lost(self) -> List[str]:
        """Logical files with zero replicas — unrecoverable."""
        return self.unreplicated(minimum=1)

    def total_logical(self) -> DataSize:
        return DataSize(sum(entry.size.bytes for entry in self._entries.values()))

    def total_physical(self) -> DataSize:
        return DataSize(
            sum(
                entry.size.bytes * entry.replica_count
                for entry in self._entries.values()
            )
        )
