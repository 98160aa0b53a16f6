"""Data grades and timestamped snapshots.

This module implements the consistency machinery the paper attributes to the
CLEO EventStore, in a domain-neutral form reused by all three pipelines:

* :class:`GradeHistory` — the evolution of a named data grade over time.  A
  consistent set of data is fully identified by a grade name plus a
  timestamp; resolution finds the most recent snapshot *prior* to the
  timestamp, with the paper's one deliberate exception: data appearing for
  the *first time* after the timestamp is still visible, so physicists can
  pick up newly taken runs without moving their analysis date.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generic, Hashable, List, Mapping, Tuple, TypeVar

from repro.core.errors import VersioningError

Key = TypeVar("Key", bound=Hashable)


@dataclass(frozen=True)
class SnapshotEntry(Generic[Key]):
    """One grade-history event: at ``timestamp``, ``assignments`` changed."""

    timestamp: float
    assignments: Tuple[Tuple[Key, str], ...]


class GradeHistory(Generic[Key]):
    """The recorded evolution of one data grade.

    Keys are domain units of version assignment (CLEO uses run ranges; the
    Arecibo candidate DB uses pointing ids; WebLab uses crawl ids).  Each
    :meth:`assign` call appends a snapshot entry; queries never mutate.
    """

    def __init__(self, grade: str):
        if not grade:
            raise VersioningError("grade name must be non-empty")
        self.grade = grade
        self._entries: List[SnapshotEntry[Key]] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> List[SnapshotEntry[Key]]:
        return list(self._entries)

    def assign(self, timestamp: float, assignments: Mapping[Key, str]) -> None:
        """Record that at ``timestamp`` these keys were (re)assigned versions.

        Timestamps must be non-decreasing: grade evolution is append-only,
        mirroring the administrative procedure performed by "the CLEO
        officers".
        """
        if not assignments:
            raise VersioningError("a snapshot entry must assign at least one key")
        if self._entries and timestamp < self._entries[-1].timestamp:
            raise VersioningError(
                f"grade {self.grade!r}: snapshot timestamps must be non-decreasing "
                f"({timestamp} < {self._entries[-1].timestamp})"
            )
        frozen = tuple(sorted(assignments.items(), key=lambda kv: repr(kv[0])))
        self._entries.append(SnapshotEntry(timestamp=timestamp, assignments=frozen))

    def resolve(self, timestamp: float, include_new_data: bool = True) -> Dict[Key, str]:
        """Resolve the consistent version set for an analysis timestamp.

        Applies the paper's two rules:

        1. Use the most recent assignment of each key at or before
           ``timestamp`` ("EventStore finds the most recent snapshot prior
           to the specified date, so the date specified is not limited to a
           set of magic values").
        2. If ``include_new_data``, keys whose *first ever* assignment is
           after ``timestamp`` are also included, at that first assignment
           ("Data added for the first time [...] will appear in the
           snapshot").  Keys that already existed before the timestamp are
           pinned at their as-of version — later reprocessings stay hidden.
        """
        resolved: Dict[Key, str] = {}
        first_seen: Dict[Key, Tuple[float, str]] = {}
        for entry in self._entries:
            for key, version in entry.assignments:
                if key not in first_seen:
                    first_seen[key] = (entry.timestamp, version)
                if entry.timestamp <= timestamp:
                    resolved[key] = version
        if include_new_data:
            for key, (first_time, first_version) in first_seen.items():
                if key not in resolved and first_time > timestamp:
                    resolved[key] = first_version
        return resolved
