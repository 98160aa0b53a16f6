"""The EventStore: metadata, versioning, and consistent data access.

"EventStore is primarily a metadata and provenance system, designed to
simplify many common tasks of data analysis by relieving physicists of the
burden of data versioning and file management, while supporting legacy
data formats.  Data stored in the various formats are managed such that
physicists conducting analyses are always presented with a consistent set
of data and can recover exactly the versions of the data used previously."

One class implements all three sizes; see :mod:`repro.eventstore.scales`
for the personal/group/collaboration wrappers ("The only user interface
differences between the three sizes is the name of the software module
loaded, which is also the first word of all EventStore commands").
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.core.errors import EventStoreError
from repro.core.provenance import ProvenanceStamp
from repro.core.readcache import ReadCache
from repro.core.telemetry import MetricsRegistry, Telemetry, get_telemetry, registry_view
from repro.core.units import DataSize, Duration
from repro.core.versioning import GradeHistory
from repro.db.connection import Database, SqliteBackend
from repro.db.schema import apply_schema
from repro.eventstore.fileformat import (
    EventFile,
    FileHeader,
    open_event_file,
    write_event_file,
)
from repro.eventstore.model import DATA_KINDS, Event, Run, parse_run_key
from repro.eventstore.schema import eventstore_schema

SCALES = ("personal", "group", "collaboration")


@dataclass
class IngestStats:
    """Write/read traffic counters for one store (a registry snapshot view)."""

    files_injected: int = 0
    events_injected: int = 0
    bytes_injected: float = 0.0
    files_opened: int = 0


class EventStore:
    """A store of event files with grade/version metadata in a relational DB.

    Parameters
    ----------
    root:
        Directory for event files and the embedded database.
    scale:
        ``personal`` stores accept direct :meth:`inject`; ``group`` and
        ``collaboration`` stores only grow through merges (or explicit
        ``admin=True``), the paper's central operational lesson.
    name:
        Identifier used in merge records; defaults to the directory name.
    cache:
        Optional :class:`ReadCache` for the hot read path: grade
        resolution (``grade:`` keys, invalidated by :meth:`assign_grade`
        and :meth:`register_run`) and file-row lookups (``file:`` keys,
        negative results included, invalidated by :meth:`inject`).
    """

    def __init__(
        self,
        root: Union[str, Path],
        scale: str = "personal",
        name: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
        cache: Optional[ReadCache] = None,
    ):
        if scale not in SCALES:
            raise EventStoreError(f"unknown scale {scale!r}; pick one of {SCALES}")
        self.root = Path(root)
        self.scale = scale
        self.name = name if name is not None else self.root.name
        self.files_dir = self.root / "files"
        self.files_dir.mkdir(parents=True, exist_ok=True)
        self.db: Database = SqliteBackend(self.root / "eventstore.db")
        apply_schema(self.db, eventstore_schema())
        self.metrics = MetricsRegistry()
        self._telemetry = telemetry if telemetry is not None else get_telemetry()
        self.cache = cache

    @property
    def ingest_stats(self) -> IngestStats:
        """Write/read traffic counters, read from the metrics registry."""
        return registry_view(self.metrics, IngestStats, "eventstore")

    def close(self) -> None:
        self.db.close()

    def __enter__(self) -> "EventStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def command(self, verb: str) -> str:
        """Render a store command; the scale is its first word."""
        return f"{self.scale} {verb}"

    # -- write path ---------------------------------------------------------
    def _require_writable(self, admin: bool) -> None:
        if self.scale != "personal" and not admin:
            raise EventStoreError(
                f"{self.scale} stores only grow by merge (or admin override); "
                "build a personal store and merge it in"
            )

    def _run_known(self, run: Run) -> bool:
        """Whether ``run`` is registered; differing metadata is refused."""
        existing = self.db.query_one("SELECT * FROM runs WHERE number = ?", (run.number,))
        if existing is None:
            return False
        if (
            existing["event_count"] != run.event_count
            or existing["start_time"] != run.start_time
        ):
            raise EventStoreError(
                f"run {run.number} already registered with different metadata"
            )
        return True

    def _insert_run(self, run: Run) -> None:
        self.db.insert(
            "runs",
            number=run.number,
            start_time=run.start_time,
            duration_s=run.duration.seconds,
            event_count=run.event_count,
            conditions=json.dumps(run.condition_map, sort_keys=True),
        )

    def _run_added(self) -> None:
        if self.cache is not None:
            # A new run changes what every grade's run keys expand to.
            self.cache.invalidate_prefix("grade:")

    def register_run(self, run: Run, admin: bool = False) -> None:
        """Record a run's metadata (idempotent for identical metadata)."""
        self._require_writable(admin)
        if not self._run_known(run):
            self._insert_run(run)
            self._run_added()

    def inject(
        self,
        run: Run,
        events: Sequence[Event],
        version: str,
        kind: str,
        stamp: ProvenanceStamp,
        admin: bool = False,
        created_at: float = 0.0,
    ) -> Path:
        """Write an event file and register it under (run, version, kind).

        Everything that can refuse the injection is checked before the
        file is written; the run row (when new) and the file row then
        commit together.
        """
        self._require_writable(admin)
        if kind not in DATA_KINDS:
            raise EventStoreError(f"unknown data kind {kind!r}; expected {DATA_KINDS}")
        run_known = self._run_known(run)
        if self._file_row(run.number, version, kind) is not None:
            raise EventStoreError(
                f"store already has run {run.number} {kind} at version {version!r}"
            )
        filename = f"run{run.number:06d}_{kind}_{_safe(version)}.evs"
        path = self.files_dir / filename
        header = FileHeader(
            run_number=run.number, version=version, data_kind=kind, created_at=created_at
        )
        count = write_event_file(path, header, events, stamp)
        size_bytes = float(path.stat().st_size)
        try:
            with self.db.transaction():
                if not run_known:
                    self._insert_run(run)
                self.db.insert(
                    "files",
                    path=str(path.relative_to(self.root)),
                    run_number=run.number,
                    version=version,
                    kind=kind,
                    event_count=count,
                    size_bytes=size_bytes,
                    digest=stamp.digest,
                )
        except Exception:
            # No row names the file: remove it rather than leave an orphan
            # for a later merge of this coordinate to trip over.
            path.unlink(missing_ok=True)
            raise
        if self.cache is not None:
            # Drop a cached "no such file" answer for this coordinate.
            self.cache.invalidate(f"file:{run.number}:{version}:{kind}")
        if not run_known:
            self._run_added()
        self.metrics.counter("eventstore.files_injected").inc()
        self.metrics.counter("eventstore.events_injected").inc(count)
        self.metrics.counter("eventstore.bytes_injected").inc(size_bytes)
        self._telemetry.emit(
            "storage.write",
            filename,
            store=self.name,
            bytes=size_bytes,
            events=count,
            run=run.number,
            version=version,
            data_kind=kind,
        )
        return path

    # -- grades ---------------------------------------------------------------
    def assign_grade(
        self,
        grade: str,
        timestamp: float,
        assignments: Dict[str, str],
        admin: bool = False,
    ) -> None:
        """Record grade assignments ("an administrative procedure").

        Keys are run keys (``run:N`` or ``runs:A-B``); values are versions.
        Timestamps must be non-decreasing per grade.
        """
        if self.scale == "collaboration" and not admin:
            raise EventStoreError(
                "grade assignment on the collaboration store is an officers-only "
                "operation; pass admin=True"
            )
        if not assignments:
            raise EventStoreError("grade assignment needs at least one run key")
        latest = self.db.query_value(
            "SELECT max(timestamp) FROM grade_entries WHERE grade = ?", (grade,)
        )
        if latest is not None and timestamp < latest:
            raise EventStoreError(
                f"grade {grade!r}: timestamps must be non-decreasing "
                f"({timestamp} < {latest})"
            )
        # Refuse a bad key before the first row, then land all rows together:
        # a half-assigned grade is a grade nobody assigned.
        rows = sorted(assignments.items())
        for key, _ in rows:
            parse_run_key(key)
        with self.db.transaction():
            for key, version in rows:
                self.db.insert(
                    "grade_entries",
                    grade=grade,
                    timestamp=timestamp,
                    run_key=key,
                    version=version,
                )
        if self.cache is not None:
            self.cache.invalidate_prefix(f"grade:{grade}@")

    def _grade_history(self, grade: str) -> GradeHistory[str]:
        history: GradeHistory[str] = GradeHistory(grade)
        rows = self.db.query(
            "SELECT timestamp, run_key, version FROM grade_entries "
            "WHERE grade = ? ORDER BY timestamp, id",
            (grade,),
        )
        for row in rows:
            history.assign(row["timestamp"], {row["run_key"]: row["version"]})
        return history

    def grades(self) -> List[str]:
        return [
            row["grade"]
            for row in self.db.query(
                "SELECT DISTINCT grade FROM grade_entries ORDER BY grade"
            )
        ]

    def resolve_grade(
        self, grade: str, timestamp: float, include_new_data: bool = True
    ) -> Dict[str, str]:
        """Run-key → version mapping for an analysis pinned at ``timestamp``."""
        history = self._grade_history(grade)
        if not len(history):
            raise EventStoreError(f"store has no grade {grade!r}")
        return history.resolve(timestamp, include_new_data=include_new_data)

    def resolve_runs(
        self, grade: str, timestamp: float, include_new_data: bool = True
    ) -> Dict[int, str]:
        """Run-number → version mapping for an analysis pinned at ``timestamp``.

        Resolution happens at run granularity: each grade entry's run key is
        expanded over the runs the store knows about *before* the snapshot
        rules apply, so a reassignment that uses a different key shape
        (``run:1`` after ``runs:1-2``) still pins correctly and the
        first-time-data exception only fires for genuinely new runs.

        With a cache attached, the resolved mapping is served from the
        ``grade:`` key space (every analysis iteration re-resolves the
        same pinned coordinate); grade assignments and new runs
        invalidate it.
        """
        if self.cache is not None:
            resolved = self.cache.get_or_load(
                f"grade:{grade}@{timestamp!r}:{include_new_data}",
                lambda: self._resolve_runs_uncached(
                    grade, timestamp, include_new_data
                ),
            )
            return dict(resolved)  # type: ignore[arg-type]
        return self._resolve_runs_uncached(grade, timestamp, include_new_data)

    def _resolve_runs_uncached(
        self, grade: str, timestamp: float, include_new_data: bool
    ) -> Dict[int, str]:
        rows = self.db.query(
            "SELECT timestamp, run_key, version FROM grade_entries "
            "WHERE grade = ? ORDER BY timestamp, id",
            (grade,),
        )
        if not rows:
            raise EventStoreError(f"store has no grade {grade!r}")
        known = [row["number"] for row in self.db.query("SELECT number FROM runs")]
        history: GradeHistory[int] = GradeHistory(grade)
        for row in rows:
            first, last = parse_run_key(row["run_key"])
            covered = {
                number: row["version"] for number in known if first <= number <= last
            }
            if covered:
                history.assign(row["timestamp"], covered)
        if not len(history):
            return {}
        return history.resolve(timestamp, include_new_data=include_new_data)

    # -- read path ---------------------------------------------------------
    def _file_row(self, run_number: int, version: str, kind: str):
        """The file registered under (run, version, kind), or None.

        Cached (including the None case — resolved grades routinely cover
        runs with no file of a given kind) under ``file:`` keys; files are
        immutable once injected, so only :meth:`inject` invalidates.
        """
        if self.cache is not None:
            return self.cache.get_or_load(
                f"file:{run_number}:{version}:{kind}",
                lambda: self._file_row_uncached(run_number, version, kind),
            )
        return self._file_row_uncached(run_number, version, kind)

    def _file_row_uncached(self, run_number: int, version: str, kind: str):
        row = self.db.query_one(
            "SELECT * FROM files WHERE run_number = ? AND version = ? AND kind = ?",
            (run_number, version, kind),
        )
        return None if row is None else dict(row)

    def _touch_file(self, row) -> None:
        """Hook called before a registered file is read.

        The base store only counts the access; the HSM-backed store extends
        it to charge a disk-cache hit or a tape recall (see
        :mod:`repro.eventstore.hsm_store`).
        """
        self.metrics.counter("eventstore.files_opened").inc()

    def open_file(self, run_number: int, version: str, kind: str) -> EventFile:
        row = self._file_row(run_number, version, kind)
        if row is None:
            raise EventStoreError(
                f"no {kind} file for run {run_number} at version {version!r}"
            )
        self._touch_file(row)
        return open_event_file(self.root / row["path"])

    def events_for(
        self,
        grade: str,
        timestamp: float,
        kind: str,
        asu_names: Optional[Iterable[str]] = None,
        include_new_data: bool = True,
    ) -> Iterator[Event]:
        """Stream the consistent event set for (grade, timestamp, kind).

        This is the physicist-facing read path: pick a grade and the date
        the analysis started, and iterate — the store guarantees the same
        versions come back every time.
        """
        resolved = self.resolve_runs(grade, timestamp, include_new_data)
        asu_list = list(asu_names) if asu_names is not None else None
        for run_number in sorted(resolved):
            version = resolved[run_number]
            row = self._file_row(run_number, version, kind)
            if row is None:
                continue  # grade covers a run with no file of this kind
            self._touch_file(row)
            event_file = open_event_file(self.root / row["path"])
            yield from event_file.events(asu_list)

    def consistency_digests(
        self, grade: str, timestamp: float, kind: str
    ) -> Dict[int, str]:
        """Per-run provenance digests of the resolved set (discrepancy check)."""
        resolved = self.resolve_runs(grade, timestamp)
        digests: Dict[int, str] = {}
        for run_number, version in resolved.items():
            row = self._file_row(run_number, version, kind)
            if row is not None:
                digests[run_number] = row["digest"]
        return digests

    # -- inventory ---------------------------------------------------------
    def runs(self) -> List[Run]:
        rows = self.db.query("SELECT * FROM runs ORDER BY number")
        return [
            Run.create(
                number=row["number"],
                start_time=row["start_time"],
                duration=Duration(row["duration_s"]),
                event_count=row["event_count"],
                conditions=json.loads(row["conditions"]),
            )
            for row in rows
        ]

    def file_count(self) -> int:
        return self.db.count("files")

    def total_size(self) -> DataSize:
        value = self.db.query_value("SELECT coalesce(sum(size_bytes), 0) FROM files")
        return DataSize.from_bytes(float(value))


def _safe(version: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "._-" else "_" for ch in version)
