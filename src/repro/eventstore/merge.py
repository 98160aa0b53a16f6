"""Merging a personal EventStore into a larger store.

"Somewhat to our surprise, merging became the fundamental operation for
adding results to the group and collaboration stores.  Rather than having
long-running jobs hold lengthy open transactions on the main data
repository, it proved simpler to create a personal EventStore for the
operation, which is merged into the larger store upon successful
completion of the operation.  This stratagem allowed the highest degree of
integrity protection for the centrally managed data repositories with the
fewest modifications to the legacy data analysis applications."

:func:`merge_into` implements exactly that: the whole merge runs inside one
short transaction on the target; file payloads are copied byte-for-byte;
conflicting content (same run/version/kind, different provenance digest)
aborts the merge leaving the target untouched.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import List

from repro.core.errors import MergeConflictError
from repro.eventstore.store import EventStore


@dataclass
class MergeReport:
    """What one merge changed in the target store."""

    source: str
    target: str
    files_added: int = 0
    files_skipped: int = 0
    runs_added: int = 0
    grade_entries_added: int = 0
    copied_paths: List[str] = field(default_factory=list)


def merge_into(source: EventStore, target: EventStore, merged_at: float = 0.0) -> MergeReport:
    """Merge everything in ``source`` into ``target`` atomically.

    Identical content already present is skipped (merges are idempotent);
    genuinely conflicting content raises :class:`MergeConflictError` and
    rolls the target back, files included.
    """
    report = MergeReport(source=source.name, target=target.name)
    copied: List[Path] = []
    try:
        with target.db.transaction():
            _merge_runs(source, target, report)
            _merge_files(source, target, report, copied)
            _merge_grades(source, target, report)
            target.db.insert(
                "merges",
                source_name=source.name,
                merged_at=merged_at,
                files_added=report.files_added,
                runs_added=report.runs_added,
                grade_entries_added=report.grade_entries_added,
            )
    except Exception:
        # The DB transaction rolled back; undo file copies too.
        for path in copied:
            path.unlink(missing_ok=True)
        raise
    report.copied_paths = [str(path) for path in copied]
    return report


def _merge_runs(source: EventStore, target: EventStore, report: MergeReport) -> None:
    for row in source.db.query("SELECT * FROM runs ORDER BY number"):
        existing = target.db.query_one(
            "SELECT * FROM runs WHERE number = ?", (row["number"],)
        )
        if existing is not None:
            if (
                existing["event_count"] != row["event_count"]
                or existing["start_time"] != row["start_time"]
            ):
                raise MergeConflictError(
                    f"run {row['number']}: source and target disagree on metadata"
                )
            continue
        target.db.insert(
            "runs",
            number=row["number"],
            start_time=row["start_time"],
            duration_s=row["duration_s"],
            event_count=row["event_count"],
            conditions=row["conditions"],
        )
        report.runs_added += 1


def _merge_files(
    source: EventStore,
    target: EventStore,
    report: MergeReport,
    copied: List[Path],
) -> None:
    for row in source.db.query("SELECT * FROM files ORDER BY id"):
        existing = target.db.query_one(
            "SELECT * FROM files WHERE run_number = ? AND version = ? AND kind = ?",
            (row["run_number"], row["version"], row["kind"]),
        )
        if existing is not None:
            if existing["digest"] != row["digest"]:
                raise MergeConflictError(
                    f"run {row['run_number']} {row['kind']} {row['version']!r}: "
                    f"digest mismatch (target {existing['digest'][:8]}..., "
                    f"source {row['digest'][:8]}...)"
                )
            report.files_skipped += 1
            continue
        source_path = source.root / row["path"]
        target_path = target.root / row["path"]
        if target_path.exists():
            raise MergeConflictError(
                f"target already has an unregistered file at {row['path']!r}"
            )
        target_path.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(source_path, target_path)
        copied.append(target_path)
        target.db.insert(
            "files",
            path=row["path"],
            run_number=row["run_number"],
            version=row["version"],
            kind=row["kind"],
            event_count=row["event_count"],
            size_bytes=row["size_bytes"],
            digest=row["digest"],
        )
        report.files_added += 1


def _merge_grades(source: EventStore, target: EventStore, report: MergeReport) -> None:
    for row in source.db.query(
        "SELECT * FROM grade_entries ORDER BY grade, timestamp, id"
    ):
        existing = target.db.query_one(
            "SELECT * FROM grade_entries WHERE grade = ? AND timestamp = ? "
            "AND run_key = ? AND version = ?",
            (row["grade"], row["timestamp"], row["run_key"], row["version"]),
        )
        if existing is not None:
            continue
        latest = target.db.query_value(
            "SELECT max(timestamp) FROM grade_entries WHERE grade = ?",
            (row["grade"],),
        )
        if latest is not None and row["timestamp"] < latest:
            raise MergeConflictError(
                f"grade {row['grade']!r}: merging entry at t={row['timestamp']} "
                f"would rewrite history (target already at t={latest})"
            )
        target.db.insert(
            "grade_entries",
            grade=row["grade"],
            timestamp=row["timestamp"],
            run_key=row["run_key"],
            version=row["version"],
        )
        report.grade_entries_added += 1
