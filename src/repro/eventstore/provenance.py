"""EventStore-level provenance: stamping, discrepancy detection, cost study.

Implements the paper's pragmatic design point: full ASU-granularity
provenance "will be large, and it will be inappropriate to store it in the
headers of the data files", so CLEO stores a file-level summary (version
strings + MD5) and accepts that it "only tells which ASUs *might* have been
used".  The functions here provide both the file-level mechanism and the
cost model for the ASU-level alternative, so the trade-off can be measured
(experiment C8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.provenance import ProcessingStep, ProvenanceStamp
from repro.eventstore.fileformat import EventFile


def stamp_step(
    module: str,
    release: str,
    params: Optional[Mapping[str, object]] = None,
    inputs: Sequence[str] = (),
    parents: Sequence[ProvenanceStamp] = (),
) -> ProvenanceStamp:
    """Build the stamp for one processing step over its input stamps.

    This is the "collect, as strings, all the software module names, their
    parameters, plus all the input file information and make an MD5 hash"
    operation, performed at every step of reconstruction and analysis.
    """
    step = ProcessingStep.create(module, release, params, inputs)
    if not parents:
        return ProvenanceStamp.initial(step)
    return ProvenanceStamp.merged(list(parents), step)


@dataclass
class DiscrepancyReport:
    """Outcome of checking a set of files for consistent provenance."""

    groups: Dict[str, List[str]] = field(default_factory=dict)  # digest -> file names
    explanations: List[str] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return len(self.groups) <= 1

    @property
    def majority_digest(self) -> Optional[str]:
        if not self.groups:
            return None
        return max(self.groups, key=lambda digest: len(self.groups[digest]))

    def outliers(self) -> List[str]:
        """Files whose digest differs from the majority."""
        majority = self.majority_digest
        return sorted(
            name
            for digest, names in self.groups.items()
            if digest != majority
            for name in names
        )


def check_consistency(files: Sequence[EventFile]) -> DiscrepancyReport:
    """Group files by provenance digest; explain any split.

    "We can detect the majority of usage discrepancies by comparing the
    hashes.  In the event of a discrepancy, the physicists can view the
    strings to see what has changed."
    """
    report = DiscrepancyReport()
    for event_file in files:
        report.groups.setdefault(event_file.stamp.digest, []).append(
            event_file.path.name
        )
    for names in report.groups.values():
        names.sort()
    if not report.consistent:
        digests = sorted(report.groups)
        reference = next(f for f in files if f.stamp.digest == digests[0])
        for digest in digests[1:]:
            other = next(f for f in files if f.stamp.digest == digest)
            for line in reference.stamp.diff(other.stamp):
                report.explanations.append(
                    f"{reference.path.name} vs {other.path.name}: {line}"
                )
    return report


@dataclass(frozen=True)
class ProvenanceCost:
    """Metadata volume of a provenance scheme over a dataset."""

    scheme: str
    records: int
    bytes_total: float


def file_level_cost(files: Sequence[EventFile]) -> ProvenanceCost:
    """Metadata footprint of the implemented file-level scheme."""
    total = sum(f.stamp.metadata_bytes for f in files)
    return ProvenanceCost(scheme="file-level", records=len(files), bytes_total=float(total))


def asu_level_cost(
    files: Sequence[EventFile],
    asus_per_event: int,
    bytes_per_record: int = 48,
) -> ProvenanceCost:
    """Projected footprint of exact ASU-granularity tracking.

    One record per (event, ASU) pair — the paper's "metadata volume to
    track at the ASU level will be large" claim, made quantitative.  48
    bytes is a tight lower bound for (event id, ASU id, provenance ref,
    input refs).
    """
    records = sum(f.event_count for f in files) * asus_per_event
    return ProvenanceCost(
        scheme="asu-level",
        records=records,
        bytes_total=float(records * bytes_per_record),
    )
