"""Physics analysis over the EventStore.

An analysis is pinned to (grade, timestamp): "a physicist will usually
specify physics grade data and use the date the analysis project started
[...] so that the same consistent version will be used throughout the
lifetime of the project."  :class:`AnalysisJob` reads the consistent event
set, applies selection cuts, and fills a histogram; re-running with the
same pin reproduces the result bit-for-bit even after reprocessing lands.

Analyses iterate ("the processes for reconstruction and physics analysis
require iterative refinement"): :meth:`AnalysisJob.refine` produces a new
job with tightened cuts whose provenance extends the previous iteration's.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.errors import EventStoreError
from repro.core.provenance import ProvenanceStamp
from repro.cleo.reconstruction import ASU_TRACKS, tracks_of
from repro.cleo.reductions import max_of, mean_of, std_of
from repro.eventstore.partition import AccessProfile
from repro.eventstore.provenance import stamp_step
from repro.eventstore.store import EventStore


@dataclass(frozen=True)
class SelectionCuts:
    """Event-selection cuts for one analysis iteration."""

    min_tracks: int = 2
    max_mean_chi2: float = 5.0
    max_abs_slope: float = 0.05

    def __post_init__(self) -> None:
        # ``accepts`` reduces the tracks of every event it lets past the
        # multiplicity cut, so that cut must refuse an empty event.
        if self.min_tracks < 1:
            raise EventStoreError(f"min_tracks must be >= 1, got {self.min_tracks}")
        for name in ("max_mean_chi2", "max_abs_slope"):
            if not math.isfinite(getattr(self, name)):
                raise EventStoreError(f"{name} must be finite, got {getattr(self, name)}")

    def accepts(self, tracks: np.ndarray) -> bool:
        if tracks.shape[0] < self.min_tracks:
            return False
        # Compared as Python floats: a float32 compared with a Python float
        # would round the cut to float32 first.
        if float(mean_of(tracks[:, 2])) > self.max_mean_chi2:
            return False
        if float(max_of(np.abs(tracks[:, 1]))) > self.max_abs_slope:
            return False
        return True

    def tighten(self) -> "SelectionCuts":
        """One refinement step: stricter quality requirements."""
        return SelectionCuts(
            min_tracks=self.min_tracks,
            max_mean_chi2=self.max_mean_chi2 * 0.7,
            max_abs_slope=self.max_abs_slope * 0.9,
        )


@dataclass
class Histogram:
    """A fixed-binning 1-D histogram."""

    low: float
    high: float
    bins: int
    counts: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise EventStoreError(
                f"histogram bounds must be finite, got [{self.low}, {self.high})"
            )
        if self.high <= self.low or self.bins <= 0:
            raise EventStoreError("histogram needs high > low and bins > 0")
        if self.counts is None:
            self.counts = np.zeros(self.bins, dtype=np.int64)

    def fill(self, value: float) -> None:
        if math.isnan(value):
            raise EventStoreError("cannot fill a histogram with NaN")
        if value < self.low or value >= self.high:
            return
        index = int((value - self.low) / (self.high - self.low) * self.bins)
        # Rounding can carry a value just below ``high`` to ``bins``.
        self.counts[min(index, self.bins - 1)] += 1

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def fingerprint(self) -> str:
        """Digest of the contents — the reproducibility check."""
        return hashlib.md5(self.counts.tobytes()).hexdigest()


@dataclass
class AnalysisResult:
    """Everything one analysis pass produces."""

    name: str
    grade: str
    timestamp: float
    iteration: int
    events_read: int
    events_selected: int
    histogram: Histogram
    stamp: ProvenanceStamp

    @property
    def efficiency(self) -> float:
        return self.events_selected / self.events_read if self.events_read else 0.0


class AnalysisJob:
    """One iteration of a physics analysis pinned to (grade, timestamp)."""

    def __init__(
        self,
        name: str,
        store: EventStore,
        grade: str,
        timestamp: float,
        cuts: Optional[SelectionCuts] = None,
        iteration: int = 1,
        parent_stamp: Optional[ProvenanceStamp] = None,
        access_profile: Optional[AccessProfile] = None,
    ):
        if iteration < 1:
            raise EventStoreError("analysis iterations count from 1")
        self.name = name
        self.store = store
        self.grade = grade
        self.timestamp = timestamp
        self.cuts = cuts if cuts is not None else SelectionCuts()
        self.iteration = iteration
        self.parent_stamp = parent_stamp
        # Optional shared profile: every analysis records its ASU working
        # set, which is what the hot/warm/cold partitioning is derived from
        # ("a column-wise split [...] based on usage patterns").
        self.access_profile = access_profile

    def run(self) -> AnalysisResult:
        """Read the pinned consistent set and fill the analysis histogram.

        The observable is a track-pair separation proxy: the spread of
        track intercepts in selected events.
        """
        if self.access_profile is not None:
            self.access_profile.record([ASU_TRACKS])
        histogram = Histogram(low=0.0, high=60.0, bins=60)
        events_read = 0
        events_selected = 0
        for event in self.store.events_for(
            self.grade, self.timestamp, "recon", asu_names=[ASU_TRACKS]
        ):
            events_read += 1
            tracks = tracks_of(event)
            if not self.cuts.accepts(tracks):
                continue
            events_selected += 1
            histogram.fill(float(std_of(tracks[:, 0]) * 2.0))
        stamp = stamp_step(
            module=f"Analysis_{self.name}",
            release=f"iter{self.iteration}",
            params={
                "grade": self.grade,
                "timestamp": self.timestamp,
                "min_tracks": self.cuts.min_tracks,
                "max_mean_chi2": round(self.cuts.max_mean_chi2, 6),
                "max_abs_slope": round(self.cuts.max_abs_slope, 6),
            },
            parents=[self.parent_stamp] if self.parent_stamp is not None else (),
        )
        return AnalysisResult(
            name=self.name,
            grade=self.grade,
            timestamp=self.timestamp,
            iteration=self.iteration,
            events_read=events_read,
            events_selected=events_selected,
            histogram=histogram,
            stamp=stamp,
        )

    def refine(self, previous: AnalysisResult) -> "AnalysisJob":
        """Next iteration: tighter cuts, same pin, provenance chained."""
        return AnalysisJob(
            name=self.name,
            store=self.store,
            grade=self.grade,
            timestamp=self.timestamp,
            cuts=self.cuts.tighten(),
            iteration=self.iteration + 1,
            parent_stamp=previous.stamp,
            access_profile=self.access_profile,
        )

    def adopt_newer_data(self, new_timestamp: float) -> "AnalysisJob":
        """Explicitly move the pin ("the physicists have to explicitly
        change the analysis timestamp to a later date")."""
        if new_timestamp < self.timestamp:
            raise EventStoreError("analysis timestamps only move forward")
        return AnalysisJob(
            name=self.name,
            store=self.store,
            grade=self.grade,
            timestamp=new_timestamp,
            cuts=self.cuts,
            iteration=self.iteration,
            parent_stamp=self.parent_stamp,
        )
