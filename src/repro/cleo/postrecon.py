"""Post-reconstruction pass.

"In addition to the reconstructed data files, post-reconstruction values
are also produced and stored.  These values depend on statistics gathered
from the reconstructed data, and so cannot be calculated until after
reconstruction.  There are typically a dozen ASUs per event in the
post-reconstruction data."

The pass is therefore two-phase by construction: first a run-statistics
sweep over all reconstructed events, then a per-event derivation of twelve
small ASUs normalized against those run statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.errors import SearchError
from repro.core.provenance import ProvenanceStamp
from repro.cleo.reconstruction import tracks_of
from repro.cleo.reductions import max_of, mean_of, std_of
from repro.eventstore.arrays import array_header
from repro.eventstore.model import ASU, Event
from repro.eventstore.provenance import stamp_step

# The dozen post-reconstruction ASUs.
POSTRECON_ASUS = (
    "multiplicity",
    "meanChi2",
    "maxChi2",
    "slopeSpread",
    "interceptSpread",
    "eventShape",
    "vertexEstimate",
    "momentumProxy",
    "qualityFlag",
    "multiplicityZ",   # multiplicity z-score against run statistics
    "chi2Z",           # chi2 z-score against run statistics
    "runNormFactor",
)


@dataclass(frozen=True)
class RunStatistics:
    """Statistics gathered from one run's reconstructed data."""

    run_number: int
    n_events: int
    mean_multiplicity: float
    std_multiplicity: float
    mean_chi2: float
    std_chi2: float

    @classmethod
    def _of_tracks(cls, run_number: int, tracks: Sequence[np.ndarray]) -> "RunStatistics":
        """Statistics over one decoded ``tracks`` array per event."""
        if not tracks:
            raise SearchError(f"run {run_number}: no reconstructed events")
        multiplicities = np.asarray([t.shape[0] for t in tracks], dtype=np.float64)
        chi2_means = np.asarray([float(mean_of(t[:, 2])) for t in tracks], dtype=np.float64)
        return cls(
            run_number=run_number,
            n_events=len(tracks),
            mean_multiplicity=float(mean_of(multiplicities)),
            std_multiplicity=float(max(std_of(multiplicities), 1e-9)),
            mean_chi2=float(mean_of(chi2_means)),
            std_chi2=float(max(std_of(chi2_means), 1e-9)),
        )


class PostReconstructor:
    """Derives the dozen post-recon ASUs for each event of a run."""

    def __init__(self, release: str):
        if not release:
            raise SearchError("post-reconstruction release must be non-empty")
        self.release = release

    @property
    def version(self) -> str:
        return f"PostRecon_{self.release}"

    def _derive(self, recon_event: Event, tracks: np.ndarray, stats: RunStatistics) -> Event:
        n_tracks = tracks.shape[0]
        x0 = tracks[:, 0]
        slopes = tracks[:, 1]
        chi2 = tracks[:, 2]
        mean_chi2 = float(mean_of(chi2))
        # Kept as float32 scalars: eventShape divides them.
        slope_spread = std_of(slopes)
        intercept_spread = std_of(x0)
        # One float32 conversion for the dozen, in POSTRECON_ASUS order.
        values = np.array(
            [
                n_tracks,
                mean_chi2,
                max_of(chi2),
                slope_spread,
                intercept_spread,
                # A crude sphericity proxy: spread of intercepts over spread of slopes.
                intercept_spread / (slope_spread + 1e-6),
                mean_of(x0),                                 # vertexEstimate
                mean_of(np.abs(slopes)),                     # momentumProxy
                1.0 if mean_chi2 < 3.0 else 0.0,             # qualityFlag
                (n_tracks - stats.mean_multiplicity) / stats.std_multiplicity,
                (mean_chi2 - stats.mean_chi2) / stats.std_chi2,
                stats.mean_multiplicity,                     # runNormFactor
            ],
            dtype=np.float32,
        )
        # Twelve one-float arrays share one header; each payload is that
        # header plus its four bytes of the converted block.
        header = array_header(values.dtype, (1,))
        body = values.tobytes()
        asus = {
            name: ASU(name=name, payload=header + body[4 * index : 4 * index + 4])
            for index, name in enumerate(POSTRECON_ASUS)
        }
        return Event(
            run_number=recon_event.run_number,
            event_number=recon_event.event_number,
            asus=asus,
        )

    def process_run(
        self,
        run_number: int,
        recon_events: Sequence[Event],
        recon_stamp: ProvenanceStamp,
    ) -> Tuple[List[Event], RunStatistics, ProvenanceStamp]:
        """The two-phase pass: gather statistics, then derive per event."""
        tracks = [tracks_of(event) for event in recon_events]
        for event, event_tracks in zip(recon_events, tracks):
            if event_tracks.shape[0] == 0:
                raise SearchError(
                    f"run {run_number} event {event.event_number}: "
                    "no reconstructed tracks"
                )
        stats = RunStatistics._of_tracks(run_number, tracks)
        derived = [
            self._derive(event, event_tracks, stats)
            for event, event_tracks in zip(recon_events, tracks)
        ]
        stamp = stamp_step(
            module="PassPostRecon",
            release=self.release,
            params={
                "meanMultiplicity": round(stats.mean_multiplicity, 6),
                "meanChi2": round(stats.mean_chi2, 6),
            },
            parents=[recon_stamp],
        )
        return derived, stats, stamp
