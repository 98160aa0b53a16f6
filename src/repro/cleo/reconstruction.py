"""Track reconstruction.

"A typical example is the identification of particle trajectories from the
energy levels recorded by measure wires."  The reconstructor takes raw hit
positions, applies the calibration correction, and least-squares fits a
straight track through each hit sequence.  Output events carry a ``tracks``
ASU (x0, slope, chi2 per track) and a small ``reconSummary`` ASU.

The reconstruction version string follows the paper's convention
(``Recon_<release>``), and the output provenance stamp extends the raw
stamp with the module, release, and calibration version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.errors import SearchError
from repro.core.provenance import ProvenanceStamp
from repro.cleo.calibration import CalibrationSet
from repro.cleo.detector import DetectorConfig, hits_of
from repro.cleo.reductions import max_of, mean_of
from repro.eventstore.arrays import array_asu, asu_array
from repro.eventstore.model import Event
from repro.eventstore.provenance import stamp_step

# Reconstructed-event ASU names.
ASU_TRACKS = "tracks"            # (n_tracks, 3) float32: x0, slope, chi2
ASU_RECON_SUMMARY = "reconSummary"  # (3,) float32: n_tracks, mean chi2, max |slope|


@dataclass
class Reconstructor:
    """One release of the reconstruction pass."""

    config: DetectorConfig
    calibration: CalibrationSet
    release: str

    def __post_init__(self) -> None:
        # The fit's design matrix, one [1, z] row per wire plane: built
        # once per release, not once per event.
        z = np.arange(self.config.n_planes) * self.config.plane_spacing_cm
        self._design = np.vstack([np.ones_like(z), z]).T  # (n_planes, 2)

    @property
    def version(self) -> str:
        return f"Recon_{self.release}"

    def fit_tracks(self, hits: np.ndarray) -> np.ndarray:
        """Least-squares line fits, one per hit row.

        Returns (n_tracks, 3): intercept, slope, chi2 (per degree of
        freedom, against the nominal wire resolution).
        """
        if hits.ndim != 2 or hits.shape[1] != self.config.n_planes:
            raise SearchError(
                f"hits must be (n_tracks, {self.config.n_planes}), got {hits.shape}"
            )
        corrected = self.calibration.apply(hits.astype(np.float64))
        design = self._design
        # Solve all tracks at once: design @ params.T = corrected.T
        params, *_ = np.linalg.lstsq(design, corrected.T, rcond=None)
        fitted = design @ params  # (n_planes, n_tracks)
        residuals = corrected.T - fitted
        dof = self.config.n_planes - 2
        chi2 = (residuals**2).sum(axis=0) / (
            dof * self.config.wire_resolution_cm**2
        )
        return np.vstack([params[0], params[1], chi2]).T.astype(np.float32)

    def reconstruct_event(self, raw_event: Event) -> Event:
        hits = hits_of(raw_event)
        if hits.shape[0] == 0:
            raise SearchError(
                f"run {raw_event.run_number} event {raw_event.event_number}: "
                "no tracks to reconstruct"
            )
        tracks = self.fit_tracks(hits)
        summary = np.array(
            [tracks.shape[0], mean_of(tracks[:, 2]), max_of(np.abs(tracks[:, 1]))],
            dtype=np.float32,
        )
        return Event(
            run_number=raw_event.run_number,
            event_number=raw_event.event_number,
            asus={
                ASU_TRACKS: array_asu(ASU_TRACKS, tracks),
                ASU_RECON_SUMMARY: array_asu(ASU_RECON_SUMMARY, summary),
            },
        )

    def reconstruct_run(
        self, raw_events: Iterable[Event], raw_stamp: ProvenanceStamp
    ) -> Tuple[List[Event], ProvenanceStamp]:
        """Reconstruct a whole run ("it always processes a run as a unit,
        [so] all events in a run have identical provenance")."""
        recon_events = [self.reconstruct_event(event) for event in raw_events]
        stamp = stamp_step(
            module="PassRecon",
            release=self.release,
            params={"calibration": self.calibration.version},
            parents=[raw_stamp],
        )
        return recon_events, stamp


def tracks_of(event: Event) -> np.ndarray:
    """Decode the tracks ASU of a reconstructed event."""
    return asu_array(event.asu(ASU_TRACKS))


def track_residual_bias(recon_events: Sequence[Event], truth_x0: Sequence[np.ndarray]) -> float:
    """Mean |fitted x0 - true x0| over a run — the calibration-quality metric."""
    total, count = 0.0, 0
    for event, truths in zip(recon_events, truth_x0):
        fitted = tracks_of(event)[:, 0]
        n = min(len(fitted), len(truths))
        total += float(np.abs(fitted[:n] - truths[:n]).sum())
        count += n
    if count == 0:
        raise SearchError("no tracks to compare")
    return total / count
