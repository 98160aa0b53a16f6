"""Synthetic CLEO detector: collision events as wire-chamber hits.

The physics is deliberately simple but real: each collision event produces
a few charged tracks, each a straight line ``x(z) = x0 + slope * z``
crossing ``n_planes`` measure-wire planes.  The detector records, per
track and plane, the hit position smeared by wire resolution and biased by
the (uncalibrated) plane misalignment.  Reconstruction must undo both —
which gives calibration versions and provenance real teeth in the tests.

Runs follow the paper's parameters: 45–60 minutes, 15K–300K events each
(scaled down by ``events_scale`` for laptop runs, with the scale recorded
so volume accounting can be projected back up).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.errors import EventStoreError
from repro.core.units import Duration
from repro.eventstore.arrays import array_asu, asu_array
from repro.eventstore.model import Event, Run

# Raw-event ASU names.
ASU_HITS = "hits"          # (n_tracks, n_planes) float32 measured positions
ASU_TRIGGER = "trigger"    # small trigger summary
ASU_ADC = "adc"            # bulk readout payload (sizes the raw data)


@dataclass(frozen=True)
class DetectorConfig:
    """Geometry and response of the synthetic detector."""

    n_planes: int = 8
    plane_spacing_cm: float = 10.0
    wire_resolution_cm: float = 0.05
    track_separation_cm: float = 6.0
    max_slope: float = 0.04
    mean_multiplicity: float = 4.0
    max_multiplicity: int = 12
    adc_bytes_per_track: int = 256

    def __post_init__(self) -> None:
        if self.n_planes < 3:
            raise EventStoreError("need at least 3 wire planes to fit tracks")
        if self.mean_multiplicity <= 0:
            raise EventStoreError("mean multiplicity must be positive")


@dataclass
class TrackTruth:
    """Generator-level parameters of one track."""

    x0: float
    slope: float


@dataclass
class EventTruth:
    """Generator-level record of one event (kept out of the data files)."""

    event_number: int
    tracks: List[TrackTruth]


class Detector:
    """Generates runs of raw events against a fixed plane misalignment."""

    def __init__(self, config: DetectorConfig, misalignment: np.ndarray):
        if misalignment.shape != (config.n_planes,):
            raise EventStoreError(
                f"misalignment must have shape ({config.n_planes},), "
                f"got {misalignment.shape}"
            )
        self.config = config
        self.misalignment = np.asarray(misalignment, dtype=np.float64)
        #: Position of each wire plane along the beam axis.
        self.plane_z = np.arange(config.n_planes) * config.plane_spacing_cm

    def _sample_multiplicity(self, rng: np.random.Generator) -> int:
        n = int(rng.poisson(self.config.mean_multiplicity))
        return min(max(n, 1), self.config.max_multiplicity)

    def _sample_tracks(self, n_tracks: int, rng: np.random.Generator) -> List[TrackTruth]:
        # Tracks are spaced by at least track_separation so rank-order
        # matching in the reconstructor is well-posed for typical events.
        base = rng.uniform(-50.0, 50.0)
        offsets = np.cumsum(
            rng.uniform(self.config.track_separation_cm, 2 * self.config.track_separation_cm,
                        size=n_tracks)
        )
        slopes = rng.uniform(-self.config.max_slope, self.config.max_slope, size=n_tracks)
        return [
            TrackTruth(x0=float(base + offset), slope=float(slope))
            for offset, slope in zip(offsets, slopes)
        ]

    def measure(self, tracks: List[TrackTruth], rng: np.random.Generator) -> np.ndarray:
        """Hit positions (n_tracks, n_planes): truth + misalignment + smear."""
        x0 = np.array([track.x0 for track in tracks])
        slope = np.array([track.slope for track in tracks])
        truth = x0[:, None] + slope[:, None] * self.plane_z
        smear = rng.normal(0.0, self.config.wire_resolution_cm, size=truth.shape)
        return (truth + self.misalignment + smear).astype(np.float32)

    def generate_event(
        self, run_number: int, event_number: int, rng: np.random.Generator
    ) -> Tuple[Event, EventTruth]:
        """One collision event plus its generator-level truth."""
        n_tracks = self._sample_multiplicity(rng)
        tracks = self._sample_tracks(n_tracks, rng)
        hits = self.measure(tracks, rng)
        trigger = np.array([n_tracks, run_number % 7], dtype=np.int32)
        adc = rng.integers(
            0, 256, size=n_tracks * self.config.adc_bytes_per_track, dtype=np.uint8
        )
        event = Event(
            run_number=run_number,
            event_number=event_number,
            asus={
                ASU_HITS: array_asu(ASU_HITS, hits),
                ASU_TRIGGER: array_asu(ASU_TRIGGER, trigger),
                ASU_ADC: array_asu(ASU_ADC, adc),
            },
        )
        return event, EventTruth(event_number=event_number, tracks=tracks)

    def generate_run(
        self,
        run_number: int,
        start_time: float,
        seed: int,
        events_scale: float = 0.001,
    ) -> Tuple[Run, List[Event], List[EventTruth]]:
        """A full run: 45–60 min, 15K–300K events scaled by ``events_scale``."""
        if not 0 < events_scale <= 1:
            raise EventStoreError("events_scale must be in (0, 1]")
        rng = np.random.default_rng(seed)
        duration = Duration.minutes(float(rng.uniform(45, 60)))
        nominal_events = int(rng.integers(15_000, 300_000))
        event_count = max(1, int(nominal_events * events_scale))
        events: List[Event] = []
        truths: List[EventTruth] = []
        for event_number in range(event_count):
            event, truth = self.generate_event(run_number, event_number, rng)
            events.append(event)
            truths.append(truth)
        run = Run.create(
            number=run_number,
            start_time=start_time,
            duration=duration,
            event_count=event_count,
            conditions={
                "beam_energy": "5.29GeV",
                "nominal_events": nominal_events,
                "events_scale": events_scale,
            },
        )
        return run, events, truths


def hits_of(event: Event) -> np.ndarray:
    """Decode the hits ASU of a raw event."""
    return asu_array(event.asu(ASU_HITS))
