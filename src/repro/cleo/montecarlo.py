"""Monte-Carlo simulation matched to data runs.

"Generation of Monte-Carlo simulation data for each run" — MC events are
generated against a run's conditions with a known generator truth, using
the same detector model as real data but a separate random stream.  The
paper notes MC is produced *offsite* and shipped back on USB disks into a
personal EventStore; :func:`produce_offsite_mc` packages exactly that
workflow for the pipeline and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple, Union

import numpy as np

from repro.core.provenance import ProvenanceStamp
from repro.cleo.detector import Detector, EventTruth
from repro.eventstore.model import Event, Run
from repro.eventstore.provenance import stamp_step
from repro.eventstore.scales import PersonalEventStore


@dataclass
class MonteCarloProducer:
    """One release of the MC generator, bound to a detector model."""

    detector: Detector
    release: str
    events_per_data_event: float = 1.0

    @property
    def version(self) -> str:
        return f"MC_{self.release}"

    def generate_for_run(
        self, run: Run, seed: int
    ) -> Tuple[List[Event], List[EventTruth], ProvenanceStamp]:
        """MC sample sized relative to the run's recorded event count."""
        rng = np.random.default_rng(seed)
        count = max(1, int(run.event_count * self.events_per_data_event))
        events: List[Event] = []
        truths: List[EventTruth] = []
        for event_number in range(count):
            event, truth = self.detector.generate_event(run.number, event_number, rng)
            events.append(event)
            truths.append(truth)
        stamp = stamp_step(
            module="MCGen",
            release=self.release,
            params={"run": run.number, "seed": seed, "ratio": self.events_per_data_event},
        )
        return events, truths, stamp


def produce_offsite_mc(
    producer: MonteCarloProducer,
    runs: List[Run],
    staging_dir: Union[str, Path],
    site: str,
    base_seed: int = 0,
) -> PersonalEventStore:
    """Generate MC at a remote site into a fresh personal EventStore.

    "We are implementing a system where these data are stored in a personal
    EventStore as they are produced, shipped to Cornell on USB disks, and
    merged into the collaboration EventStore."  The returned store is the
    thing that goes on the disk; merging it is the caller's (or the
    shipping lane's) job.
    """
    store = PersonalEventStore(Path(staging_dir) / f"mc-{site}", name=f"mc-{site}")
    for index, run in enumerate(runs):
        events, _, stamp = producer.generate_for_run(run, seed=base_seed + index)
        store.inject(run, events, producer.version, "mc", stamp)
    return store
