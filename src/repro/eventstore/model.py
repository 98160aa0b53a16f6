"""EventStore data model: runs, events, and atomic storage units.

From the paper:

* "A run is the set of records collected continuously over a period of
  time (typically between 45 and 60 minutes), under (nominally) constant
  detector conditions.  A run worth analyzing typically comprises between
  15K and 300K particle collision events."
* "An atomic storage unit (ASU) is the smallest storable sub-object of an
  event.  An ASU will never be split into component objects for storage
  purposes."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.errors import EventStoreError
from repro.core.units import DataSize, Duration

# Canonical data kinds flowing through Figure 2.
KIND_RAW = "raw"
KIND_RECON = "recon"
KIND_POSTRECON = "postrecon"
KIND_MC = "mc"
DATA_KINDS = (KIND_RAW, KIND_RECON, KIND_POSTRECON, KIND_MC)


@dataclass(frozen=True)
class Run:
    """One continuous data-taking period under constant conditions."""

    number: int
    start_time: float
    duration: Duration
    event_count: int
    conditions: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.number <= 0:
            raise EventStoreError(f"run numbers are positive, got {self.number}")
        if self.event_count < 0:
            raise EventStoreError("event count cannot be negative")

    @classmethod
    def create(
        cls,
        number: int,
        start_time: float,
        duration: Duration,
        event_count: int,
        conditions: Optional[Mapping[str, object]] = None,
    ) -> "Run":
        frozen = tuple(sorted((str(k), str(v)) for k, v in (conditions or {}).items()))
        return cls(
            number=number,
            start_time=start_time,
            duration=duration,
            event_count=event_count,
            conditions=frozen,
        )

    @property
    def condition_map(self) -> Dict[str, str]:
        return dict(self.conditions)


@dataclass
class ASU:
    """Atomic storage unit: a named, indivisible sub-object of an event."""

    name: str
    payload: bytes

    def __post_init__(self) -> None:
        if not self.name:
            raise EventStoreError("ASU name must be non-empty")
        if not isinstance(self.payload, (bytes, bytearray)):
            raise EventStoreError(
                f"ASU payload must be bytes, got {type(self.payload).__name__}"
            )
        self.payload = bytes(self.payload)

    @property
    def size(self) -> DataSize:
        return DataSize.from_bytes(len(self.payload))


@dataclass
class Event:
    """One collision event: a run-scoped id plus its ASUs."""

    run_number: int
    event_number: int
    asus: Dict[str, ASU] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.event_number < 0:
            raise EventStoreError("event numbers are non-negative")
        for name, asu in self.asus.items():
            if name != asu.name:
                raise EventStoreError(
                    f"ASU keyed {name!r} but named {asu.name!r} in event "
                    f"{self.run_number}/{self.event_number}"
                )

    def add(self, asu: ASU) -> None:
        if asu.name in self.asus:
            raise EventStoreError(
                f"event {self.run_number}/{self.event_number} already has "
                f"ASU {asu.name!r}"
            )
        self.asus[asu.name] = asu

    def asu(self, name: str) -> ASU:
        try:
            return self.asus[name]
        except KeyError:
            raise EventStoreError(
                f"event {self.run_number}/{self.event_number} has no ASU {name!r}"
            ) from None

    def project(self, names: Iterable[str]) -> "Event":
        """A shallow copy carrying only the named ASUs (column projection)."""
        wanted = set(names)
        return Event(
            run_number=self.run_number,
            event_number=self.event_number,
            asus={name: asu for name, asu in self.asus.items() if name in wanted},
        )

    @property
    def size(self) -> DataSize:
        return DataSize.from_bytes(sum(len(asu.payload) for asu in self.asus.values()))

    @property
    def asu_names(self) -> List[str]:
        return sorted(self.asus)


def run_key(run_number: int) -> str:
    """Grade-history key for a single run."""
    return f"run:{run_number}"


def run_range_key(first: int, last: int) -> str:
    """Grade-history key for an inclusive run range."""
    if first > last:
        raise EventStoreError(f"bad run range {first}-{last}")
    return f"runs:{first}-{last}"


def parse_run_key(key: str) -> Tuple[int, int]:
    """Expand a grade key into its inclusive (first, last) run interval."""
    try:
        if key.startswith("run:"):
            number = int(key[len("run:"):])
            return number, number
        if key.startswith("runs:"):
            first_text, _, last_text = key[len("runs:"):].partition("-")
            first, last = int(first_text), int(last_text)
            if first > last:
                raise EventStoreError(f"bad run range {first}-{last} in key {key!r}")
            return first, last
    except ValueError:
        pass
    raise EventStoreError(f"unrecognized run key {key!r}")
