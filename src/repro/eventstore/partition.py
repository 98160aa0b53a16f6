"""Hot/warm/cold ASU partitioning.

"CLEO data are partitioned into hot, warm and cold storage units.  This is
a column-wise split of the event into groups of ASUs, based on usage
patterns.  The hot data are those components of an event most frequently
accessed during physics analysis.  These ASUs are typically small compared
with the less frequently accessed ASUs."

This module derives a partitioning from recorded access patterns and
materializes it as one event file per temperature, so an analysis touching
only hot ASUs reads only the (small) hot file — the effect quantified by
experiment C7.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from repro.core.errors import EventStoreError
from repro.core.provenance import ProvenanceStamp
from repro.core.units import DataSize
from repro.eventstore.fileformat import FileHeader, open_event_file, write_event_file
from repro.eventstore.model import Event

TEMPERATURES = ("hot", "warm", "cold")


class AccessProfile:
    """Records which ASUs each analysis touched."""

    def __init__(self) -> None:
        self._touches: Counter = Counter()
        self.analyses = 0

    def record(self, asu_names: Iterable[str]) -> None:
        """Log one analysis's ASU working set."""
        names = set(asu_names)
        if not names:
            raise EventStoreError("an analysis touches at least one ASU")
        self.analyses += 1
        self._touches.update(names)

    def frequency(self, name: str) -> float:
        """Fraction of analyses that touched this ASU."""
        if self.analyses == 0:
            return 0.0
        return self._touches[name] / self.analyses


@dataclass(frozen=True)
class PartitionLayout:
    """An assignment of ASU names to temperatures."""

    assignment: Tuple[Tuple[str, str], ...]  # (asu name, temperature)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> "PartitionLayout":
        for name, temperature in mapping.items():
            if temperature not in TEMPERATURES:
                raise EventStoreError(
                    f"ASU {name!r}: unknown temperature {temperature!r}"
                )
        return cls(assignment=tuple(sorted(mapping.items())))

    def temperature_of(self, asu_name: str) -> str:
        for name, temperature in self.assignment:
            if name == asu_name:
                return temperature
        raise EventStoreError(f"layout does not cover ASU {asu_name!r}")

    def asus_at(self, temperature: str) -> List[str]:
        if temperature not in TEMPERATURES:
            raise EventStoreError(f"unknown temperature {temperature!r}")
        return [name for name, temp in self.assignment if temp == temperature]

    def temperatures_for(self, asu_names: Iterable[str]) -> List[str]:
        """The set of storage units an analysis working set must open."""
        return sorted({self.temperature_of(name) for name in asu_names})

    def as_dict(self) -> Dict[str, str]:
        return dict(self.assignment)


def derive_layout(
    profile: AccessProfile,
    all_asus: Iterable[str],
    hot_threshold: float = 0.5,
    warm_threshold: float = 0.1,
) -> PartitionLayout:
    """Assign temperatures from access frequencies.

    ASUs touched by at least ``hot_threshold`` of analyses are hot; at
    least ``warm_threshold``, warm; anything rarer (or never seen), cold.
    """
    if not 0.0 <= warm_threshold <= hot_threshold <= 1.0:
        raise EventStoreError("thresholds must satisfy 0 <= warm <= hot <= 1")
    mapping: Dict[str, str] = {}
    for name in all_asus:
        frequency = profile.frequency(name)
        if frequency >= hot_threshold:
            mapping[name] = "hot"
        elif frequency >= warm_threshold:
            mapping[name] = "warm"
        else:
            mapping[name] = "cold"
    if not mapping:
        raise EventStoreError("cannot derive a layout over zero ASUs")
    return PartitionLayout.from_mapping(mapping)


def split_events(
    events: Sequence[Event], layout: PartitionLayout
) -> Dict[str, List[Event]]:
    """Project events column-wise into one event list per temperature."""
    by_temperature: Dict[str, List[Event]] = {temp: [] for temp in TEMPERATURES}
    for temperature in TEMPERATURES:
        names = set(layout.asus_at(temperature))
        for event in events:
            by_temperature[temperature].append(event.project(names))
    return by_temperature


@dataclass
class PartitionedRun:
    """One run's events written as one file per temperature."""

    run_number: int
    paths: Dict[str, Path]
    sizes: Dict[str, DataSize]

    def read_size(self, asu_names: Iterable[str], layout: PartitionLayout) -> DataSize:
        """Bytes an analysis must read to cover ``asu_names``."""
        needed = layout.temperatures_for(asu_names)
        return DataSize(sum(self.sizes[temp].bytes for temp in needed))

    def monolithic_size(self) -> DataSize:
        return DataSize(sum(size.bytes for size in self.sizes.values()))

    def events(self, temperatures: Iterable[str]):
        """Stream events merged across the requested temperature files."""
        streams = [
            open_event_file(self.paths[temp]).events() for temp in sorted(set(temperatures))
        ]
        if not streams:
            return
        for parts in zip(*streams):
            merged = Event(
                run_number=parts[0].run_number,
                event_number=parts[0].event_number,
                asus={},
            )
            for part in parts:
                if part.event_number != merged.event_number:
                    raise EventStoreError(
                        "temperature files are misaligned; they must be written "
                        "from the same event sequence"
                    )
                for asu in part.asus.values():
                    merged.add(asu)
            yield merged


def write_partitioned_run(
    directory: Union[str, Path],
    run_number: int,
    events: Sequence[Event],
    layout: PartitionLayout,
    version: str,
    stamp: ProvenanceStamp,
    kind: str = "recon",
) -> PartitionedRun:
    """Write one event file per temperature for a run."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    split = split_events(events, layout)
    paths: Dict[str, Path] = {}
    sizes: Dict[str, DataSize] = {}
    for temperature in TEMPERATURES:
        path = directory / f"run{run_number:06d}_{kind}_{temperature}.evs"
        header = FileHeader(
            run_number=run_number,
            version=version,
            data_kind=kind,
            created_at=0.0,
        )
        write_event_file(path, header, split[temperature], stamp)
        paths[temperature] = path
        sizes[temperature] = DataSize.from_bytes(float(path.stat().st_size))
    return PartitionedRun(run_number=run_number, paths=paths, sizes=sizes)
