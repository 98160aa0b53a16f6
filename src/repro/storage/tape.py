"""Robotic tape library.

"The raw data disks are transported to the CTC, where their contents are
archived to a robotic tape system and retrieved for processing."  The model
captures what matters for flow planning: cartridges are cheap and plentiful
but access pays a mount latency, the robot has a limited number of drives,
and sequential append is the natural write mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.errors import StorageError
from repro.core.faults import FaultInjector, delay_seconds
from repro.core.telemetry import MetricsRegistry, Telemetry, registry_view
from repro.core.units import DataSize, Duration
from repro.storage.media import LTO3_TAPE, MediaType, Medium, StoredFile, checksum_for


@dataclass
class TapeStats:
    """Operation counters for a library (a registry snapshot view)."""

    writes: int = 0
    reads: int = 0
    mounts: int = 0
    bytes_written: float = 0.0
    bytes_read: float = 0.0
    busy_time: Duration = field(
        default=Duration.zero(), metadata={"instrument": "busy_seconds"}
    )


class RoboticTapeLibrary:
    """A tape robot: unbounded cartridge slots, few drives.

    Writes append to the currently mounted "fill" cartridge, starting a new
    one when full (cartridges are auto-purchased; media cost is tracked so
    archive economics can be computed).  Reads mount whichever cartridge
    holds the file; consecutive reads from the mounted cartridge skip the
    mount latency, which is why the Arecibo pipeline batches its recalls.
    """

    def __init__(
        self,
        name: str,
        media_type: MediaType = LTO3_TAPE,
        drives: int = 2,
        telemetry: Optional[Telemetry] = None,
        faults: Optional[FaultInjector] = None,
    ):
        if drives <= 0:
            raise StorageError("library needs at least one drive")
        self.name = name
        self.media_type = media_type
        self.drives = drives
        self._cartridges: List[Medium] = []
        self._locations: Dict[str, Medium] = {}
        self._mounted: Optional[Medium] = None
        self._fill: Optional[Medium] = None
        self.metrics = MetricsRegistry()
        self._telemetry = telemetry if telemetry is not None else Telemetry()
        #: Armed fault injector shared with the rest of the run (or None).
        #: Operations consult it under scope ``"storage"`` with targets
        #: ``"<library>/archive"`` and ``"<library>/recall"``: ``"crash"``
        #: raises before any state mutates, ``"delay"`` charges extra
        #: simulated mount/transfer stall, and ``"corrupt"`` (recall only)
        #: hands back a corrupted copy for integrity checks to catch.
        self.faults = faults

    def _consult_faults(self, operation: str) -> tuple[Duration, bool]:
        """Fire the injector for one operation; returns (stall, corrupt)."""
        if self.faults is None:
            return Duration.zero(), False
        records = self.faults.check("storage", f"{self.name}/{operation}")
        corrupt = any(record.kind == "corrupt" for record in records)
        return Duration(delay_seconds(records)), corrupt

    @property
    def stats(self) -> TapeStats:
        """Operation counters, read from the metrics registry."""
        return registry_view(self.metrics, TapeStats, "tape")

    # -- inventory ---------------------------------------------------------
    @property
    def cartridge_count(self) -> int:
        return len(self._cartridges)

    def holds(self, name: str) -> bool:
        return name in self._locations

    def _new_cartridge(self) -> Medium:
        cartridge = Medium(
            media_type=self.media_type,
            label=f"{self.name}-tape-{len(self._cartridges) + 1:05d}",
        )
        self._cartridges.append(cartridge)
        return cartridge

    def _mount(self, cartridge: Medium) -> Duration:
        if self._mounted is cartridge:
            return Duration.zero()
        self._mounted = cartridge
        self.metrics.counter("tape.mounts").inc()
        return self.media_type.mount_latency

    # -- operations ----------------------------------------------------------
    def archive(self, name: str, size: DataSize, content_tag: str = "") -> Duration:
        """Append a file to tape; returns the simulated elapsed time."""
        stall, _ = self._consult_faults("archive")
        if name in self._locations:
            raise StorageError(f"library {self.name!r} already archived {name!r}")
        if size.bytes > self.media_type.capacity.bytes:
            raise StorageError(
                f"{name!r} ({size}) exceeds one cartridge "
                f"({self.media_type.capacity}); split before archiving"
            )
        if self._fill is None or self._fill.free.bytes < size.bytes:
            self._fill = self._new_cartridge()
        elapsed = self._mount(self._fill)
        file = StoredFile(
            name=name,
            size=size,
            checksum=checksum_for(name, size, content_tag),
            content_tag=content_tag,
        )
        # Medium.store includes mount latency via write_time; we account
        # mounts separately, so only add transfer time here.
        self._fill.files.append(file)
        elapsed += size / self.media_type.write_rate
        elapsed += stall
        self._locations[name] = self._fill
        self.metrics.counter("tape.writes").inc()
        self.metrics.counter("tape.bytes_written").inc(size.bytes)
        self.metrics.gauge("tape.busy_seconds").add(elapsed.seconds)
        self._telemetry.emit(
            "storage.write",
            name,
            store=self.name,
            bytes=size.bytes,
            elapsed_s=elapsed.seconds,
            medium="tape",
        )
        return elapsed

    def recall(self, name: str) -> tuple[StoredFile, Duration]:
        """Read a file back; returns (file, simulated elapsed time)."""
        stall, corrupt = self._consult_faults("recall")
        cartridge = self._locations.get(name)
        if cartridge is None:
            raise StorageError(f"library {self.name!r} has no file {name!r}")
        if cartridge.failed:
            raise StorageError(f"cartridge holding {name!r} has failed")
        elapsed = self._mount(cartridge)
        file = cartridge.fetch(name)
        if corrupt:
            # Hand back a corrupted copy (a bad read), leaving the archived
            # original intact so a re-read can succeed.
            damaged = StoredFile(
                name=file.name,
                size=file.size,
                checksum=file.checksum,
                content_tag=file.content_tag,
            )
            damaged.corrupt()
            file = damaged
        elapsed += file.size / self.media_type.read_rate
        elapsed += stall
        self.metrics.counter("tape.reads").inc()
        self.metrics.counter("tape.bytes_read").inc(file.size.bytes)
        self.metrics.gauge("tape.busy_seconds").add(elapsed.seconds)
        self._telemetry.emit(
            "storage.recall",
            name,
            store=self.name,
            bytes=file.size.bytes,
            elapsed_s=elapsed.seconds,
            medium="tape",
        )
        return file, elapsed

    def recall_batch(self, names: List[str]) -> tuple[List[StoredFile], Duration]:
        """Recall many files, ordered to minimize mounts (cartridge-major)."""
        missing = [name for name in names if name not in self._locations]
        if missing:
            raise StorageError(f"library {self.name!r} missing files: {missing}")
        by_cartridge: Dict[str, List[str]] = {}
        for name in names:
            by_cartridge.setdefault(self._locations[name].label, []).append(name)
        files: List[StoredFile] = []
        total = Duration.zero()
        for cartridge_names in by_cartridge.values():
            for name in cartridge_names:
                file, elapsed = self.recall(name)
                files.append(file)
                total += elapsed
        return files, total

    def fail_cartridge(self, index: int) -> List[str]:
        """Fail one cartridge; returns names of files lost."""
        cartridge = self._cartridges[index]
        cartridge.fail()
        lost = sorted(
            name for name, location in self._locations.items() if location is cartridge
        )
        for name in lost:
            del self._locations[name]
        if self._fill is cartridge:
            self._fill = None
        if self._mounted is cartridge:
            self._mounted = None
        return lost

