"""Physical media shipment — the sneakernet.

"We therefore have developed a system based on transport of physical ATA
disks with raw data" (Arecibo) and "the simulation data are moved by
shipping physical USB disk drives to Cornell" (CLEO).  The model accounts
for everything the paper says makes this labour-intensive: copying data to
media, packing/labelling, courier transit, read-back verification on
arrival, and retransmission of damaged media.
"""

from __future__ import annotations

import itertools
import math
import random
from copy import copy
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.errors import TransportError
from repro.core.faults import FaultInjector, delay_seconds
from repro.core.resources import CostLedger, PersonnelModel
from repro.core.telemetry import Telemetry
from repro.core.units import DataSize, Duration, Rate
from repro.storage.media import ATA_DISK_2005, MediaType, StoredFile, checksum_for
from repro.transport.integrity import (
    DeliveryReport,
    Manifest,
    damage_in_transit,
    verify_delivery,
)

# Human handling per medium: label, log, pack on dispatch; unpack, log,
# shelve on arrival.
_HANDLING_MINUTES_PER_MEDIUM = 10.0
# Fixed per-shipment paperwork and courier drop-off/pick-up.
_HANDLING_MINUTES_PER_SHIPMENT = 45.0


@dataclass(frozen=True)
class ShipmentSpec:
    """Parameters of a recurring shipping lane."""

    name: str
    media_type: MediaType = ATA_DISK_2005
    transit_time: Duration = field(default_factory=lambda: Duration.days(3))
    copy_stations: int = 4
    shipping_cost_per_package: float = 120.0
    media_per_package: int = 10
    corruption_prob: float = 0.01
    loss_prob: float = 0.002

    def __post_init__(self) -> None:
        if self.copy_stations <= 0:
            raise TransportError("need at least one copy station")
        if self.media_per_package <= 0:
            raise TransportError("need at least one medium per package")
        # Fail fast on bad damage models: a lane with corruption_prob=1.2
        # used to sail through construction and only blow up (or silently
        # misbehave) inside damage_in_transit once files were in flight.
        if not 0.0 <= self.corruption_prob <= 1.0:
            raise TransportError(
                f"lane {self.name!r}: corruption_prob must be within [0, 1], "
                f"got {self.corruption_prob}"
            )
        if not 0.0 <= self.loss_prob <= 1.0:
            raise TransportError(
                f"lane {self.name!r}: loss_prob must be within [0, 1], "
                f"got {self.loss_prob}"
            )

    def media_needed(self, volume: DataSize) -> int:
        return max(1, math.ceil(volume.bytes / self.media_type.capacity.bytes))

    def copy_time(self, volume: DataSize) -> Duration:
        """Time to write the outgoing media, using all copy stations."""
        per_station = DataSize(volume.bytes / self.copy_stations)
        return per_station / self.media_type.write_rate

    def verify_time(self, volume: DataSize) -> Duration:
        """Read-back checksum pass on arrival, same parallelism."""
        per_station = DataSize(volume.bytes / self.copy_stations)
        return per_station / self.media_type.read_rate

    def handling_time(self, media_count: int) -> Duration:
        packages = math.ceil(media_count / self.media_per_package)
        return Duration.minutes(
            _HANDLING_MINUTES_PER_MEDIUM * media_count
            + _HANDLING_MINUTES_PER_SHIPMENT * packages
        )

    def one_way_time(self, volume: DataSize) -> Duration:
        """Dispatch-to-verified elapsed time for one shipment of ``volume``."""
        media_count = self.media_needed(volume)
        return (
            self.copy_time(volume)
            + self.handling_time(media_count)
            + self.transit_time
            + self.verify_time(volume)
        )

    def effective_throughput(self, volume: DataSize) -> Rate:
        """Volume over end-to-end elapsed time — the "bandwidth of a truck"."""
        return Rate.per(volume, self.one_way_time(volume))

    def pipelined_throughput(self, volume_per_shipment: DataSize) -> Rate:
        """Steady-state rate when shipments overlap (one dispatched per cycle).

        With shipments in flight continuously, throughput is bounded by the
        slowest serial resource — the copy stations — not by transit time.
        """
        cycle = self.copy_time(volume_per_shipment) + self.handling_time(
            self.media_needed(volume_per_shipment)
        )
        return Rate.per(volume_per_shipment, cycle)


@dataclass
class ShipmentResult:
    """Outcome of executing one shipment, including retransmissions."""

    shipment_id: str
    volume: DataSize
    media_used: int
    attempts: int
    elapsed: Duration
    personnel_time: Duration
    report: DeliveryReport
    cost: float


@dataclass
class LaneStats:
    """Lifetime operation counters for one lane."""

    shipments: int = 0
    attempts: int = 0
    media_shipped: int = 0
    media_retransmitted: int = 0
    bytes_shipped: float = 0.0
    files_delivered: int = 0
    files_corrupt: int = 0
    files_missing: int = 0
    personnel_time: Duration = Duration.zero()


#: Default seed for a lane's damage/transit RNG when the caller does not
#: supply one.  Explicit so a standalone lane replays the same damage
#: sequence every run; the pipelines pass ``random.Random(config.seed)``.
DEFAULT_LANE_SEED = 0


class ShippingLane:
    """A recurring physical-transport operation between two sites.

    Lifetime accounting: each lane keeps one :class:`LaneStats`, bumped
    in place, and publishes ``transfer.start``/``transfer.finish`` events
    per shipment; the :attr:`stats` property is a copy of those books.
    """

    def __init__(
        self,
        spec: ShipmentSpec,
        personnel: Optional[PersonnelModel] = None,
        rng: Optional[random.Random] = None,
        telemetry: Optional[Telemetry] = None,
        faults: Optional[FaultInjector] = None,
    ):
        self.spec = spec
        self.personnel = personnel if personnel is not None else PersonnelModel()
        self.rng = rng if rng is not None else random.Random(DEFAULT_LANE_SEED)
        self.ledger = CostLedger()
        self._stats = LaneStats()
        self._telemetry = telemetry if telemetry is not None else Telemetry()
        #: Armed fault injector shared with the rest of the run (or None).
        #: ``ship`` consults it once per dispatch attempt under scope
        #: ``"lane"``, target = the lane name: ``"crash"`` aborts the
        #: shipment before anything moves (a lost courier, retried at the
        #: stage level), ``"delay"`` stretches transit, and ``"corrupt"``/
        #: ``"drop"`` damage the leading media of the attempt — caught by
        #: manifest verification and retransmitted like organic damage.
        self.faults = faults
        #: Numbers this lane's shipments ``ship-00001``, ``ship-00002``, ...
        #: so a shipment's id depends on the lane's history alone.
        self._shipment_ids = itertools.count(1)

    @property
    def stats(self) -> LaneStats:
        """A snapshot of the lifetime counters: later shipments do not move it."""
        return copy(self._stats)

    def _files_for(self, shipment_id: str, volume: DataSize) -> List[StoredFile]:
        """Split a volume across media-sized files for manifest purposes."""
        media_count = self.spec.media_needed(volume)
        per_medium = DataSize(volume.bytes / media_count)
        files = []
        for index in range(media_count):
            name = f"{shipment_id}-disk{index:03d}"
            files.append(
                StoredFile(name=name, size=per_medium, checksum=checksum_for(name, per_medium))
            )
        return files

    def ship(self, volume: DataSize, max_attempts: int = 4) -> ShipmentResult:
        """Execute a shipment, retransmitting damaged/lost media as needed."""
        if volume.bytes <= 0:
            raise TransportError("cannot ship an empty volume")
        # Consult the injector before anything moves or any counter bumps,
        # so a "crash" fault (lost courier, failed pickup) leaves no
        # partial state behind for a stage-level retry to trip over.
        injected = (
            self.faults.check("lane", self.spec.name) if self.faults is not None else []
        )
        injected_stall = Duration(delay_seconds(injected))
        shipment_id = f"ship-{next(self._shipment_ids):05d}"
        outgoing = self._files_for(shipment_id, volume)
        manifest = Manifest.for_files(shipment_id, outgoing)
        media_count = len(outgoing)
        self._telemetry.emit(
            "transfer.start",
            shipment_id,
            lane=self.spec.name,
            bytes=volume.bytes,
            media=media_count,
            mode="sneakernet",
        )

        elapsed = Duration.zero()
        personnel_time = Duration.zero()
        cost = 0.0
        pending = list(outgoing)
        received: List[StoredFile] = []
        attempts = 0
        report = DeliveryReport(shipment_id=shipment_id)

        while pending:
            attempts += 1
            if attempts > max_attempts:
                raise TransportError(
                    f"shipment {shipment_id}: {len(pending)} media still bad "
                    f"after {max_attempts} attempts"
                )
            self._stats.attempts += 1
            self._stats.media_shipped += len(pending)
            if attempts > 1:
                self._stats.media_retransmitted += len(pending)
            batch_volume = DataSize(sum(file.size.bytes for file in pending))
            self._stats.bytes_shipped += batch_volume.bytes
            handling = self.spec.handling_time(len(pending))
            elapsed += (
                self.spec.copy_time(batch_volume)
                + handling
                + self.spec.transit_time
                + self.spec.verify_time(batch_volume)
            )
            personnel_time += handling
            packages = math.ceil(len(pending) / self.spec.media_per_package)
            cost += self.spec.shipping_cost_per_package * packages

            arrived = damage_in_transit(
                pending, self.spec.corruption_prob, self.spec.loss_prob, self.rng
            )
            if attempts == 1 and injected:
                elapsed += injected_stall
                for record in injected:
                    count = max(1, int(record.param)) if record.param else 1
                    if record.kind == "corrupt":
                        for file in arrived[:count]:
                            file.corrupt()
                    elif record.kind == "drop":
                        del arrived[:count]
            # The manifest check sees this attempt's arrivals, damaged ones
            # too, beside the media already delivered intact; only intact
            # media stay received.  (``arrived`` holds pending media only.)
            report = verify_delivery(manifest, received + arrived, telemetry=self._telemetry)
            received.extend(f for f in arrived if f.verify())
            self._stats.files_corrupt += len(report.corrupt)
            self._stats.files_missing += len(report.missing)
            pending = [file for file in outgoing if file.name in report.needs_retransmission()]

        self._stats.shipments += 1
        self._stats.files_delivered += len(report.delivered)
        self._stats.personnel_time += personnel_time
        self._telemetry.emit(
            "transfer.finish",
            shipment_id,
            lane=self.spec.name,
            bytes=volume.bytes,
            media=media_count,
            attempts=attempts,
            elapsed_s=elapsed.seconds,
            clean=report.clean,
            mode="sneakernet",
        )
        personnel_cost = self.personnel.cost(personnel_time)
        cost += personnel_cost
        cost += self.spec.media_type.unit_cost * media_count  # media pool amortization
        self.ledger.charge("shipping", cost - personnel_cost, shipment_id)
        self.ledger.charge("personnel", personnel_cost, shipment_id)
        return ShipmentResult(
            shipment_id=shipment_id,
            volume=volume,
            media_used=media_count,
            attempts=attempts,
            elapsed=elapsed,
            personnel_time=personnel_time,
            report=report,
            cost=cost,
        )


# Reference lanes from the paper.
ARECIBO_TO_CTC = ShipmentSpec(
    name="Arecibo -> CTC (ATA disks)",
    media_type=ATA_DISK_2005,
    transit_time=Duration.days(3),
    copy_stations=4,
)
