"""Network links and fair-share transfer simulation.

Models the connectivity the paper discusses: Arecibo's thin uplink ("for
the foreseeable future, network transport of raw data is infeasible"), the
WebLab's dedicated 100 Mb/s Internet2 connection ("which can easily be
upgraded to 500 Mb/sec"), and the TeraGrid.  Links have a protocol
efficiency factor (TCP never delivers nominal line rate) and can be shared,
in which case concurrent transfers split capacity processor-sharing style.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.errors import TransportError
from repro.core.telemetry import Telemetry
from repro.core.units import DataSize, Duration, Rate


@dataclass(frozen=True)
class NetworkLink:
    """One hop with a nominal line rate and a protocol efficiency."""

    name: str
    nominal: Rate
    latency: Duration = field(default_factory=Duration.zero)
    efficiency: float = 0.7

    def __post_init__(self) -> None:
        if not 0.0 < self.efficiency <= 1.0:
            raise TransportError(f"link {self.name!r}: efficiency must be in (0, 1]")
        if self.nominal.bytes_per_second <= 0:
            raise TransportError(f"link {self.name!r}: nominal rate must be positive")

    @property
    def effective(self) -> Rate:
        """Achievable application-level throughput."""
        return self.nominal * self.efficiency

    def transfer_time(self, size: DataSize) -> Duration:
        return self.latency + size / self.effective

    def daily_volume(self) -> DataSize:
        """How much one day of saturation moves (the 250 GB/day arithmetic)."""
        return self.effective * Duration.days(1)


# -- reference links ---------------------------------------------------------
ARECIBO_UPLINK = NetworkLink(
    name="Arecibo uplink",
    # The observatory's shared connection to the mainland, mid-2000s.
    nominal=Rate.megabits_per_second(10),
    latency=Duration.from_seconds(0.08),
    efficiency=0.5,
)

INTERNET2_100 = NetworkLink(
    name="Internet2 dedicated 100 Mb/s",
    nominal=Rate.megabits_per_second(100),
    latency=Duration.from_seconds(0.07),
    efficiency=0.8,
)

INTERNET2_500 = NetworkLink(
    name="Internet2 dedicated 500 Mb/s",
    nominal=Rate.megabits_per_second(500),
    latency=Duration.from_seconds(0.07),
    efficiency=0.8,
)

TERAGRID = NetworkLink(
    name="TeraGrid 10 Gb/s",
    nominal=Rate.gigabits_per_second(10),
    latency=Duration.from_seconds(0.06),
    efficiency=0.7,
)

CAMPUS_LAN = NetworkLink(
    name="campus LAN 1 Gb/s",
    nominal=Rate.gigabits_per_second(1),
    latency=Duration.from_seconds(0.001),
    efficiency=0.9,
)


# -- fair-share transfer simulation -------------------------------------------
@dataclass
class TransferRequest:
    """One transfer submitted to a shared link."""

    name: str
    size: DataSize
    start: Duration = field(default_factory=Duration.zero)


@dataclass
class TransferResult:
    name: str
    start: Duration
    finish: Duration

    @property
    def elapsed(self) -> Duration:
        return Duration(self.finish.seconds - self.start.seconds)


def simulate_shared_transfers(
    link: NetworkLink,
    requests: Sequence[TransferRequest],
    telemetry: Optional[Telemetry] = None,
) -> List[TransferResult]:
    """Processor-sharing simulation of concurrent transfers on one link.

    Active transfers split the link's effective rate equally.  This is what
    makes the Arecibo uplink argument quantitative: it is not just slow, it
    is *shared* with observatory operations, so bulk raw-data transfers
    degrade everything else and stretch unboundedly.

    When ``telemetry`` is given, each transfer publishes paired
    ``transfer.start``/``transfer.finish`` events once the simulation
    completes (ordered by request submission / completion, with the
    simulated start/finish offsets carried as attributes).
    """
    if not requests:
        return []
    capacity = link.effective.bytes_per_second
    remaining: Dict[str, float] = {}
    started: Dict[str, float] = {}
    results: List[TransferResult] = []
    arrivals = sorted(requests, key=lambda r: r.start.seconds)
    if len({r.name for r in arrivals}) != len(arrivals):
        raise TransportError("transfer request names must be unique")
    next_arrival = 0
    now = arrivals[0].start.seconds

    while next_arrival < len(arrivals) or remaining:
        # Admit all arrivals at or before now.
        while next_arrival < len(arrivals) and arrivals[next_arrival].start.seconds <= now:
            request = arrivals[next_arrival]
            remaining[request.name] = request.size.bytes
            started[request.name] = request.start.seconds
            next_arrival += 1
        if not remaining:
            now = arrivals[next_arrival].start.seconds
            continue
        per_flow = capacity / len(remaining)
        # Time until the first of: a flow finishes, or a new arrival.
        to_finish = min(remaining.values()) / per_flow
        horizon = now + to_finish
        if next_arrival < len(arrivals):
            horizon = min(horizon, arrivals[next_arrival].start.seconds)
        delta = horizon - now
        for name in list(remaining):
            remaining[name] -= per_flow * delta
            if remaining[name] <= 1e-6:
                results.append(
                    TransferResult(
                        name=name,
                        start=Duration(started[name]),
                        finish=Duration(horizon + link.latency.seconds),
                    )
                )
                del remaining[name]
        now = horizon

    results.sort(key=lambda result: result.finish.seconds)
    if telemetry is not None:
        sizes = {request.name: request.size.bytes for request in requests}
        for request in arrivals:
            telemetry.emit(
                "transfer.start",
                request.name,
                link=link.name,
                bytes=request.size.bytes,
                start_s=request.start.seconds,
                mode="network",
            )
        for result in results:
            telemetry.emit(
                "transfer.finish",
                result.name,
                link=link.name,
                bytes=sizes[result.name],
                finish_s=result.finish.seconds,
                elapsed_s=result.elapsed.seconds,
                mode="network",
            )
    return results
