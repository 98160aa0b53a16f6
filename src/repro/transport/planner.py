"""Transport planning: network vs. physical shipment.

The paper observes that "the currently available best solutions are very
different in nature, mostly determined by bandwidth considerations and
cost: physical disk transfer vs. a dedicated link to Internet2".  The
planner makes that determination explicit: given a volume, candidate links,
and a shipping lane, it ranks the options by completion time (or cost) and
computes the crossover bandwidth above which the network wins — experiment
C1's headline number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.errors import TransportError
from repro.core.units import DataSize, Duration, Rate
from repro.transport.network import NetworkLink
from repro.transport.sneakernet import ShipmentSpec

# Cost constants for network options: amortized share of a dedicated link.
_LINK_COST_PER_MBPS_MONTH = 30.0


@dataclass(frozen=True)
class TransportOption:
    """One evaluated way of moving a volume."""

    mode: str  # "network" or "sneakernet"
    name: str
    elapsed: Duration
    effective_rate: Rate
    cost: float

    def summary(self) -> str:
        return (
            f"{self.mode:10s} {self.name:35s} {str(self.elapsed):>12s} "
            f"{self.effective_rate.gb_per_day:10.1f} GB/day  ${self.cost:,.0f}"
        )


def evaluate_network(volume: DataSize, link: NetworkLink) -> TransportOption:
    """Cost/time of saturating one link with this volume."""
    elapsed = link.transfer_time(volume)
    months = max(1.0, elapsed.days_ / 30.0)
    cost = _LINK_COST_PER_MBPS_MONTH * link.nominal.mbps * months
    return TransportOption(
        mode="network",
        name=link.name,
        elapsed=elapsed,
        effective_rate=Rate.per(volume, elapsed),
        cost=cost,
    )


def evaluate_sneakernet(volume: DataSize, spec: ShipmentSpec) -> TransportOption:
    """Cost/time of one physical shipment of this volume."""
    elapsed = spec.one_way_time(volume)
    media_count = spec.media_needed(volume)
    packages = math.ceil(media_count / spec.media_per_package)
    handling_hours = spec.handling_time(media_count).hours_
    cost = (
        spec.media_type.unit_cost * media_count
        + spec.shipping_cost_per_package * packages
        + 40.0 * handling_hours  # default personnel rate
    )
    return TransportOption(
        mode="sneakernet",
        name=spec.name,
        elapsed=elapsed,
        effective_rate=spec.effective_throughput(volume),
        cost=cost,
    )


class TransportPlanner:
    """Ranks transport options for a given volume."""

    def __init__(
        self,
        links: Sequence[NetworkLink] = (),
        lanes: Sequence[ShipmentSpec] = (),
    ):
        if not links and not lanes:
            raise TransportError("planner needs at least one transport option")
        self.links = list(links)
        self.lanes = list(lanes)

    def evaluate(self, volume: DataSize) -> List[TransportOption]:
        """All options, fastest first."""
        if volume.bytes <= 0:
            raise TransportError("cannot plan transport of an empty volume")
        options = [evaluate_network(volume, link) for link in self.links]
        options.extend(evaluate_sneakernet(volume, lane) for lane in self.lanes)
        return sorted(options, key=lambda option: option.elapsed.seconds)

    def fastest(self, volume: DataSize) -> TransportOption:
        return self.evaluate(volume)[0]

    def best(self, volume: DataSize, deadline: Optional[Duration] = None) -> TransportOption:
        """Cheapest option meeting the deadline (fastest if none meets it)."""
        options = self.evaluate(volume)
        if deadline is not None:
            feasible = [opt for opt in options if opt.elapsed.seconds <= deadline.seconds]
            if feasible:
                return min(feasible, key=lambda option: option.cost)
        return options[0]


def crossover_bandwidth(
    volume: DataSize,
    spec: ShipmentSpec,
    efficiency: float = 0.8,
    tolerance_mbps: float = 0.1,
) -> Rate:
    """Nominal link bandwidth at which the network matches the sneakernet.

    Below the returned rate, shipping disks delivers the volume sooner;
    above it, the network wins.  Solved by bisection on nominal Mb/s.

    Raises :class:`TransportError` when no crossover exists in the
    searchable range: either the volume is so small that even a 0.01 Mb/s
    trickle beats the shipment's fixed transit time (the bracket has no
    lower end), or so large that not even a petabit link catches the truck.
    """
    target = spec.one_way_time(volume).seconds
    if target <= 0:
        raise TransportError("shipment time must be positive")

    def network_seconds(mbps: float) -> float:
        link = NetworkLink(name="probe", nominal=Rate.megabits_per_second(mbps),
                           efficiency=efficiency)
        return link.transfer_time(volume).seconds

    low, high = 0.01, 0.02
    if network_seconds(low) <= target:
        raise TransportError(
            f"no crossover above {low} Mb/s: even that link moves {volume} "
            f"faster than the {spec.name!r} shipment; volume too small for "
            "a meaningful sneakernet comparison"
        )
    while network_seconds(high) > target:
        high *= 2
        if high > 1e9:
            raise TransportError("no crossover below 1 Pb/s; shipment model degenerate")
    while high - low > tolerance_mbps:
        mid = (low + high) / 2
        if network_seconds(mid) > target:
            low = mid
        else:
            high = mid
    return Rate.megabits_per_second(high)
