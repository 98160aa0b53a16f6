"""Resource and cost models.

The paper's engineering decisions are ultimately cost arguments: disk
shipping beats Arecibo's thin network pipe; tape beats disk for a Petabyte
archive; "manpower requirements for migrating the data are significant".
This module provides the small set of cost primitives those arguments need,
with defaults calibrated to mid-2000s constants so the reproduced crossovers
land where the paper's did.  Every constant can be overridden.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.units import DataSize, Duration


@dataclass(frozen=True)
class PersonnelModel:
    """Human effort accounting (the paper's recurring hidden cost)."""

    hourly_cost: float = 40.0

    def cost(self, effort: Duration) -> float:
        return self.hourly_cost * effort.hours_


@dataclass(frozen=True)
class StorageCostModel:
    """Media cost per GB plus yearly upkeep, for archive economics."""

    name: str
    dollars_per_gb: float
    upkeep_dollars_per_gb_year: float = 0.0

    def purchase_cost(self, size: DataSize) -> float:
        return self.dollars_per_gb * size.gb

    def retention_cost(self, size: DataSize, period: Duration) -> float:
        return self.purchase_cost(size) + (
            self.upkeep_dollars_per_gb_year * size.gb * period.years_
        )


# Mid-2000s reference constants.  Tape media were roughly an order of
# magnitude cheaper per GB than enterprise disk, which is what made robotic
# tape the only plausible Petabyte archive.
TAPE_COST_2005 = StorageCostModel("LTO tape", dollars_per_gb=0.40, upkeep_dollars_per_gb_year=0.05)
DISK_COST_2005 = StorageCostModel("SATA disk", dollars_per_gb=3.00, upkeep_dollars_per_gb_year=0.60)
RAID_COST_2005 = StorageCostModel("RAID array", dollars_per_gb=5.00, upkeep_dollars_per_gb_year=1.00)


@dataclass
class CostLedger:
    """Accumulates dollar costs by category for a scenario run."""

    entries: List[Dict[str, object]] = field(default_factory=list)

    def charge(self, category: str, amount: float, note: str = "") -> None:
        if amount < 0:
            raise ValueError(f"negative charge: {amount}")
        self.entries.append({"category": category, "amount": amount, "note": note})

    def total(self, category: str | None = None) -> float:
        return sum(
            float(entry["amount"])
            for entry in self.entries
            if category is None or entry["category"] == category
        )
