"""Transport planning: when does the truck beat the wire?  (Sections 2.2, 5)

Evaluates the paper's three transport situations through one planner —
Arecibo's weekly 14 TB against its thin island uplink, CLEO's offsite
Monte Carlo on USB disks, and WebLab's 250 GB/day over dedicated
Internet2 — and sweeps the volume/bandwidth space to find the crossover
where networks start to win.

Run:  python examples/transport_planning.py
"""

from repro.core.units import DataSize, Duration
from repro.storage.media import USB_DISK_2005
from repro.transport.network import (
    ARECIBO_UPLINK,
    INTERNET2_100,
    INTERNET2_500,
    TERAGRID,
)
from repro.transport.planner import TransportPlanner, crossover_bandwidth
from repro.transport.sneakernet import ARECIBO_TO_CTC, ShipmentSpec, ShippingLane


def main() -> None:
    planner = TransportPlanner(
        links=[ARECIBO_UPLINK, INTERNET2_100, INTERNET2_500, TERAGRID],
        lanes=[ARECIBO_TO_CTC],
    )

    print("One week of Arecibo raw data (14 TB) — every option, fastest first:")
    for option in planner.evaluate(DataSize.terabytes(14)):
        print(f"  {option.summary()}")
    print()

    print("Crossover bandwidth (network beats shipping disks above this):")
    for volume_tb in (1, 5, 14, 50, 100):
        crossover = crossover_bandwidth(
            DataSize.terabytes(volume_tb), ARECIBO_TO_CTC
        )
        print(f"  {volume_tb:5.0f} TB -> {crossover.mbps:7.0f} Mb/s nominal")
    print("  (the Arecibo uplink is ~10 Mb/s: the truck wins for years to come)")
    print()

    print("Executing one 14 TB shipment with integrity verification:")
    lane = ShippingLane(ARECIBO_TO_CTC)
    result = lane.ship(DataSize.terabytes(14))
    print(f"  {result.media_used} ATA disks, {result.attempts} attempt(s)")
    print(f"  elapsed {result.elapsed}, personnel {result.personnel_time}, "
          f"cost ${result.cost:,.0f}")
    print(f"  manifest verified clean: {result.report.clean}")
    print()

    print("CLEO's offsite Monte Carlo (USB disks, per the paper):")
    usb_lane = ShipmentSpec(
        name="offsite -> Cornell (USB)",
        media_type=USB_DISK_2005,
        transit_time=Duration.days(4),
        copy_stations=2,
    )
    monthly_mc = DataSize.terabytes(1.5)
    print(f"  {monthly_mc} per month by disk: "
          f"{usb_lane.effective_throughput(monthly_mc).gb_per_day:.0f} GB/day "
          f"effective")
    print()

    print("WebLab's intake target (250 GB/day):")
    for link in (INTERNET2_100, INTERNET2_500):
        daily = link.daily_volume()
        print(f"  {link.name:32s}: {daily.gb:6.0f} GB/day "
              f"({daily.gb / 250:.1f}x the target)")


if __name__ == "__main__":
    main()
