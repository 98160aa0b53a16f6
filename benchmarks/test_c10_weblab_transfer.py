"""C10 — the WebLab's network intake (Section 4.1).

Paper claims regenerated here:
* "a good balance [...] is achieved by setting an initial target of
  downloading one complete crawl of the Web for each year since 1996 at an
  average speed of 250 GB/day";
* "the network connection uses a dedicated 100 Mb/sec connection from the
  Internet Archive to Internet2, which can easily be upgraded to
  500 Mb/sec";
* the link is *dedicated* — on a shared link, bulk transfer and
  interactive use degrade each other (the Arecibo situation).
"""

import pytest

from repro.core.units import DataSize, Duration
from repro.transport.network import (
    ARECIBO_UPLINK,
    INTERNET2_100,
    INTERNET2_500,
    TERAGRID,
    TransferRequest,
    simulate_shared_transfers,
)

DAILY_TARGET_GB = 250.0


def capacity_rows():
    rows = []
    for link in (ARECIBO_UPLINK, INTERNET2_100, INTERNET2_500, TERAGRID):
        daily = link.daily_volume()
        rows.append(
            {
                "link": link.name,
                "daily volume": f"{daily.gb:.0f} GB",
                "vs 250 GB/day target": f"{daily.gb / DAILY_TARGET_GB:.1f}x",
                "meets target": "yes" if daily.gb >= DAILY_TARGET_GB else "no",
            }
        )
    return rows


def contention_rows():
    """One day's 250 GB bulk transfer sharing the link with hourly
    interactive bursts."""
    rows = []
    for link in (INTERNET2_100, INTERNET2_500):
        requests = [TransferRequest("bulk", DataSize.gigabytes(DAILY_TARGET_GB))]
        for hour in range(24):
            requests.append(
                TransferRequest(
                    f"interactive-{hour:02d}",
                    DataSize.gigabytes(1),
                    start=Duration.hours(hour),
                )
            )
        results = {r.name: r for r in simulate_shared_transfers(link, requests)}
        bulk_hours = results["bulk"].elapsed.hours_
        worst_interactive = max(
            results[f"interactive-{hour:02d}"].elapsed.minutes_ for hour in range(24)
        )
        rows.append(
            {
                "link": link.name,
                "bulk 250 GB (h)": f"{bulk_hours:.1f}",
                "bulk fits the day": "yes" if bulk_hours <= 24 else "no",
                "worst interactive GB (min)": f"{worst_interactive:.1f}",
            }
        )
    return rows


def test_c10_link_capacity(report_rows):
    rows = capacity_rows()
    by_link = {row["link"]: row for row in rows}
    # The dedicated 100 Mb/s line meets 250 GB/day with headroom.
    assert by_link[INTERNET2_100.name]["meets target"] == "yes"
    # The 500 Mb/s upgrade is ~5x.
    ratio = float(by_link[INTERNET2_500.name]["vs 250 GB/day target"].rstrip("x")) / float(
        by_link[INTERNET2_100.name]["vs 250 GB/day target"].rstrip("x")
    )
    assert ratio == pytest.approx(5.0, rel=0.05)
    # The Arecibo uplink does not come close (why it ships disks instead).
    assert by_link[ARECIBO_UPLINK.name]["meets target"] == "no"
    report_rows("C10a: daily volume per link vs the 250 GB/day target", rows)


def test_c10_contention(report_rows):
    rows = contention_rows()
    # Even with interactive load sharing the link, the daily bulk volume
    # completes within the day on the dedicated 100 Mb/s line.
    assert all(row["bulk fits the day"] == "yes" for row in rows)
    report_rows("C10b: bulk + interactive sharing one link", rows)
