"""C1 — physical disk shipping vs network transport (Section 2.2 / 5).

Paper claims regenerated here:
* "because of Arecibo's limited network bandwidth to the outside world,
  for the foreseeable future, network transport of raw data is infeasible.
  We therefore have developed a system based on transport of physical ATA
  disks";
* "the currently available best solutions are [...] mostly determined by
  bandwidth considerations and cost: physical disk transfer vs. a
  dedicated link to Internet2";
* WebLab's 100 Mb/s dedicated link comfortably moves its 250 GB/day,
  so for *it* the network wins.
"""


from repro.core.units import DataSize
from repro.transport.network import ARECIBO_UPLINK, INTERNET2_100
from repro.transport.planner import (
    TransportPlanner,
    crossover_bandwidth,
    evaluate_network,
    evaluate_sneakernet,
)
from repro.transport.sneakernet import ARECIBO_TO_CTC

VOLUMES_TB = (0.1, 1, 5, 14, 50)


def sweep_rows():
    rows = []
    for volume_tb in VOLUMES_TB:
        volume = DataSize.terabytes(volume_tb)
        ship = evaluate_sneakernet(volume, ARECIBO_TO_CTC)
        thin = evaluate_network(volume, ARECIBO_UPLINK)
        dedicated = evaluate_network(volume, INTERNET2_100)
        crossover = crossover_bandwidth(volume, ARECIBO_TO_CTC)
        winner = min((ship, thin, dedicated), key=lambda o: o.elapsed.seconds)
        rows.append(
            {
                "volume": f"{volume_tb} TB",
                "ship (d)": f"{ship.elapsed.days_:.1f}",
                "arecibo uplink (d)": f"{thin.elapsed.days_:.1f}",
                "internet2-100 (d)": f"{dedicated.elapsed.days_:.1f}",
                "winner": winner.name,
                "crossover (Mb/s)": f"{crossover.mbps:.0f}",
            }
        )
    return rows


def test_c1_transport_crossover(report_rows):
    rows = sweep_rows()

    planner = TransportPlanner(
        links=[ARECIBO_UPLINK, INTERNET2_100], lanes=[ARECIBO_TO_CTC]
    )
    # Arecibo's weekly block: disks win outright against the island uplink,
    # and still beat even a dedicated 100 Mb/s line at 14 TB.
    block = DataSize.terabytes(14)
    assert planner.fastest(block).mode == "sneakernet"
    # WebLab-style daily chunks on a dedicated line: the network wins.
    daily = DataSize.gigabytes(250)
    weblab_planner = TransportPlanner(links=[INTERNET2_100], lanes=[ARECIBO_TO_CTC])
    assert weblab_planner.fastest(daily).mode == "network"
    # The crossover moves up with volume: trucks scale, links do not.
    low = crossover_bandwidth(DataSize.terabytes(1), ARECIBO_TO_CTC)
    high = crossover_bandwidth(DataSize.terabytes(50), ARECIBO_TO_CTC)
    assert high.mbps > low.mbps
    # And the island uplink sits far below the 14 TB crossover.
    assert ARECIBO_UPLINK.nominal.mbps < crossover_bandwidth(
        block, ARECIBO_TO_CTC
    ).mbps

    report_rows("C1: sneakernet vs network crossover", rows)
