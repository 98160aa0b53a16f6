"""C7 — hot/warm/cold partitioning (Section 3.1).

Paper claims regenerated here:
* "CLEO data are partitioned into hot, warm and cold storage units [...] a
  column-wise split of the event into groups of ASUs, based on usage
  patterns";
* "the hot data are those components of an event most frequently accessed
  during physics analysis.  These ASUs are typically small compared with
  the less frequently accessed ASUs" — so a hot-only analysis reads a
  small fraction of the bytes a monolithic layout forces through.
"""

import pytest

from repro.core.units import DataSize, Duration, Rate
from repro.eventstore.model import ASU, Event
from repro.eventstore.partition import (
    AccessProfile,
    derive_layout,
    write_partitioned_run,
)
from repro.eventstore.provenance import stamp_step
from repro.storage.hsm import HierarchicalStore, HsmStats
from repro.storage.media import MediaType
from repro.storage.tape import RoboticTapeLibrary


def sized_events(count, hot_bytes=32, warm_bytes=512, cold_bytes=4096):
    events = []
    for number in range(count):
        events.append(
            Event(
                run_number=1,
                event_number=number,
                asus={
                    "summary": ASU("summary", b"s" * hot_bytes),
                    "tracks": ASU("tracks", b"t" * warm_bytes),
                    "rawhits": ASU("rawhits", b"r" * cold_bytes),
                },
            )
        )
    return events


def usage_profile():
    """Recorded analysis working sets: summaries always, tracks sometimes,
    raw hits rarely — the usage pattern that motivates the split."""
    profile = AccessProfile()
    for _ in range(17):
        profile.record(["summary"])
    for _ in range(2):
        profile.record(["summary", "tracks"])
    profile.record(["summary", "tracks", "rawhits"])
    return profile


def run_experiment(tmp_path):
    profile = usage_profile()
    layout = derive_layout(
        profile, ["summary", "tracks", "rawhits"],
        hot_threshold=0.5, warm_threshold=0.1,
    )
    events = sized_events(400)
    partitioned = write_partitioned_run(
        tmp_path, 1, events, layout, "Recon_v1", stamp_step("PassRecon", "v1")
    )
    monolithic = partitioned.monolithic_size()
    rows = []
    for working_set, label in (
        (["summary"], "hot-only (typical analysis)"),
        (["summary", "tracks"], "hot+warm"),
        (["summary", "tracks", "rawhits"], "full event"),
    ):
        read = partitioned.read_size(working_set, layout)
        rows.append(
            {
                "working set": label,
                "bytes read": f"{read.kb:.0f} KB",
                "vs monolithic": f"{read.bytes / monolithic.bytes * 100:.1f} %",
                "speedup": f"{monolithic.bytes / read.bytes:.1f}x",
            }
        )
    return rows, layout, partitioned


def test_c7_hot_cold_partitioning(tmp_path, report_rows):
    rows, layout, partitioned = run_experiment(tmp_path)
    # The derived layout matches the usage pattern.
    assert layout.temperature_of("summary") == "hot"
    assert layout.temperature_of("tracks") == "warm"
    assert layout.temperature_of("rawhits") == "cold"
    # The hot unit is small, so the typical analysis reads a small
    # fraction of the monolithic volume.
    hot_fraction = float(rows[0]["vs monolithic"].rstrip(" %")) / 100.0
    assert hot_fraction < 0.1
    # Reading everything through the partitioned layout costs ~the same as
    # the monolithic file (no free lunch; the win is selectivity).
    full_fraction = float(rows[2]["vs monolithic"].rstrip(" %")) / 100.0
    assert 0.9 < full_fraction <= 1.1
    # And the merged stream is the original event, bit for bit.
    merged = list(partitioned.events(["hot", "warm", "cold"]))
    assert merged[0].asu_names == ["rawhits", "summary", "tracks"]
    report_rows("C7: hot/warm/cold column partitioning", rows)


def _hsm_tape():
    return MediaType(
        name="bench tape",
        capacity=DataSize.gigabytes(100),
        read_rate=Rate.megabytes_per_second(100),
        write_rate=Rate.megabytes_per_second(100),
        mount_latency=Duration.from_seconds(60),
        unit_cost=50.0,
    )


def hsm_tier_rows():
    """Drive the C7 access pattern through per-temperature HSM stores.

    Each temperature tier gets its own :class:`HierarchicalStore` sized to
    its working set; the fleet-wide row is an :meth:`HsmStats.merge` over
    the tiers — the aggregate view an operator of the real CLEO HSM reads.
    """
    tiers = {
        # Hot data fits its cache; cold is deliberately cache-starved.
        "hot": (DataSize.gigabytes(20), 10),
        "warm": (DataSize.gigabytes(4), 4),
        "cold": (DataSize.gigabytes(1), 2),
    }
    stores = {}
    for tier, (cache, n_files) in tiers.items():
        library = RoboticTapeLibrary(f"cleo-{tier}", _hsm_tape())
        store = HierarchicalStore(library, cache_capacity=cache)
        for index in range(n_files):
            store.store(f"{tier}-{index}", DataSize.gigabytes(1))
        stores[tier] = (store, n_files)
    # Replay the usage_profile() working sets as reads against the tiers.
    tier_of = {"summary": "hot", "tracks": "warm", "rawhits": "cold"}
    working_sets = (
        [["summary"]] * 17
        + [["summary", "tracks"]] * 2
        + [["summary", "tracks", "rawhits"]]
    )
    for working_set in working_sets:
        for asu in working_set:
            store, n_files = stores[tier_of[asu]]
            for index in range(n_files):
                store.read(f"{tier_of[asu]}-{index}")
    per_tier = {tier: store.stats for tier, (store, _) in stores.items()}
    fleet = HsmStats.merge(per_tier.values())
    rows = [
        {
            "store": tier,
            "hits": stats.hits,
            "recalls": stats.misses,
            "hit rate": f"{stats.hit_rate * 100:.0f} %",
            "recalled": f"{stats.bytes_recalled / 1e9:.0f} GB",
        }
        for tier, stats in per_tier.items()
    ]
    rows.append(
        {
            "store": "fleet (merged)",
            "hits": fleet.hits,
            "recalls": fleet.misses,
            "hit rate": f"{fleet.hit_rate * 100:.0f} %",
            "recalled": f"{fleet.bytes_recalled / 1e9:.0f} GB",
        }
    )
    return rows, per_tier, fleet


def test_c7_hsm_tier_aggregation(report_rows):
    rows, per_tier, fleet = hsm_tier_rows()
    # The merge is exactly the sum of the per-tier counters.
    assert fleet.hits == sum(stats.hits for stats in per_tier.values())
    assert fleet.misses == sum(stats.misses for stats in per_tier.values())
    assert fleet.bytes_recalled == pytest.approx(
        sum(stats.bytes_recalled for stats in per_tier.values())
    )
    # The hot tier dominates traffic, so the fleet hit rate sits close to
    # the hot tier's and far above the cold tier's.
    assert per_tier["hot"].hit_rate > fleet.hit_rate > per_tier["cold"].hit_rate
    report_rows("C7: per-tier HSM stores and the merged fleet view", rows)
