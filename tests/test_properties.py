"""Property-based tests on cross-cutting invariants.

These complement the per-module suites: each property here is an invariant
a downstream user would rely on without thinking about it — conservation
laws in the transfer simulator, accounting identities in storage, format
round-trips, merge idempotence — checked over randomized inputs.
"""


import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.units import DataSize, Rate
from repro.storage.catalog import FileCatalog
from repro.transport.network import (
    NetworkLink,
    TransferRequest,
    simulate_shared_transfers,
)
from repro.transport.sneakernet import ShipmentSpec


# --------------------------------------------------------------------------- #
# Fair-share transfer simulation: conservation and ordering.
# --------------------------------------------------------------------------- #
transfer_sizes = st.lists(
    st.floats(min_value=1.0, max_value=500.0), min_size=1, max_size=8
)


@given(sizes_mb=transfer_sizes)
@settings(max_examples=40, deadline=None)
def test_shared_link_conserves_work(sizes_mb):
    """Simultaneous transfers finish exactly when the serial sum would."""
    link = NetworkLink("l", Rate.megabytes_per_second(10), efficiency=1.0)
    requests = [
        TransferRequest(f"t{i}", DataSize.megabytes(mb))
        for i, mb in enumerate(sizes_mb)
    ]
    results = simulate_shared_transfers(link, requests)
    makespan = max(result.finish.seconds for result in results)
    serial = sum(sizes_mb) / 10.0
    assert makespan == pytest.approx(serial, rel=1e-6, abs=1e-6)


@given(sizes_mb=transfer_sizes)
@settings(max_examples=40, deadline=None)
def test_shared_link_finishes_smaller_first(sizes_mb):
    """With equal start times, completion order follows size order."""
    link = NetworkLink("l", Rate.megabytes_per_second(10), efficiency=1.0)
    requests = [
        TransferRequest(f"t{i}", DataSize.megabytes(mb))
        for i, mb in enumerate(sizes_mb)
    ]
    results = {r.name: r.finish.seconds for r in simulate_shared_transfers(link, requests)}
    for i, size_i in enumerate(sizes_mb):
        for j, size_j in enumerate(sizes_mb):
            if size_i < size_j:
                assert results[f"t{i}"] <= results[f"t{j}"] + 1e-9


# --------------------------------------------------------------------------- #
# Sneakernet arithmetic.
# --------------------------------------------------------------------------- #
@given(volume_gb=st.floats(min_value=1.0, max_value=100_000.0))
@settings(max_examples=50, deadline=None)
def test_media_needed_is_a_proper_ceiling(volume_gb):
    spec = ShipmentSpec(name="p")
    volume = DataSize.gigabytes(volume_gb)
    count = spec.media_needed(volume)
    capacity = spec.media_type.capacity
    assert count * capacity.bytes >= volume.bytes
    assert (count - 1) * capacity.bytes < volume.bytes or count == 1


@given(
    small=st.floats(min_value=100.0, max_value=1000.0),
    factor=st.floats(min_value=2.0, max_value=50.0),
)
@settings(max_examples=30, deadline=None)
def test_sneakernet_throughput_improves_with_volume(small, factor):
    """Fixed transit latency amortizes: bigger shipments, better GB/day."""
    spec = ShipmentSpec(name="p")
    small_volume = DataSize.gigabytes(small)
    large_volume = DataSize.gigabytes(small * factor)
    assert (
        spec.effective_throughput(large_volume).bytes_per_second
        >= spec.effective_throughput(small_volume).bytes_per_second * 0.99
    )


# --------------------------------------------------------------------------- #
# Storage accounting identities.
# --------------------------------------------------------------------------- #
file_sizes = st.lists(
    st.floats(min_value=0.01, max_value=2.0), min_size=1, max_size=12
)


@given(
    sizes_gb=file_sizes,
    replica_counts=st.lists(st.integers(min_value=0, max_value=3), min_size=12,
                            max_size=12),
)
@settings(max_examples=40, deadline=None)
def test_catalog_physical_is_sum_of_replicas(sizes_gb, replica_counts):
    catalog = FileCatalog()
    expected_physical = 0.0
    for index, size in enumerate(sizes_gb):
        entry = catalog.register(f"f{index}", DataSize.gigabytes(size))
        for replica in range(replica_counts[index]):
            catalog.add_replica(
                f"f{index}", f"site{replica}", f"med-{index}-{replica}",
                entry.checksum,
            )
        expected_physical += size * replica_counts[index]
    assert catalog.total_logical().gb == pytest.approx(sum(sizes_gb))
    assert catalog.total_physical().gb == pytest.approx(expected_physical)
    assert set(catalog.lost()) == {
        f"f{i}" for i, count in enumerate(replica_counts[: len(sizes_gb)]) if count == 0
    }


# --------------------------------------------------------------------------- #
# Dedispersion: injection/recovery duality.
# --------------------------------------------------------------------------- #
@given(
    dm=st.floats(min_value=5.0, max_value=90.0),
    sample=st.integers(min_value=200, max_value=1800),
)
@settings(max_examples=20, deadline=None)
def test_dedispersion_inverts_dispersion(dm, sample):
    """A dispersed impulse re-aligns exactly at the injected DM."""
    from repro.arecibo.dedisperse import dedisperse, delay_samples
    from repro.arecibo.filterbank import Filterbank

    n_channels, n_samples = 32, 2048
    data = np.zeros((n_channels, n_samples), dtype=np.float32)
    probe = Filterbank(
        data=data, freq_low_mhz=1300.0, freq_high_mhz=1500.0, tsamp_s=0.0005
    )
    shifts = delay_samples(probe, dm)
    assume(int(shifts[0]) + sample < n_samples)
    for channel in range(n_channels):
        data[channel, sample + int(shifts[channel])] = 1.0
    filterbank = Filterbank(
        data=data, freq_low_mhz=1300.0, freq_high_mhz=1500.0, tsamp_s=0.0005
    )
    series = dedisperse(filterbank, dm)
    assert int(np.argmax(series)) == sample
    assert series[sample] == pytest.approx(1.0)


# --------------------------------------------------------------------------- #
# EventStore merge idempotence over random content.
# --------------------------------------------------------------------------- #
@given(
    run_numbers=st.lists(
        st.integers(min_value=1, max_value=40), min_size=1, max_size=5, unique=True
    ),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_merge_idempotent_over_random_content(tmp_path_factory, run_numbers, seed):
    from repro.eventstore.merge import merge_into
    from repro.eventstore.provenance import stamp_step
    from repro.eventstore.scales import CollaborationEventStore, PersonalEventStore
    from tests.eventstore.conftest import make_events, make_run

    root = tmp_path_factory.mktemp("merge-prop")
    with PersonalEventStore(root / "p", name="p") as personal:
        for number in run_numbers:
            events = make_events(run_number=number, count=3, seed=seed + number)
            personal.inject(
                make_run(number=number, events=events),
                events,
                "Recon_v1",
                "recon",
                stamp_step("PassRecon", "v1", {"run": number, "seed": seed}),
            )
        with CollaborationEventStore(root / "c", name="c") as collab:
            first = merge_into(personal, collab)
            second = merge_into(personal, collab)
            assert first.files_added == len(run_numbers)
            assert second.files_added == 0
            assert second.runs_added == 0 and second.grade_entries_added == 0
            assert collab.file_count() == len(run_numbers)


# --------------------------------------------------------------------------- #
# Partition split/merge round trip.
# --------------------------------------------------------------------------- #
@given(
    n_events=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_partition_roundtrip_preserves_events(tmp_path_factory, n_events, seed):
    from repro.eventstore.partition import PartitionLayout, write_partitioned_run
    from repro.eventstore.provenance import stamp_step
    from tests.eventstore.conftest import make_events

    layout = PartitionLayout.from_mapping(
        {"hits": "cold", "tracks": "hot"}
    )
    events = make_events(
        run_number=1, count=n_events, asu_names=("hits", "tracks"), seed=seed
    )
    root = tmp_path_factory.mktemp("part-prop")
    partitioned = write_partitioned_run(
        root, 1, events, layout, "v1", stamp_step("x", "v1")
    )
    merged = list(partitioned.events(["hot", "cold"]))
    assert len(merged) == n_events
    for original, rebuilt in zip(events, merged):
        assert {n: a.payload for n, a in rebuilt.asus.items()} == {
            n: a.payload for n, a in original.asus.items()
        }


# --------------------------------------------------------------------------- #
# ARC packing preserves record counts and bytes at any split size.
# --------------------------------------------------------------------------- #
@given(
    target=st.integers(min_value=1_000, max_value=500_000),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_arc_packing_preserves_corpus(tmp_path_factory, target, seed):
    from repro.weblab.arcformat import pack_crawl, read_arc
    from repro.weblab.synthweb import SyntheticWeb, SyntheticWebConfig

    web = SyntheticWeb(SyntheticWebConfig(seed=seed, initial_pages=40))
    crawl = web.generate_crawls(1)[0]
    root = tmp_path_factory.mktemp("arc-prop")
    paths = pack_crawl(crawl.pages, root, "c", target_file_bytes=target)
    records = [record for path in paths for record in read_arc(path)]
    assert len(records) == crawl.page_count
    assert sorted(r.url for r in records) == sorted(p.url for p in crawl.pages)
    assert sum(len(r.content) for r in records) == sum(
        p.size_bytes for p in crawl.pages
    )


# --------------------------------------------------------------------------- #
# Burst decoding: flat series quiet, spike always flagged.
# --------------------------------------------------------------------------- #
@given(
    base=st.integers(min_value=2, max_value=20),
    spike_at=st.integers(min_value=0, max_value=9),
    magnitude=st.integers(min_value=10, max_value=40),
)
@settings(max_examples=40, deadline=None)
def test_burst_decoder_flags_exactly_the_spike(base, spike_at, magnitude):
    from repro.weblab.burst import detect_bursts

    counts = [base] * 10
    counts[spike_at] = base * magnitude
    totals = [10_000] * 10
    intervals = detect_bursts(counts, totals, scaling=3.0, gamma=0.5)
    assert len(intervals) == 1
    assert intervals[0].start == intervals[0].end == spike_at
    assert detect_bursts([base] * 10, totals, scaling=3.0) == []
