"""The recall queue: coalescing, hot/cold splitting, batched cold recalls."""

import pytest

from repro.core.errors import StorageError
from repro.core.units import DataSize, Duration, Rate
from repro.storage.hsm import HierarchicalStore
from repro.storage.media import MediaType
from repro.storage.recall import RecallQueue
from repro.storage.tape import RoboticTapeLibrary


def tiny_tape(capacity_gb=5, mount_seconds=60):
    return MediaType(
        name="test tape",
        capacity=DataSize.gigabytes(capacity_gb),
        read_rate=Rate.megabytes_per_second(100),
        write_rate=Rate.megabytes_per_second(100),
        mount_latency=Duration.from_seconds(mount_seconds),
        unit_cost=50.0,
    )


@pytest.fixture()
def hsm():
    library = RoboticTapeLibrary("ctc", tiny_tape())
    # 4 GB cache over 2 GB files: after the four write-through stores,
    # exactly b1 + b2 remain on the disk tier; a1 + a2 are tape-only.
    store = HierarchicalStore(library, cache_capacity=DataSize.gigabytes(4))
    for name in ("a1", "a2", "b1", "b2"):
        store.store(name, DataSize.gigabytes(2))
    return store


class TestQueueing:
    def test_duplicates_coalesce(self, hsm):
        queue = RecallQueue(hsm)
        for _ in range(4):
            queue.request("a1")
        queue.request("a2")
        assert len(queue) == 2
        report = queue.drain()
        assert report.requests_served == 5
        assert report.coalesced == 3

    def test_empty_name_rejected(self, hsm):
        with pytest.raises(StorageError, match="empty"):
            RecallQueue(hsm).request("")

    def test_empty_drain_is_a_noop(self, hsm):
        report = RecallQueue(hsm).drain()
        assert report.requests_served == 0
        assert report.elapsed == Duration.zero()


class TestDrain:
    def test_drain_serves_and_accounts(self, hsm):
        queue = RecallQueue(hsm)
        for name in ("a1", "a1", "a2", "b1"):
            queue.request(name)
        report = queue.drain()
        assert report.requests_served == 4
        assert report.unique_files == 3
        assert report.coalesced == 1
        assert report.files == ("a1", "a2", "b1")
        assert report.bytes_read.gb == pytest.approx(8)  # a1 counted twice
        assert len(queue) == 0  # queue drained

    def test_hot_cold_split(self, hsm):
        assert hsm.is_cached("b1") and hsm.is_cached("b2")
        assert not hsm.is_cached("a1")
        queue = RecallQueue(hsm)
        for name in ("a1", "b1", "b2"):
            queue.request(name)
        report = queue.drain()
        assert report.hot_served == 2
        assert report.cold_recalled == 1

    def test_cold_set_recalls_in_one_batched_pass(self, hsm):
        # Both a-files are tape-only; the drain must batch them
        # cartridge-major, costing at most one extra mount.
        mounts_before = hsm.library.stats.mounts
        queue = RecallQueue(hsm)
        queue.request("a1")
        queue.request("a2")
        report = queue.drain()
        assert report.cold_recalled == 2
        assert hsm.library.stats.mounts - mounts_before <= 1
        # Every read in the drain was served from the disk tier.
        assert report.elapsed.seconds > 0

    def test_second_drain_of_same_files_is_all_hot(self, hsm):
        queue = RecallQueue(hsm)
        for name in ("a1", "a2"):
            queue.request(name)
        queue.drain()
        for name in ("a1", "a2"):
            queue.request(name)
        report = queue.drain()
        assert report.hot_served == 2
        assert report.cold_recalled == 0
        assert report.elapsed == Duration.zero()
