"""Tests for the robotic tape library and the hierarchical store."""

from collections import OrderedDict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import CapacityError, InjectedFault, StorageError
from repro.core.faults import FaultPlan, FaultSpec
from repro.core.telemetry import Telemetry
from repro.core.units import DataSize, Duration, Rate
from repro.storage.hsm import HierarchicalStore, HsmStats
from repro.storage.media import MediaType
from repro.storage.tape import RoboticTapeLibrary


def tiny_tape(capacity_gb=10, mount_seconds=60):
    return MediaType(
        name="test tape",
        capacity=DataSize.gigabytes(capacity_gb),
        read_rate=Rate.megabytes_per_second(100),
        write_rate=Rate.megabytes_per_second(100),
        mount_latency=Duration.from_seconds(mount_seconds),
        unit_cost=50.0,
    )


class TestRoboticTapeLibrary:
    def test_archive_starts_cartridges_as_needed(self):
        library = RoboticTapeLibrary("ctc", tiny_tape(capacity_gb=5))
        library.archive("a", DataSize.gigabytes(4))
        assert library.cartridge_count == 1
        library.archive("b", DataSize.gigabytes(4))
        assert library.cartridge_count == 2
        assert library.stats.bytes_written == pytest.approx(8e9)

    def test_oversized_file_rejected(self):
        library = RoboticTapeLibrary("ctc", tiny_tape(capacity_gb=1))
        with pytest.raises(StorageError, match="split"):
            library.archive("big", DataSize.gigabytes(2))

    def test_duplicate_rejected(self):
        library = RoboticTapeLibrary("ctc", tiny_tape())
        library.archive("a", DataSize.gigabytes(1))
        with pytest.raises(StorageError):
            library.archive("a", DataSize.gigabytes(1))

    def test_recall_roundtrip_and_mount_accounting(self):
        library = RoboticTapeLibrary("ctc", tiny_tape(mount_seconds=60))
        library.archive("a", DataSize.gigabytes(1))
        file, elapsed = library.recall("a")
        assert file.name == "a"
        # Already mounted from the archive write: no extra mount.
        assert elapsed.seconds == pytest.approx(10)
        assert library.stats.mounts == 1

    def test_recall_of_unknown_file(self):
        library = RoboticTapeLibrary("ctc", tiny_tape())
        with pytest.raises(StorageError):
            library.recall("ghost")

    def test_mount_charged_when_switching_cartridges(self):
        library = RoboticTapeLibrary("ctc", tiny_tape(capacity_gb=5, mount_seconds=60))
        library.archive("a", DataSize.gigabytes(4))  # cartridge 1
        library.archive("b", DataSize.gigabytes(4))  # cartridge 2 (now mounted)
        _, elapsed = library.recall("a")  # must remount cartridge 1
        assert elapsed.seconds == pytest.approx(60 + 40)

    def test_recall_batch_minimizes_mounts(self):
        library = RoboticTapeLibrary("ctc", tiny_tape(capacity_gb=5, mount_seconds=60))
        # Files interleaved across two cartridges.
        library.archive("a1", DataSize.gigabytes(2))
        library.archive("a2", DataSize.gigabytes(2))
        library.archive("b1", DataSize.gigabytes(2))
        library.archive("b2", DataSize.gigabytes(2))
        mounts_before = library.stats.mounts
        files, _ = library.recall_batch(["a1", "b1", "a2", "b2"])
        assert {f.name for f in files} == {"a1", "a2", "b1", "b2"}
        # Cartridge-major ordering: at most 2 additional mounts for 2 cartridges.
        assert library.stats.mounts - mounts_before <= 2

    def test_recall_batch_missing_file(self):
        library = RoboticTapeLibrary("ctc", tiny_tape())
        library.archive("a", DataSize.gigabytes(1))
        with pytest.raises(StorageError, match="missing"):
            library.recall_batch(["a", "ghost"])

    def test_fail_cartridge_loses_files(self):
        library = RoboticTapeLibrary("ctc", tiny_tape(capacity_gb=5))
        library.archive("a", DataSize.gigabytes(4))
        library.archive("b", DataSize.gigabytes(4))
        lost = library.fail_cartridge(0)
        assert lost == ["a"]
        with pytest.raises(StorageError):
            library.recall("a")
        assert library.holds("b")

    @pytest.mark.parametrize("index", [-1, 1, 5])
    def test_fail_cartridge_refuses_an_index_it_does_not_hold(self, index):
        library = RoboticTapeLibrary("ctc", tiny_tape())
        library.archive("a", DataSize.gigabytes(1))
        with pytest.raises(StorageError, match=f"no cartridge {index}"):
            library.fail_cartridge(index)
        assert library.holds("a")  # -1 used to fail the last cartridge
        assert library.recall("a")[0].verify()

    def test_stats_track_bytes(self):
        library = RoboticTapeLibrary("ctc", tiny_tape())
        library.archive("a", DataSize.gigabytes(2))
        library.recall("a")
        assert library.stats.bytes_written == pytest.approx(2e9)
        assert library.stats.bytes_read == pytest.approx(2e9)

    def test_invalid_drive_count(self):
        with pytest.raises(StorageError):
            RoboticTapeLibrary("ctc", tiny_tape(), drives=0)


class TestHierarchicalStore:
    def make_hsm(self, cache_gb=4):
        library = RoboticTapeLibrary("ctc", tiny_tape(capacity_gb=100, mount_seconds=60))
        return HierarchicalStore(library, cache_capacity=DataSize.gigabytes(cache_gb))

    def test_store_leaves_cached_copy(self):
        hsm = self.make_hsm()
        hsm.store("a", DataSize.gigabytes(1))
        assert hsm.is_cached("a")
        file, elapsed = hsm.read("a")
        assert elapsed == Duration.zero()
        assert hsm.stats.hits == 1
        assert hsm.stats.misses == 0

    def test_miss_recalls_from_tape(self):
        hsm = self.make_hsm(cache_gb=2)
        hsm.store("a", DataSize.gigabytes(2))
        hsm.store("b", DataSize.gigabytes(2))  # evicts a
        assert not hsm.is_cached("a")
        _, elapsed = hsm.read("a")
        assert elapsed.seconds > 0
        assert hsm.stats.misses == 1
        assert hsm.stats.evictions >= 1

    def test_lru_eviction_order(self):
        hsm = self.make_hsm(cache_gb=3)
        hsm.store("a", DataSize.gigabytes(1))
        hsm.store("b", DataSize.gigabytes(1))
        hsm.store("c", DataSize.gigabytes(1))
        hsm.read("a")  # refresh a; b is now least recent
        hsm.store("d", DataSize.gigabytes(1))  # evicts b
        assert hsm.is_cached("a")
        assert not hsm.is_cached("b")

    def test_file_larger_than_cache_rejected(self):
        hsm = self.make_hsm(cache_gb=1)
        with pytest.raises(CapacityError):
            hsm.store("big", DataSize.gigabytes(2))

    def test_pin_set_batches_recalls(self):
        hsm = self.make_hsm(cache_gb=10)
        for name in ("a", "b", "c"):
            hsm.store(name, DataSize.gigabytes(1))
        # Evict everything by filling the cache with new files.
        for index in range(10):
            hsm.store(f"fill{index}", DataSize.gigabytes(1))
        _, elapsed = hsm.recall_set(["a", "b", "c"])
        assert elapsed.seconds > 0
        assert all(hsm.is_cached(name) for name in ("a", "b", "c"))
        # Pinning an already-cached set is free.
        assert hsm.recall_set(["a", "b"]) == ([], Duration.zero())

    def test_hit_rate(self):
        hsm = self.make_hsm(cache_gb=10)
        hsm.store("a", DataSize.gigabytes(1))
        hsm.read("a")
        hsm.read("a")
        assert hsm.stats.hit_rate == pytest.approx(1.0)

    def test_zero_cache_rejected(self):
        library = RoboticTapeLibrary("ctc", tiny_tape())
        with pytest.raises(StorageError):
            HierarchicalStore(library, cache_capacity=DataSize.zero())


class TestHsmStatsMerge:
    def test_merge_sums_counters(self):
        merged = HsmStats.merge(
            [
                HsmStats(hits=4, misses=1, evictions=2, bytes_recalled=100.0,
                         recall_time=Duration(10.0)),
                HsmStats(hits=1, misses=4, evictions=0, bytes_recalled=300.0,
                         recall_time=Duration(5.0)),
            ]
        )
        assert merged.hits == 5
        assert merged.misses == 5
        assert merged.evictions == 2
        assert merged.bytes_recalled == pytest.approx(400.0)
        assert merged.recall_time.seconds == pytest.approx(15.0)

    def test_merge_hit_rate_weights_by_traffic(self):
        # 9/10 on a busy store, 0/1 on an idle one: the merged rate is
        # 9/11, not the 0.45 a naive mean of per-store rates would give.
        busy = HsmStats(hits=9, misses=1)
        idle = HsmStats(hits=0, misses=1)
        merged = HsmStats.merge([busy, idle])
        assert merged.hit_rate == pytest.approx(9 / 11)

    def test_merge_of_nothing_is_zero(self):
        merged = HsmStats.merge([])
        assert merged == HsmStats()
        assert merged.hit_rate == 0.0

    def test_merge_live_stores(self):
        def loaded_store(names, cache_gb):
            library = RoboticTapeLibrary(f"lib-{names[0]}", tiny_tape(capacity_gb=100))
            hsm = HierarchicalStore(library, cache_capacity=DataSize.gigabytes(cache_gb))
            for name in names:
                hsm.store(name, DataSize.gigabytes(1))
            for name in names:
                hsm.read(name)
            return hsm

        hot = loaded_store(["h1", "h2"], cache_gb=10)   # everything hits
        cold = loaded_store(["c1", "c2", "c3"], cache_gb=1)  # everything misses
        merged = HsmStats.merge([hot.stats, cold.stats])
        assert merged.hits == hot.stats.hits
        assert merged.misses == cold.stats.misses
        assert merged.bytes_recalled == pytest.approx(
            hot.stats.bytes_recalled + cold.stats.bytes_recalled
        )
        total = merged.hits + merged.misses
        assert merged.hit_rate == pytest.approx(merged.hits / total)


class TestCartridgeLossRecovery:
    """fail_cartridge at the HSM level: the disk tier saves what it holds."""

    def loaded_hsm(self, cache_gb=3):
        library = RoboticTapeLibrary("ctc", tiny_tape(capacity_gb=100))
        hsm = HierarchicalStore(library, cache_capacity=DataSize.gigabytes(cache_gb))
        for name in ("a", "b", "c", "d"):
            hsm.store(name, DataSize.gigabytes(1))
        return library, hsm

    def test_report_partitions_lost_files_by_disk_copy(self):
        library, hsm = self.loaded_hsm(cache_gb=3)
        # Write-through + LRU: storing d evicted a, so a exists only on tape.
        assert not hsm.is_cached("a")
        report = hsm.fail_cartridge(0)
        assert report.lost == ["a", "b", "c", "d"]
        assert report.recoverable == ["b", "c", "d"]
        assert report.unrecoverable == ["a"]

    def test_remigration_rearchives_the_survivors(self):
        library, hsm = self.loaded_hsm(cache_gb=3)
        report = hsm.fail_cartridge(0)
        assert library.stats.writes == 4 + len(report.recoverable) == 7
        # Re-archived to a fresh cartridge, still cached, still readable.
        for name in ("b", "c", "d"):
            assert library.holds(name)
            assert hsm.is_cached(name)
            file, _ = hsm.read(name)
            assert file.verify()
        assert not library.holds("a")

    def test_remigrate_false_reports_but_evicts(self):
        library, hsm = self.loaded_hsm(cache_gb=3)
        report = hsm.fail_cartridge(0, remigrate=False)
        assert report.recoverable == ["b", "c", "d"]
        # Declined: nothing re-archived, and no cache entry dangles over
        # dead tape.
        for name in ("b", "c", "d"):
            assert not library.holds(name)
            assert not hsm.is_cached(name)
        assert library.stats.writes == 4

    @pytest.mark.parametrize("index", [-1, 1, 5])
    def test_fail_cartridge_refuses_an_index_the_library_does_not_hold(self, index):
        library, hsm = self.loaded_hsm(cache_gb=3)
        with pytest.raises(StorageError, match=f"no cartridge {index}"):
            hsm.fail_cartridge(index)
        assert [library.holds(name) for name in "abcd"] == [True] * 4
        assert [hsm.is_cached(name) for name in "abcd"] == [False, True, True, True]

    def test_unrecoverable_files_cannot_be_read(self):
        library, hsm = self.loaded_hsm(cache_gb=3)
        hsm.fail_cartridge(0)
        with pytest.raises(StorageError):
            hsm.read("a")


class TestTapeFaultShims:
    def make_plan(self, *specs, seed=17):
        return FaultPlan(specs=tuple(specs), seed=seed)

    def test_archive_crash_leaves_no_partial_state(self):
        plan = self.make_plan(
            FaultSpec(name="robot-jam", scope="storage",
                      target="ctc/archive", kind="crash", max_fires=1)
        )
        library = RoboticTapeLibrary("ctc", tiny_tape(), faults=plan.arm())
        with pytest.raises(InjectedFault):
            library.archive("a", DataSize.gigabytes(1))
        # Nothing mutated: the retry succeeds without a duplicate error.
        assert not library.holds("a")
        library.archive("a", DataSize.gigabytes(1))
        assert library.holds("a")

    def test_recall_delay_charges_simulated_stall(self):
        plan = self.make_plan(
            FaultSpec(name="slow-mount", scope="storage",
                      target="ctc/recall", kind="delay", param=300.0)
        )
        clean = RoboticTapeLibrary("ctc", tiny_tape())
        clean.archive("a", DataSize.gigabytes(1))
        _, baseline = clean.recall("a")
        faulted = RoboticTapeLibrary("ctc", tiny_tape(), faults=plan.arm())
        faulted.archive("a", DataSize.gigabytes(1))
        _, elapsed = faulted.recall("a")
        assert elapsed.seconds == pytest.approx(baseline.seconds + 300.0)

    def test_recall_corruption_damages_the_copy_not_the_archive(self):
        plan = self.make_plan(
            FaultSpec(name="bad-read", scope="storage",
                      target="ctc/recall", kind="corrupt", max_fires=1)
        )
        library = RoboticTapeLibrary("ctc", tiny_tape(), faults=plan.arm())
        library.archive("a", DataSize.gigabytes(1))
        file, _ = library.recall("a")
        assert not file.verify()  # the bad read
        file, _ = library.recall("a")
        assert file.verify()  # re-read succeeds: archive copy intact


class ResummingCache:
    """The LRU tier as a plain model: the total is re-summed on every test."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.cache = OrderedDict()
        self.evicted = []

    def admit(self, name, size):
        while sum(self.cache.values()) + size > self.capacity:
            evicted, _ = self.cache.popitem(last=False)
            self.evicted.append(evicted)
        self.cache[name] = size


NAMES = st.sampled_from("abcdefgh")
HSM_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("store"), NAMES, st.integers(1, 12)),
        st.tuples(st.just("read"), NAMES),
        st.tuples(st.just("recall_set"), st.lists(NAMES, max_size=4)),
        st.tuples(st.just("fail"), st.integers(0, 4), st.booleans()),
    ),
    max_size=40,
)


class TestRunningCacheTotal:
    """The cached bytes are a running total, kept at every cache mutation.

    Every file fits the cache (sizes 1-12 B, capacity 12-30 B); an
    oversized one is refused before the cache changes (tested above).
    """

    @settings(max_examples=200, deadline=None)
    @given(capacity=st.integers(12, 30), operations=HSM_OPERATIONS)
    # A name listed twice is recalled twice: its second admission replaces
    # its first in place.
    @example(capacity=12, operations=[
        ("store", "a", 5), ("store", "b", 12), ("recall_set", ["a", "a"]),
    ])
    def test_the_total_and_the_evictions_match_a_resumming_model(self, capacity, operations):
        media = MediaType(
            name="byte tape", capacity=DataSize(20.0),
            read_rate=Rate.megabytes_per_second(100),
            write_rate=Rate.megabytes_per_second(100),
            mount_latency=Duration.from_seconds(1), unit_cost=1.0,
        )
        library = RoboticTapeLibrary("ctc", media)
        bus = Telemetry()
        hsm = HierarchicalStore(library, cache_capacity=DataSize(float(capacity)), telemetry=bus)
        model = ResummingCache(capacity)
        sizes = {}
        for operation, *args in operations:
            if operation == "store":
                name, size = args
                if library.holds(name):
                    with pytest.raises(StorageError):
                        hsm.store(name, DataSize(float(size)))
                else:
                    hsm.store(name, DataSize(float(size)))
                    sizes[name] = size
                    model.admit(name, size)
            elif operation == "read":
                (name,) = args
                if not library.holds(name):
                    with pytest.raises(StorageError):
                        hsm.read(name)
                elif name in model.cache:
                    hsm.read(name)
                    model.cache.move_to_end(name)
                else:
                    hsm.read(name)
                    model.admit(name, sizes[name])
            elif operation == "recall_set":
                (names,) = args
                to_recall = [name for name in names if name not in model.cache]
                if not all(library.holds(name) for name in to_recall):
                    with pytest.raises(StorageError):
                        hsm.recall_set(names)
                else:
                    files, _ = hsm.recall_set(names)
                    # The recall order is the library's (cartridge-major).
                    assert sorted(file.name for file in files) == sorted(to_recall)
                    for file in files:
                        model.admit(file.name, sizes[file.name])
            else:
                index, remigrate = args
                if index >= library.cartridge_count:
                    with pytest.raises(StorageError):
                        hsm.fail_cartridge(index, remigrate=remigrate)
                    continue
                report = hsm.fail_cartridge(index, remigrate=remigrate)
                assert report.recoverable == [n for n in report.lost if n in model.cache]
                if not remigrate:
                    for name in report.recoverable:
                        del model.cache[name]
            assert hsm._cached_bytes == sum(size.bytes for size in hsm._cache.values())
            assert hsm._cached_bytes == sum(model.cache.values())
            assert list(hsm._cache) == list(model.cache)
            assert [event.name for event in bus.events(kind="storage.evict")] == model.evicted
            assert hsm.stats.evictions == len(model.evicted)
