"""Shard-level fan-out: ordering, telemetry forwarding, shared memory.

The pool's contract: for any worker count — one runs the shards inline,
more run them on worker processes — ``map`` returns results in item order
and the telemetry stream the parent observes is the same as if the shards
had run inline.  In process mode the pool alone decides how an item
crosses: large arrays through shared memory, segments gone when the map
ends.
"""

import mmap
import os
import pickle
import subprocess
import sys
import textwrap
import threading
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.arecibo.filterbank import Filterbank
from repro.core.errors import ShardError
from repro.core.shards import SHARE_MIN_BYTES, SharedArray, ShardPool, _dumps

#: The pool's two modes: one worker runs the shards inline, two run them
#: on worker processes.
MODES = pytest.mark.parametrize("workers", [1, 2], ids=["serial", "process"])


def square(x):
    return x * x


def failing_shard(x):
    if x == 2:
        raise ValueError("shard 2 blew up")
    return x


class TestShardPool:
    @MODES
    def test_results_in_item_order(self, workers):
        items = list(range(8))
        with ShardPool(workers) as pool:
            assert pool.map(square, items) == [x * x for x in items]

    @MODES
    def test_empty_items(self, workers):
        with ShardPool(workers) as pool:
            assert pool.map(square, []) == []

    def test_one_worker_degrades_to_serial(self):
        pool = ShardPool(1)
        # One worker never starts a process, so even unpicklable closures run.
        assert pool.map(lambda x: x + 1, [1, 2]) == [2, 3]

    def test_pool_reuse_across_maps(self):
        with ShardPool(2) as pool:
            assert pool.map(square, [1, 2, 3]) == [1, 4, 9]
            assert pool.map(square, [4, 5]) == [16, 25]

    def test_closed_pool_rejects_map(self):
        pool = ShardPool(2)
        pool.close()
        with pytest.raises(ShardError):
            pool.map(square, [1])

    def test_bad_arguments(self):
        with pytest.raises(ShardError):
            ShardPool(0)

    @MODES
    def test_shard_exception_propagates(self, workers):
        with ShardPool(workers) as pool:
            with pytest.raises(ValueError, match="shard 2"):
                pool.map(failing_shard, [1, 2, 3])


#: The smallest array the pool sends through shared memory, and one it pickles.
LARGE = np.arange(SHARE_MIN_BYTES // 4, dtype=np.float32)
SMALL = np.arange(16, dtype=np.float64)


def psm_segments():
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def arrays_in(item, path="item"):
    """``(path, array)`` for every array ``item`` holds, depth first."""
    if isinstance(item, np.ndarray):
        yield path, item
    elif isinstance(item, Filterbank):
        yield from arrays_in(item.data, f"{path}.data")
    elif isinstance(item, dict):
        for key in sorted(item):
            yield from arrays_in(item[key], f"{path}[{key!r}]")
    elif isinstance(item, (list, tuple)):
        for index, value in enumerate(item):
            yield from arrays_in(value, f"{path}[{index}]")


def in_shared_memory(array):
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    return isinstance(base, mmap.mmap)


def describe(item):
    return [
        (path, array.dtype.str, array.shape, float(array.sum()), in_shared_memory(array))
        for path, array in arrays_in(item)
    ]


def echo(item):
    return item


def total(array):
    return float(array.sum())


def fail_on_negative(array):
    if array[0] < 0:
        raise ValueError("negative block")
    return float(array.sum())


def mixed_items():
    filterbank = Filterbank(
        data=np.ones((64, 1024), dtype=np.float32) * 3,
        freq_low_mhz=1200.0, freq_high_mhz=1500.0, tsamp_s=1e-3, beam=4,
    )
    return [
        LARGE,
        SMALL,
        filterbank,
        {"blocks": [LARGE * 2, SMALL], "meta": ("p0001", 7)},
    ]


class TestProcessItems:
    """In process mode each item is the pool's own protocol-5 pickle."""

    def test_results_equal_the_serial_map(self):
        items = mixed_items()
        serial = ShardPool(1).map(describe, items)
        with ShardPool(2) as pool:
            shared = pool.map(describe, items)
            echoed = pool.map(echo, items)
        assert [row[:4] for rows in shared for row in rows] == [
            row[:4] for rows in serial for row in rows
        ]
        for back, item in zip(echoed, items):
            for (path, got), (_, want) in zip(arrays_in(back), arrays_in(item)):
                np.testing.assert_array_equal(got, want, err_msg=path)
        assert echoed[2].beam == 4
        assert echoed[3]["meta"] == ("p0001", 7)

    def test_large_arrays_are_shared_small_ones_copied(self):
        with ShardPool(2) as pool:
            shared = pool.map(describe, mixed_items() + [LARGE[:-1].copy()])
        # LARGE, SMALL, the filterbank's block, the nested pair, and one
        # element under the threshold.
        assert [[flag for *_, flag in rows] for rows in shared] == [
            [True], [False], [True], [True, False], [False]
        ]

    def test_inline_shards_get_the_items_themselves(self):
        items = mixed_items()
        with ShardPool(1) as pool:
            back = pool.map(echo, items)
        assert all(got is item for got, item in zip(back, items))


class TestSegmentLifetime:
    """Every segment a map makes is unlinked when the map ends."""

    def test_raising_shard_leaves_nothing(self):
        before = psm_segments()
        with ShardPool(2) as pool:
            with pytest.raises(ValueError, match="negative block"):
                pool.map(fail_on_negative, [LARGE, -LARGE - 1, LARGE])
        assert psm_segments() == before

    def test_unpicklable_item_unlinks_earlier_segments(self, monkeypatch):
        real_copy = SharedArray.copy_from
        created = []

        def recording_copy(array):
            created.append(real_copy(array))
            return created[-1]

        monkeypatch.setattr(SharedArray, "copy_from", recording_copy)
        before = psm_segments()
        with ShardPool(2) as pool:
            with pytest.raises(TypeError, match="pickle"):
                pool.map(echo, [LARGE, LARGE, (LARGE, threading.Lock())])
        assert len(created) == 3
        assert psm_segments() == before


class TestSharedArray:
    def test_round_trip_preserves_bytes(self):
        data = np.arange(24, dtype=np.float32).reshape(4, 6)
        handle = SharedArray.copy_from(data)
        try:
            assert handle.shape == (4, 6)
            assert handle.dtype == np.float32
            assert handle.nbytes == data.nbytes
            np.testing.assert_array_equal(handle.array, data)
        finally:
            handle.close()
            handle.unlink()

    def test_pickle_attaches_same_segment(self):
        data = np.arange(LARGE.size, dtype=np.float64)
        segments = []
        view = pickle.loads(_dumps({"block": data}, segments))["block"]
        (handle,) = segments
        try:
            np.testing.assert_array_equal(view, data)
            assert in_shared_memory(view)
            # The attachment sees writes through — same segment, no copy.
            handle.array[0] = -1.0
            assert view[0] == -1.0
        finally:
            del view
            handle.close()
            handle.unlink()

    def test_attachment_never_unlinks(self):
        segments = []
        view = pickle.loads(_dumps(LARGE, segments))
        (handle,) = segments
        try:
            del view  # drops the attachment's mapping, not the segment
            shared_memory.SharedMemory(name=handle.name).close()
            np.testing.assert_array_equal(handle.array, LARGE)
        finally:
            handle.close()
            handle.unlink()

    def test_copy_survives_unlink(self):
        handle = SharedArray.copy_from(np.full(3, 7, dtype=np.int64))
        private = handle.copy()
        handle.close()
        handle.unlink()
        np.testing.assert_array_equal(private, np.full(3, 7, dtype=np.int64))

    def test_shared_arrays_scope(self, monkeypatch):
        """The segments of a map are the map's: gone when it returns."""
        real_copy = SharedArray.copy_from
        created = []

        def recording_copy(array):
            created.append(real_copy(array))
            return created[-1]

        monkeypatch.setattr(SharedArray, "copy_from", recording_copy)
        blocks = [LARGE, np.zeros((2, SHARE_MIN_BYTES // 16))]
        before = psm_segments()
        with ShardPool(2) as pool:
            assert pool.map(total, blocks) == [float(b.sum()) for b in blocks]
        assert len(created) == 2
        assert psm_segments() == before
        for handle in created:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=handle.name)

    def test_failed_copy_unlinks_the_segments_already_made(self, monkeypatch):
        """``/dev/shm`` fills on the third block: the first two must go."""
        real_copy = SharedArray.copy_from
        created = []

        def copy_or_fail(array):
            if len(created) == 2:
                raise OSError(28, "No space left on device")
            created.append(real_copy(array))
            return created[-1]

        monkeypatch.setattr(SharedArray, "copy_from", copy_or_fail)
        with ShardPool(2) as pool:
            with pytest.raises(OSError, match="No space left"):
                pool.map(total, [LARGE] * 3)
        assert len(created) == 2
        for handle in created:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=handle.name)


class TestSharedArrayAcrossProcesses:
    def test_worker_reads_parent_segment(self):
        with ShardPool(2) as pool:
            ((_, _, _, sum_seen, shared),) = pool.map(describe, [LARGE])[0]
        assert sum_seen == float(LARGE.sum())
        assert shared

    def test_pool_forked_before_first_segment_leaves_no_tracker_warnings(
        self, tmp_path
    ):
        """Figure 1's order: the pool's workers exist (forked by the
        ``acquire`` map) before the parent creates its first segment.
        Each worker used to start a private resource tracker on attach
        and report every segment as leaked at interpreter exit."""
        script = tmp_path / "farm.py"
        script.write_text(
            textwrap.dedent(
                """
                import numpy as np
                from repro.core.shards import SHARE_MIN_BYTES, ShardPool

                def noop(x):
                    return x

                def total(block):
                    return float(block[:8].sum())

                if __name__ == "__main__":
                    with ShardPool(2) as pool:
                        pool.map(noop, [1, 2, 3])
                        blocks = [
                            np.arange(SHARE_MIN_BYTES // 8, dtype=np.float64) + i
                            for i in range(4)
                        ]
                        print(pool.map(total, blocks))
                """
            ),
            encoding="utf-8",
        )
        src = Path(__file__).resolve().parents[2] / "src"
        completed = subprocess.run(
            [sys.executable, str(script)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert completed.stdout.strip() == "[28.0, 36.0, 44.0, 52.0]"
        assert "resource_tracker" not in completed.stderr
