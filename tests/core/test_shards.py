"""Shard-level fan-out: ordering, telemetry forwarding, shared memory.

The pool's contract: for any executor and worker count, ``map`` returns
results in item order and the telemetry stream the parent observes is the
same as if the shards had run inline.
"""

import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core.errors import ShardError
from repro.core.shards import (
    EXECUTORS,
    SharedArray,
    ShardPool,
    shared_arrays,
)
from repro.core.telemetry import Telemetry, telemetry_session


def square(x):
    return x * x


def emitting_shard(x):
    from repro.core.telemetry import get_telemetry

    bus = get_telemetry()
    bus.emit("service.call", f"shard-{x}", payload=x)
    bus.registry.counter("shard.count").inc()
    return x + 100


def failing_shard(x):
    if x == 2:
        raise ValueError("shard 2 blew up")
    return x


class TestShardPool:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_results_in_item_order(self, executor):
        items = list(range(8))
        with ShardPool(executor=executor, workers=3) as pool:
            assert pool.map(square, items) == [x * x for x in items]

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_empty_items(self, executor):
        with ShardPool(executor=executor, workers=2) as pool:
            assert pool.map(square, []) == []

    def test_one_worker_degrades_to_serial(self):
        pool = ShardPool(executor="process", workers=1)
        assert pool.effective_executor == "serial"
        # Serial mode never builds a pool, so even unpicklable closures run.
        assert pool.map(lambda x: x + 1, [1, 2]) == [2, 3]

    def test_pool_reuse_across_maps(self):
        with ShardPool(executor="process", workers=2) as pool:
            assert pool.map(square, [1, 2, 3]) == [1, 4, 9]
            assert pool.map(square, [4, 5]) == [16, 25]

    def test_closed_pool_rejects_map(self):
        pool = ShardPool(executor="thread", workers=2)
        pool.close()
        with pytest.raises(ShardError):
            pool.map(square, [1])

    def test_bad_arguments(self):
        with pytest.raises(ShardError):
            ShardPool(executor="coroutine")
        with pytest.raises(ShardError):
            ShardPool(workers=0)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_shard_exception_propagates(self, executor):
        with ShardPool(executor=executor, workers=2) as pool:
            with pytest.raises(ValueError, match="shard 2"):
                pool.map(failing_shard, [1, 2, 3])


class TestTelemetryForwarding:
    def events_for(self, executor):
        telemetry = Telemetry()
        with ShardPool(executor=executor, workers=2, telemetry=telemetry) as pool:
            values = pool.map(emitting_shard, [0, 1, 2])
        return values, telemetry

    def test_process_forwarding_matches_serial(self):
        # Serial/thread shards emit straight into the given bus only via
        # the process-default substrate, so compare against an explicit
        # session capturing the inline run.
        with telemetry_session() as session:
            inline_values = [emitting_shard(x) for x in [0, 1, 2]]
            inline = [
                (e.kind, e.name, dict(e.attrs)) for e in session.events()
            ]
            inline_count = session.registry.value("shard.count")

        values, telemetry = self.events_for("process")
        forwarded = [
            (e.kind, e.name, dict(e.attrs)) for e in telemetry.events()
        ]
        assert values == inline_values
        assert forwarded == inline
        assert telemetry.registry.value("shard.count") == inline_count

    def test_forwarded_events_get_parent_sequence(self):
        _, telemetry = self.events_for("process")
        assert [e.seq for e in telemetry.events()] == [0, 1, 2]


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
        data = np.arange(10, dtype=np.float64)
        handle = SharedArray.copy_from(data)
        try:
            clone = pickle.loads(pickle.dumps(handle))
            np.testing.assert_array_equal(clone.array, data)
            # The attachment sees writes through — same segment, no copy.
            handle.array[0] = -1.0
            assert clone.array[0] == -1.0
            clone.close()
        finally:
            handle.close()
            handle.unlink()

    def test_attachment_never_unlinks(self):
        data = np.ones(4, dtype=np.float32)
        handle = SharedArray.copy_from(data)
        try:
            clone = pickle.loads(pickle.dumps(handle))
            clone.unlink()  # no-op: not the owner
            clone.close()
            np.testing.assert_array_equal(handle.array, data)
        finally:
            handle.close()
            handle.unlink()

    def test_copy_survives_unlink(self):
        handle = SharedArray.copy_from(np.full(3, 7, dtype=np.int64))
        private = handle.copy()
        handle.close()
        handle.unlink()
        np.testing.assert_array_equal(private, np.full(3, 7, dtype=np.int64))

    def test_shared_arrays_scope(self):
        blocks = [np.arange(6, dtype=np.float32), np.zeros((2, 2))]
        with shared_arrays(blocks) as handles:
            names = [h.name for h in handles]
            for block, handle in zip(blocks, handles):
                np.testing.assert_array_equal(handle.array, block)
        from multiprocessing import shared_memory

        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_failed_copy_unlinks_the_segments_already_made(self, monkeypatch):
        """``/dev/shm`` fills on the third block: the first two must go."""
        from multiprocessing import shared_memory

        real_copy = SharedArray.copy_from
        created = []

        def copy_or_fail(array):
            if len(created) == 2:
                raise OSError(28, "No space left on device")
            created.append(real_copy(array))
            return created[-1]

        monkeypatch.setattr(SharedArray, "copy_from", copy_or_fail)
        with pytest.raises(OSError, match="No space left"):
            with shared_arrays([np.ones(4)] * 3):
                pytest.fail("yielded after a failed copy")
        assert len(created) == 2
        for handle in created:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=handle.name)


def read_shared_sum(handle):
    try:
        return float(handle.array.sum())
    finally:
        handle.close()


class TestSharedArrayAcrossProcesses:
    def test_worker_reads_parent_segment(self):
        data = np.arange(32, dtype=np.float32)
        with shared_arrays([data]) as handles:
            with ShardPool(executor="process", workers=2) as pool:
                (total,) = pool.map(read_shared_sum, handles)
        assert total == float(data.sum())

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
                from repro.core.shards import ShardPool, SharedArray

                def noop(x):
                    return x

                def total(handle):
                    return float(handle.array.sum())

                if __name__ == "__main__":
                    with ShardPool(executor="process", workers=2) as pool:
                        pool.map(noop, [1, 2, 3])
                        handles = [
                            SharedArray.copy_from(np.arange(8.0) + i)
                            for i in range(4)
                        ]
                        print(pool.map(total, handles))
                        for handle in handles:
                            handle.close()
                            handle.unlink()
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
