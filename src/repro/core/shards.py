"""Shard-level fan-out across threads or worker processes.

All three case-study flows contain one dominant data-parallel stage — the
per-pointing Arecibo search, the per-run CLEO reconstruction batch, the
per-snapshot WebLab packing — and the paper's production answer to all of
them is the same: a farm.  A central store feeds many independent workers
and results are merged back in a deterministic order (the CDF
data-processing model referenced in PAPERS.md).

This module is that farm, scaled to one machine.  A :class:`ShardPool`
maps a function over a list of *shard* work items:

* ``executor="serial"`` (or ``workers == 1``) runs the shards inline in
  the calling thread — the reference semantics;
* ``executor="thread"`` fans them out across a thread pool (NumPy-bound
  shards overlap where the kernels release the GIL);
* ``executor="process"`` fans them out across worker *processes*, the
  true multi-core path.  The shard function must be picklable (a
  module-level function) and so must its items.

Whatever the executor, results are returned **in item order** — never in
completion order — so a stage that merges shard results positionally is
byte-identical for any executor and worker count.  That is the same
determinism contract the engine holds for whole stages.

Two supporting pieces keep process sharding observably identical to the
thread path:

* **Child telemetry forwarding** — a worker process cannot append to the
  parent's event bus, so each shard runs under a fresh process-default
  :class:`~repro.core.telemetry.Telemetry`
  (:func:`~repro.core.telemetry.capture_events`) and the captured events
  and counter values ride home with the shard result, where the pool
  re-emits them (:func:`~repro.core.telemetry.forward_events`) in shard
  order.
* **Shared-memory transfer** — :class:`SharedArray` moves large NumPy
  blocks (filterbank spectra, DM trial matrices) to workers through
  ``multiprocessing.shared_memory`` instead of pickling the bytes
  through a pipe: pickling a handle costs the metadata, not the array.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from multiprocessing import resource_tracker, shared_memory
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ShardError
from repro.core.telemetry import (
    Telemetry,
    capture_events,
    forward_events,
    get_telemetry,
)

EXECUTORS: Tuple[str, ...] = ("serial", "thread", "process")


# -- shared-memory arrays -------------------------------------------------
#: Segment names created (owned) by this process.  An attachment made in
#: the owning process — e.g. a same-process pickle round-trip in tests —
#: must NOT untrack, or the owner's eventual unlink double-unregisters.
_owned_segments: set = set()


def _untrack(name: str) -> None:
    """Drop one attached segment from the resource tracker's books.

    Attaching registers the segment with the process's resource tracker,
    but only the *owner* ever unlinks (bpo-39959), so spawn-started
    workers — each with a private tracker — would report every attachment
    as a leak at exit.  Fork-started workers share the parent's tracker:
    there the attach-register is a no-op on the existing entry and
    unregistering here would erase the owner's registration instead
    (the owner's later unlink then double-unregisters).  So: untrack only
    when this process does not share the creator's tracker — i.e. not in
    the owning process itself, and not under the fork start method.
    """
    if name in _owned_segments:
        return
    try:
        if multiprocessing.get_start_method(allow_none=True) == "fork":
            return
        resource_tracker.unregister(name, "shared_memory")
    except Exception:  # noqa: BLE001 - tracker absence/platform quirks
        pass


class SharedArray:
    """A NumPy array whose buffer lives in named shared memory.

    Pickling a :class:`SharedArray` serializes only ``(segment name,
    shape, dtype)``; the receiving process attaches the existing segment
    and sees the same bytes with zero copies.  The creating process owns
    the segment and must call :meth:`unlink` when every consumer is done
    (see :func:`shared_arrays` for the scoped idiom).

    Views returned by :attr:`array` borrow the mapping — do not use them
    after :meth:`close`.
    """

    def __init__(self, shm: shared_memory.SharedMemory, shape: Tuple[int, ...],
                 dtype: np.dtype, owner: bool):
        self._shm = shm
        self._shape = tuple(int(dim) for dim in shape)
        self._dtype = np.dtype(dtype)
        self._owner = owner

    @classmethod
    def copy_from(cls, array: np.ndarray) -> "SharedArray":
        """Copy ``array`` into a fresh shared segment owned by this process."""
        array = np.ascontiguousarray(array)
        shm = shared_memory.SharedMemory(create=True, size=max(array.nbytes, 1))
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        view[...] = array
        _owned_segments.add(shm._name)  # type: ignore[attr-defined]
        return cls(shm, array.shape, array.dtype, owner=True)

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def shape(self) -> Tuple[int, ...]:
        return self._shape

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def nbytes(self) -> int:
        return int(np.prod(self._shape, dtype=np.int64)) * self._dtype.itemsize

    @property
    def array(self) -> np.ndarray:
        """A zero-copy view over the shared segment."""
        return np.ndarray(self._shape, dtype=self._dtype, buffer=self._shm.buf)

    def copy(self) -> np.ndarray:
        """A private copy that survives :meth:`close`/:meth:`unlink`."""
        return self.array.copy()

    def close(self) -> None:
        """Detach this process's mapping (the segment itself survives)."""
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment.  Owner only; attachments must not unlink."""
        if self._owner:
            self._shm.unlink()
            _owned_segments.discard(self._shm._name)  # type: ignore[attr-defined]

    def __getstate__(self) -> dict:
        return {
            "name": self._shm.name,
            "shape": self._shape,
            "dtype": self._dtype.str,
        }

    def __setstate__(self, state: dict) -> None:
        shm = shared_memory.SharedMemory(name=state["name"])
        _untrack(shm._name)  # type: ignore[attr-defined]
        self._shm = shm
        self._shape = tuple(state["shape"])
        self._dtype = np.dtype(state["dtype"])
        self._owner = False

    def __repr__(self) -> str:
        return (
            f"SharedArray({self._shm.name!r}, shape={self._shape}, "
            f"dtype={self._dtype}, owner={self._owner})"
        )


@contextmanager
def shared_arrays(arrays: Sequence[np.ndarray]) -> Iterator[List[SharedArray]]:
    """Scope a batch of arrays into shared memory; unlink on exit.

    The yield happens after every array is copied in; on exit — or when
    a copy fails part-way, e.g. ``/dev/shm`` is full — the owner closes
    and unlinks every segment created so far.  Workers that are still
    mapped keep the bytes alive until their own mappings drop (POSIX
    semantics), so unlinking after a completed :meth:`ShardPool.map` is
    always safe.
    """
    handles: List[SharedArray] = []
    try:
        for array in arrays:
            handles.append(SharedArray.copy_from(array))
        yield handles
    finally:
        for handle in handles:
            handle.close()
            handle.unlink()


# -- shard execution ------------------------------------------------------
def _run_shard(fn: Callable, item: object) -> Tuple[object, list, dict]:
    """Worker-process entry point: run one shard under a fresh substrate.

    Everything the shard emits into the process-default telemetry is
    captured and returned (the tuple records pickle as they are)
    alongside the result, so the parent can forward it in shard order.
    """
    return capture_events(lambda: fn(item))


class ShardPool:
    """Maps shard functions over work items on a chosen executor.

    Parameters
    ----------
    executor:
        ``"serial"``, ``"thread"``, or ``"process"``.
    workers:
        Concurrency; ``1`` always degrades to the serial path.
    telemetry:
        Where forwarded child-process events land; defaults to the
        process-default substrate (which is exactly where thread-mode
        shards emit directly, keeping the two paths equivalent).

    The underlying pool is created lazily on first :meth:`map` and reused
    until :meth:`close`; the pool is also a context manager.
    """

    def __init__(
        self,
        executor: str = "thread",
        workers: int = 1,
        telemetry: Optional[Telemetry] = None,
    ):
        if executor not in EXECUTORS:
            raise ShardError(
                f"unknown shard executor {executor!r}; pick one of {EXECUTORS}"
            )
        if workers < 1:
            raise ShardError(f"workers must be >= 1, got {workers}")
        self.executor = executor
        self.workers = int(workers)
        self._telemetry = telemetry
        self._pool: Optional[object] = None
        self._closed = False

    @property
    def effective_executor(self) -> str:
        """The executor shards actually run on (``workers == 1`` is serial)."""
        if self.workers == 1:
            return "serial"
        return self.executor

    def _ensure_pool(self) -> object:
        if self._pool is None:
            if self.effective_executor == "thread":
                self._pool = ThreadPoolExecutor(max_workers=self.workers)
            elif self.effective_executor == "process":
                # Workers must fork *after* the tracker exists: a worker
                # forked before the parent's first SharedArray would start
                # a private tracker on attach and report every segment as
                # leaked (the premise _untrack's fork branch rests on).
                resource_tracker.ensure_running()
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def map(self, fn: Callable, items: Sequence) -> List:
        """Run ``fn`` over ``items``; results come back in item order.

        A shard that raises aborts the map and re-raises in the caller
        (after the remaining shards settle), matching the serial path's
        first-failure semantics for items before the failure.
        """
        if self._closed:
            raise ShardError("shard pool is closed")
        items = list(items)
        if not items:
            return []
        mode = self.effective_executor
        if mode == "serial":
            return [fn(item) for item in items]
        if mode == "thread":
            pool = self._ensure_pool()
            return list(pool.map(fn, items))  # type: ignore[union-attr]
        # Process mode: run each shard under a fresh child substrate and
        # forward its telemetry home in shard order.
        pool = self._ensure_pool()
        futures = [pool.submit(_run_shard, fn, item) for item in items]  # type: ignore[union-attr]
        bus = self._telemetry if self._telemetry is not None else get_telemetry()
        values: List[object] = []
        for future in futures:
            value, events, counters = future.result()
            forward_events(bus, events, counters)
            values.append(value)
        return values

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)  # type: ignore[union-attr]
            self._pool = None
        self._closed = True

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
