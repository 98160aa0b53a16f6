"""Shard-level fan-out: inline, or across worker processes.

All three case-study flows contain one dominant data-parallel stage — the
per-pointing Arecibo search, the per-run CLEO reconstruction batch, the
per-snapshot WebLab packing — and the paper's production answer to all of
them is the same: a farm.  A central store feeds many independent workers
and results are merged back in a deterministic order (the CDF
data-processing model referenced in PAPERS.md).

This module is that farm, scaled to one machine.  A :class:`ShardPool`
maps a function over a list of *shard* work items, and its one number,
``workers``, picks how:

* ``workers == 1`` runs the shards inline in the calling thread — the
  reference semantics;
* ``workers > 1`` fans them out across that many worker *processes*, the
  true multi-core path.  The shard function must be picklable (a
  module-level function) and so must its items.

Shards never run on extra threads: the kernels already tile their rows
over every core (:func:`repro.core.kernels.run_tiles`), so shard threads
would only contend with those tiles for the same cores.

Either way, results are returned **in item order** — never in completion
order — so a stage that merges shard results positionally is
byte-identical for any worker count.  That is the same determinism
contract the engine holds for whole stages.

A shard returns its value and nothing else: no shard function is handed
a bus, so a worker process has nothing to send home but the value.

In process mode the pool pickles each item itself, and every large NumPy
array in it crosses in a :class:`SharedArray` segment instead of the
pickle pipe: the task carries the segment's name, the worker maps a
zero-copy view, and the pool unlinks every segment it made when the map
ends.  The decision is the pool's alone, by size; a transform hands over
the same items whatever its shards run on.
"""

from __future__ import annotations

import copyreg
import io
import mmap
import multiprocessing
import pickle
from concurrent.futures import Future, ProcessPoolExecutor, wait
from functools import partial
from multiprocessing import resource_tracker, shared_memory
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ShardError

#: An array crosses to a worker process in shared memory from this many
#: bytes up.  Below it a segment — create, copy in, attach, map, unlink:
#: a fixed ≈ 0.07 ms on a 2-CPU box — costs more than pickling the bytes
#: through the pipe; from here to ≈ 192 KiB the two differ by less than
#: that fixed cost, and beyond it the segment wins (≈ 40 % at 256 KiB,
#: ≈ 2.3 x at 1 MiB).
SHARE_MIN_BYTES = 64 * 1024


# -- shared-memory arrays -------------------------------------------------
#: Segment names created (owned) by this process.  An attachment made in
#: the owning process — e.g. a same-process unpickle in tests — must NOT
#: untrack, or the owner's eventual unlink double-unregisters.
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

    The creating process owns the segment and must :meth:`unlink` it when
    every consumer is done; :meth:`ShardPool.map` does so for the segments
    it makes.  Another process sees the same bytes with zero copies
    through :func:`_attach`.

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

    def __repr__(self) -> str:
        return (
            f"SharedArray({self._shm.name!r}, shape={self._shape}, "
            f"dtype={self._dtype}, owner={self._owner})"
        )


def _attach(name: str, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """Unpickle side of a shared array: a zero-copy view of segment ``name``.

    The view holds a private mapping of the segment, so the bytes stay
    mapped exactly as long as the view or anything derived from it lives
    — through the shard, and through pickling its result should the
    shard return its input.  Only the owner ever unlinks.
    """
    segment = shared_memory.SharedMemory(name=name)
    _untrack(segment._name)  # type: ignore[attr-defined]
    try:
        mapping = mmap.mmap(segment._fd, segment.size)  # type: ignore[attr-defined]
    finally:
        segment.close()
    return np.ndarray(shape, dtype=dtype, buffer=mapping)


def _share(array: np.ndarray, segments: List[SharedArray]):
    """Pickle reduction of an ndarray in a shard item: a large C-contiguous
    block of plain values goes to a fresh segment (kept in ``segments``
    for the pool to unlink) and is rebuilt by :func:`_attach`; any other
    array pickles as it always does."""
    if (
        array.nbytes < SHARE_MIN_BYTES
        or not array.flags.c_contiguous
        or array.dtype.hasobject
    ):
        return array.__reduce_ex__(5)
    handle = SharedArray.copy_from(array)
    segments.append(handle)
    return _attach, (handle.name, handle.shape, handle.dtype)


def _dumps(item: object, segments: List[SharedArray]) -> bytes:
    """Pickle one shard item for a worker process (protocol 5); every
    segment its large arrays went to is appended to ``segments``."""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=5)
    pickler.dispatch_table = {
        **copyreg.dispatch_table,
        np.ndarray: partial(_share, segments=segments),
    }
    pickler.dump(item)
    return buffer.getvalue()


# -- shard execution ------------------------------------------------------
def _run_shard(fn: Callable, payload: bytes) -> object:
    """Worker-process entry point: unpickle one item and run its shard.

    The item's large arrays arrive as views of the parent's segments
    (:func:`_attach`) and stay mapped while the shard holds them.
    """
    return fn(pickle.loads(payload))


class ShardPool:
    """Maps shard functions over work items, inline or on worker processes.

    ``workers == 1`` runs every map inline; ``workers > 1`` runs it on that
    many worker processes, started on the first :meth:`map` and reused
    until :meth:`close`.  The pool is also a context manager.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ShardError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._closed = False

    def map(self, fn: Callable, items: Sequence) -> List:
        """Run ``fn`` over ``items``; results come back in item order.

        A shard that raises aborts the map and re-raises in the caller
        (after the remaining shards settle), matching the inline path's
        first-failure semantics for items before the failure.

        Inline shards get the items themselves.  Process shards get a
        protocol-5 pickle of each item in which every C-contiguous array
        of at least :data:`SHARE_MIN_BYTES` travels through shared
        memory; the segments are closed and unlinked when the map returns
        or raises — a raising shard and an item that fails to pickle
        included.
        """
        if self._closed:
            raise ShardError("shard pool is closed")
        items = list(items)
        if not items:
            return []
        if self.workers == 1:
            return [fn(item) for item in items]
        if self._pool is None:
            # Workers must fork *after* the tracker exists: a worker
            # forked before the parent's first SharedArray would start
            # a private tracker on attach and report every segment as
            # leaked (the premise _untrack's fork branch rests on).
            resource_tracker.ensure_running()
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        segments: List[SharedArray] = []
        futures: List[Future] = []
        try:
            for item in items:
                payload = _dumps(item, segments)
                futures.append(self._pool.submit(_run_shard, fn, payload))
            return [future.result() for future in futures]
        finally:
            wait(futures)
            for segment in segments:
                segment.close()
                segment.unlink()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._closed = True

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
