"""Hierarchical storage management.

CLEO's data "are stored in a hierarchical storage management (HSM) system
(which automatically moves data between tape and disk cache)".  The model:
a fixed-size disk cache in front of a robotic tape library, write-through
archival, LRU eviction, and recall accounting — enough to quantify the cost
of cold reads versus the hot/warm/cold partitioning studied in experiment C7.

Accounting: every store keeps one :class:`HsmStats`, bumped in place,
and publishes ``storage.write/recall/evict`` events on the telemetry bus;
the public :attr:`HierarchicalStore.stats` property is a copy of those
books.
"""

from __future__ import annotations

from collections import OrderedDict
from copy import copy
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.core.errors import CapacityError, StorageError
from repro.core.telemetry import Telemetry
from repro.core.units import DataSize, Duration
from repro.storage.media import StoredFile
from repro.storage.tape import RoboticTapeLibrary


@dataclass
class HsmStats:
    """Cache behaviour counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes_recalled: float = 0.0
    recall_time: Duration = Duration.zero()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @classmethod
    def merge(cls, stats: Iterable["HsmStats"]) -> "HsmStats":
        """Aggregate cache stats across multiple :class:`HierarchicalStore`\\ s.

        Counters and recalled volume add; ``hit_rate`` recomputes from the
        merged hit/miss totals (it is *not* the mean of per-store rates —
        a busy store weighs more than an idle one).
        """
        merged = cls()
        for item in stats:
            merged.hits += item.hits
            merged.misses += item.misses
            merged.evictions += item.evictions
            merged.bytes_recalled += item.bytes_recalled
            merged.recall_time += item.recall_time
        return merged


@dataclass
class CartridgeLossReport:
    """What one failed cartridge took with it — and what survives on disk.

    ``recoverable`` names still have a live disk-tier copy in the HSM
    cache, so they can be re-migrated to a fresh cartridge instead of
    being silently lost; ``unrecoverable`` names existed only on the
    failed tape.  (The Arecibo operators' real procedure: when a tape or
    drive dies, re-archive whatever the disk tier still holds and request
    reshipment of the rest.)
    """

    cartridge_label: str
    lost: List[str] = field(default_factory=list)
    recoverable: List[str] = field(default_factory=list)
    unrecoverable: List[str] = field(default_factory=list)


class HierarchicalStore:
    """Tape library + LRU disk cache, write-through.

    ``store`` archives to tape and leaves a cached copy; ``read`` serves
    from cache when possible and otherwise recalls from tape, evicting
    least-recently-used cached files to make room.
    """

    def __init__(
        self,
        library: RoboticTapeLibrary,
        cache_capacity: DataSize,
        telemetry: Optional[Telemetry] = None,
    ):
        if cache_capacity.bytes <= 0:
            raise StorageError("HSM cache capacity must be positive")
        self.library = library
        self.cache_capacity = cache_capacity
        self._cache: "OrderedDict[str, DataSize]" = OrderedDict()
        #: Running sum of the sizes in ``_cache``, kept by ``_admit``,
        #: ``_drop`` and ``_make_room``: nothing else adds or removes an entry.
        self._cached_bytes = 0.0
        self._stats = HsmStats()
        self._telemetry = telemetry if telemetry is not None else Telemetry()

    @property
    def stats(self) -> HsmStats:
        """A snapshot of the cache counters: later reads do not move it."""
        return copy(self._stats)

    # -- cache bookkeeping ---------------------------------------------------
    def is_cached(self, name: str) -> bool:
        return name in self._cache

    def _make_room(self, size: DataSize) -> None:
        if size.bytes > self.cache_capacity.bytes:
            raise CapacityError(
                f"file of {size} exceeds entire HSM cache ({self.cache_capacity})"
            )
        while self._cached_bytes + size.bytes > self.cache_capacity.bytes:
            evicted_name, evicted_size = self._cache.popitem(last=False)
            self._cached_bytes -= evicted_size.bytes
            self._stats.evictions += 1
            self._telemetry.emit(
                "storage.evict",
                evicted_name,
                store=self.library.name,
                bytes=evicted_size.bytes,
            )

    def _admit(self, name: str, size: DataSize) -> None:
        """Cache ``name`` at ``size``; a re-admitted name keeps its place."""
        previous = self._cache.get(name)
        self._cache[name] = size
        self._cached_bytes += size.bytes - (previous.bytes if previous is not None else 0.0)

    def _drop(self, name: str) -> None:
        previous = self._cache.pop(name, None)
        if previous is not None:
            self._cached_bytes -= previous.bytes

    def _touch(self, name: str) -> None:
        self._cache.move_to_end(name)

    # -- operations ----------------------------------------------------------
    def store(self, name: str, size: DataSize, content_tag: str = "") -> Duration:
        """Archive a file (write-through) and cache it; returns elapsed time."""
        elapsed = self.library.archive(name, size, content_tag)
        self._make_room(size)
        self._admit(name, size)
        self._telemetry.emit(
            "storage.write",
            name,
            store=self.library.name,
            bytes=size.bytes,
            elapsed_s=elapsed.seconds,
        )
        return elapsed

    def read(self, name: str) -> Tuple[StoredFile, Duration]:
        """Read a file, recalling from tape on a cache miss."""
        if name in self._cache:
            self._stats.hits += 1
            self._touch(name)
            # Cache reads are disk-speed; negligible next to tape recall in
            # this model, but we still need the file object, which lives on
            # tape (the cache stores no content in the simulation).
            file, _ = self._peek_tape(name)
            return file, Duration.zero()
        self._stats.misses += 1
        file, elapsed = self.library.recall(name)
        self._stats.bytes_recalled += file.size.bytes
        self._stats.recall_time += elapsed
        self._telemetry.emit(
            "storage.recall",
            name,
            store=self.library.name,
            bytes=file.size.bytes,
            elapsed_s=elapsed.seconds,
        )
        self._make_room(file.size)
        self._admit(name, file.size)
        return file, elapsed

    def _peek_tape(self, name: str) -> Tuple[StoredFile, Duration]:
        """Fetch file metadata without charging a recall (cache-hit path)."""
        cartridge = self.library._locations.get(name)  # noqa: SLF001 - same package
        if cartridge is None:
            raise StorageError(f"HSM cache/tape inconsistency for {name!r}")
        return cartridge.fetch(name), Duration.zero()

    def fail_cartridge(self, index: int, remigrate: bool = True) -> CartridgeLossReport:
        """Fail one tape cartridge, reporting what the disk tier still holds.

        Every file on the cartridge is lost from tape; those with a live
        disk-tier (cache) copy are *recoverable*.  With ``remigrate=True``
        (default) the recoverable files are immediately re-archived to a
        fresh cartridge — write-through, so they stay cached and readable.
        With ``remigrate=False`` the recoverable names are reported but
        evicted from the cache too (no dangling cache entries pointing at
        dead tape), modelling an operator who declines the re-migration.
        """
        cartridge = self.library._cartridge(index)  # noqa: SLF001 - same package
        survivors = {
            file.name: file
            for file in cartridge.files
            if file.name in self._cache
        }
        lost = self.library.fail_cartridge(index)
        report = CartridgeLossReport(cartridge_label=cartridge.label, lost=lost)
        for name in lost:
            if name in survivors:
                report.recoverable.append(name)
            else:
                report.unrecoverable.append(name)
                self._drop(name)
        for name in report.recoverable:
            if remigrate:
                file = survivors[name]
                self.library.archive(name, file.size, file.content_tag)
                self._telemetry.emit(
                    "storage.write",
                    name,
                    store=self.library.name,
                    bytes=file.size.bytes,
                    remigrated=True,
                )
            else:
                self._drop(name)
        return report

    def recall_set(self, names: List[str]) -> Tuple[List[StoredFile], Duration]:
        """Pre-stage a working set into cache (batched, mount-efficient) and
        *return* the files it staged.

        A caller holding a queue of cold requests gets the recalled file
        objects directly, so it can serve them even when the set is larger
        than the disk tier (re-reading through the cache would recall
        evicted members a second time).  Already-cached names are skipped,
        not returned.
        """
        to_recall = [name for name in names if name not in self._cache]
        if not to_recall:
            return [], Duration.zero()
        files, elapsed = self.library.recall_batch(to_recall)
        for file in files:
            self._stats.misses += 1
            self._stats.bytes_recalled += file.size.bytes
            self._telemetry.emit(
                "storage.recall",
                file.name,
                store=self.library.name,
                bytes=file.size.bytes,
                batched=True,
            )
            self._make_room(file.size)
            self._admit(file.name, file.size)
        self._stats.recall_time += elapsed
        return files, elapsed
