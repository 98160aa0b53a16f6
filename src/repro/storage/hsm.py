"""Hierarchical storage management.

CLEO's data "are stored in a hierarchical storage management (HSM) system
(which automatically moves data between tape and disk cache)".  The model:
a fixed-size disk cache in front of a robotic tape library, write-through
archival, LRU eviction, and recall accounting — enough to quantify the cost
of cold reads versus the hot/warm/cold partitioning studied in experiment C7.

Accounting is registry-backed: every store owns a
:class:`~repro.core.telemetry.MetricsRegistry` and publishes
``storage.write/recall/evict`` events on the telemetry bus; the public
:attr:`HierarchicalStore.stats` property is a thin :class:`HsmStats`
snapshot over those instruments.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.core.errors import CapacityError, StorageError
from repro.core.telemetry import MetricsRegistry, Telemetry, registry_view
from repro.core.units import DataSize, Duration
from repro.storage.media import StoredFile
from repro.storage.tape import RoboticTapeLibrary


@dataclass
class HsmStats:
    """Cache behaviour counters (a snapshot view over the metrics registry)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes_recalled: float = 0.0
    recall_time: Duration = field(
        default_factory=Duration.zero, metadata={"instrument": "recall_seconds"}
    )

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
        self.metrics = MetricsRegistry()
        self._telemetry = telemetry if telemetry is not None else Telemetry()

    @property
    def stats(self) -> HsmStats:
        """Cache behaviour counters, read from the metrics registry."""
        return registry_view(self.metrics, HsmStats, "hsm")

    # -- cache bookkeeping ---------------------------------------------------
    @property
    def cached_bytes(self) -> DataSize:
        return DataSize(sum(size.bytes for size in self._cache.values()))

    def is_cached(self, name: str) -> bool:
        return name in self._cache

    def _make_room(self, size: DataSize) -> None:
        if size.bytes > self.cache_capacity.bytes:
            raise CapacityError(
                f"file of {size} exceeds entire HSM cache ({self.cache_capacity})"
            )
        while self.cached_bytes.bytes + size.bytes > self.cache_capacity.bytes:
            evicted_name, evicted_size = self._cache.popitem(last=False)
            self.metrics.counter("hsm.evictions").inc()
            self._telemetry.emit(
                "storage.evict",
                evicted_name,
                store=self.library.name,
                bytes=evicted_size.bytes,
            )

    def _touch(self, name: str) -> None:
        self._cache.move_to_end(name)

    # -- operations ----------------------------------------------------------
    def store(self, name: str, size: DataSize, content_tag: str = "") -> Duration:
        """Archive a file (write-through) and cache it; returns elapsed time."""
        elapsed = self.library.archive(name, size, content_tag)
        self._make_room(size)
        self._cache[name] = size
        self.metrics.counter("hsm.writes").inc()
        self.metrics.counter("hsm.bytes_written").inc(size.bytes)
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
            self.metrics.counter("hsm.hits").inc()
            self._touch(name)
            # Cache reads are disk-speed; negligible next to tape recall in
            # this model, but we still need the file object, which lives on
            # tape (the cache stores no content in the simulation).
            file, _ = self._peek_tape(name)
            return file, Duration.zero()
        self.metrics.counter("hsm.misses").inc()
        file, elapsed = self.library.recall(name)
        self.metrics.counter("hsm.bytes_recalled").inc(file.size.bytes)
        self.metrics.gauge("hsm.recall_seconds").add(elapsed.seconds)
        self._telemetry.emit(
            "storage.recall",
            name,
            store=self.library.name,
            bytes=file.size.bytes,
            elapsed_s=elapsed.seconds,
        )
        self._make_room(file.size)
        self._cache[name] = file.size
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
        cartridge = self.library._cartridges[index]  # noqa: SLF001 - same package
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
                self._cache.pop(name, None)
        for name in report.recoverable:
            if remigrate:
                file = survivors[name]
                self.library.archive(name, file.size, file.content_tag)
                self.metrics.counter("hsm.remigrations").inc()
                self._telemetry.emit(
                    "storage.write",
                    name,
                    store=self.library.name,
                    bytes=file.size.bytes,
                    remigrated=True,
                )
            else:
                self._cache.pop(name, None)
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
            self.metrics.counter("hsm.misses").inc()
            self.metrics.counter("hsm.bytes_recalled").inc(file.size.bytes)
            self._telemetry.emit(
                "storage.recall",
                file.name,
                store=self.library.name,
                bytes=file.size.bytes,
                batched=True,
            )
            self._make_room(file.size)
            self._cache[file.name] = file.size
        self.metrics.gauge("hsm.recall_seconds").add(elapsed.seconds)
        return files, elapsed
