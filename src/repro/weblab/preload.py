"""The preload subsystem.

"The preload subsystem takes the incoming ARC and DAT files, uncompresses
them, parses them to extract relevant information, and generates two types
of output files: metadata for loading into a relational database and the
actual content of the Web pages to be stored separately.  The design of
the subsystem does not require the corresponding ARC and DAT files to be
processed together."

Accordingly, :meth:`PreloadSubsystem.process_arc` and
:meth:`~PreloadSubsystem.process_dat` are independent; :meth:`run` loads
any mix of files on the calling thread — the ARC files in the order given,
then the DAT files — batching database loads, so one set of files always
yields the same metadata database, ids included.  ``batch_size`` is the
tunable the paper earmarks for "extensive benchmarking" (experiment C9
sweeps it).
"""

from __future__ import annotations

import time
from copy import copy
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.errors import DuplicateCrawlError, WebLabError
from repro.core.faults import FaultInjector, delay_seconds
from repro.core.units import DataSize, Duration, Rate
from repro.weblab.arcformat import read_arc
from repro.weblab.datformat import read_dat
from repro.weblab.metadb import WebLabDatabase
from repro.weblab.pagestore import PageStore


@dataclass
class PreloadStats:
    """Throughput accounting for one preload run."""

    arc_files: int = 0
    dat_files: int = 0
    pages: int = 0
    links: int = 0
    compressed_bytes: float = 0.0
    content_bytes: float = 0.0
    elapsed_s: float = 0.0

    @property
    def throughput(self) -> Rate:
        if self.elapsed_s <= 0:
            return Rate.zero()
        return Rate.from_bytes_per_second(self.content_bytes / self.elapsed_s)

    @property
    def projected_daily(self) -> DataSize:
        """Content volume one day of this throughput would preload."""
        return self.throughput * Duration.days(1)

    def __sub__(self, other: "PreloadStats") -> "PreloadStats":
        """Difference of two snapshots (the per-run view of lifetime totals)."""
        return PreloadStats(
            arc_files=self.arc_files - other.arc_files,
            dat_files=self.dat_files - other.dat_files,
            pages=self.pages - other.pages,
            links=self.links - other.links,
            compressed_bytes=self.compressed_bytes - other.compressed_bytes,
            content_bytes=self.content_bytes - other.content_bytes,
            elapsed_s=self.elapsed_s - other.elapsed_s,
        )


@dataclass(frozen=True)
class PreloadConfig:
    """Tunable: rows per database load transaction."""

    batch_size: int = 200

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise WebLabError("batch size must be at least 1")


class PreloadSubsystem:
    """Parses ARC/DAT files into the metadata DB and the page store."""

    def __init__(
        self,
        database: WebLabDatabase,
        pagestore: PageStore,
        config: Optional[PreloadConfig] = None,
        faults: Optional[FaultInjector] = None,
    ):
        self.database = database
        self.pagestore = pagestore
        self.config = config if config is not None else PreloadConfig()
        self._stats = PreloadStats()
        #: Runs a ``"stale"`` fault skipped, and the files those runs held.
        self.stale_serves = 0
        self.stale_files = 0
        #: Armed fault injector (or None), consulted once per :meth:`run`
        #: under scope ``"preload"``, target ``"weblab/preload"``.  A
        #: ``"stale"`` fault makes the run serve its previous state — the
        #: batch is skipped (:attr:`stale_serves`/:attr:`stale_files` count
        #: the degradation) and users keep reading the last loaded
        #: crawl, the WebLab's graceful answer to a preload stall.  A
        #: ``"crash"`` raises before any file is parsed; ``"delay"``
        #: stretches the run's recorded elapsed time.
        self.faults = faults

    @property
    def lifetime_stats(self) -> PreloadStats:
        """A snapshot of the totals across every run: later runs do not move it."""
        return copy(self._stats)

    # -- single-file paths -----------------------------------------------------
    def process_arc(self, path: Union[str, Path], crawl_index: int) -> Tuple[int, float]:
        """One ARC file: content → page store, metadata rows → database.

        Returns (pages loaded, content bytes).
        """
        batch: List[Dict[str, object]] = []
        pages = 0
        content_bytes = 0.0

        def flush() -> None:
            nonlocal batch
            if batch:
                self.database.load_page_batch(batch)
                batch = []

        for record in read_arc(path):
            digest = self.pagestore.put(record.content)
            content_bytes += len(record.content)
            domain = record.url.split("/")[2]
            batch.append(
                {
                    "url": record.url,
                    "domain": domain,
                    "tld": domain.rsplit(".", 1)[-1],
                    "crawl_index": crawl_index,
                    "fetched_at": _epoch_of(record.archive_date),
                    "ip": record.ip,
                    "mime": record.content_type,
                    "size_bytes": len(record.content),
                    "content_hash": digest,
                }
            )
            pages += 1
            if len(batch) >= self.config.batch_size:
                flush()
        flush()
        self._stats.arc_files += 1
        self._stats.pages += pages
        self._stats.content_bytes += content_bytes
        self._stats.compressed_bytes += Path(path).stat().st_size
        return pages, content_bytes

    def process_dat(self, path: Union[str, Path], crawl_index: int) -> int:
        """One DAT file: link rows → database.  Returns links loaded."""
        batch: List[Tuple[int, str, str]] = []
        links = 0

        def flush() -> None:
            nonlocal batch
            if batch:
                self.database.load_link_batch(batch)
                batch = []

        for record in read_dat(path):
            for target in record.outlinks:
                batch.append((crawl_index, record.url, target))
                links += 1
                if len(batch) >= self.config.batch_size:
                    flush()
        flush()
        self._stats.dat_files += 1
        self._stats.links += links
        self._stats.compressed_bytes += Path(path).stat().st_size
        return links

    # -- bulk run ---------------------------------------------------------------
    def run(
        self,
        arc_paths: Sequence[Tuple[Union[str, Path], int]],
        dat_paths: Sequence[Tuple[Union[str, Path], int]] = (),
    ) -> PreloadStats:
        """Preload a mixed set of (path, crawl_index) pairs, ARCs then DATs.

        Returns the stats of *this* run — the delta of the subsystem's
        lifetime totals across the run (see :attr:`lifetime_stats` for
        the running totals).
        """
        injected = (
            self.faults.check("preload", "weblab/preload")
            if self.faults is not None
            else []
        )
        if any(record.kind == "stale" for record in injected):
            # Serve stale: skip this batch entirely; readers keep the
            # previously loaded crawls.  The cull is recorded, not silent.
            self.stale_serves += 1
            self.stale_files += len(list(arc_paths)) + len(list(dat_paths))
            return PreloadStats()
        crawl_indexes = {index for _, index in list(arc_paths) + list(dat_paths)}
        for index in sorted(crawl_indexes):
            # Registration is idempotent for matching times; preload callers
            # register real times beforehand when they have them, in which
            # case our placeholder time conflicts — that duplicate is the
            # only error this loop may swallow.
            try:
                self.database.register_crawl(index, float(index))
            except DuplicateCrawlError:
                pass
        before = self.lifetime_stats
        start = time.perf_counter()  # repro: noqa[RPR002] operational counter only
        for path, index in arc_paths:
            self.process_arc(path, index)
        for path, index in dat_paths:
            self.process_dat(path, index)
        self._stats.elapsed_s += (
            time.perf_counter() - start + delay_seconds(injected)  # repro: noqa[RPR002]
        )
        return self.lifetime_stats - before


def _epoch_of(archive_date: str) -> float:
    """Invert the simplified ARC date rendering to epoch seconds."""
    if len(archive_date) != 14 or not archive_date.isdigit():
        raise WebLabError(f"bad ARC date {archive_date!r}")
    year = int(archive_date[0:4])
    month = int(archive_date[4:6])
    day = int(archive_date[6:8])
    hour = int(archive_date[8:10])
    minute = int(archive_date[10:12])
    second = int(archive_date[12:14])
    days = (year - 1970) * 365 + (month - 1) * 30 + (day - 1)
    return days * 86400.0 + hour * 3600.0 + minute * 60.0 + second
