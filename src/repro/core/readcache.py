"""Read cache for the access-facing services.

The CDF data-processing model (PAPERS.md) carries a collider's analysis
load on read-side caching; this module is the reproduction's version of
that layer, shared by every access surface the workload engine hammers:
WebLab retro browsing and subset extraction, EventStore grade/file
resolution, and (through the recall queue) archive reads.

One :class:`ReadCache` is:

* an **LRU** over at most ``capacity`` entries;
* **frequency-admitted** — on a miss with a full cache, the new key is
  admitted only if it has been asked for at least as often as the LRU
  victim (a TinyLFU-style filter: one-hit wonders cannot wash out the
  Zipf head that makes caching pay — the CDF model's observation that an
  admission filter is what keeps scan traffic from flushing the hot
  set);
* a **negative cache** — a loader returning ``None`` ("no capture at or
  before that date", "no file for that run/version/kind") is remembered
  too, so repeated misses for absent objects never re-run the query.

A cache belongs to the one thread that serves its facade: the systems
this reproduces get their parallelism from worker processes, each with
caches of its own.  So a lookup takes no lock, and a miss simply runs
its loader.

Accounting: the cache's one :class:`ReadCacheStats` (``hits``,
``misses``, ``negative_hits``, ``admitted``, ``admission_rejected``,
``evictions``), bumped in place, and (when a telemetry bus is attached)
``readcache.hit|miss|admit|evict`` events so a replayed trace's cache
behaviour is part of the canonical log.
"""

from __future__ import annotations

from collections import OrderedDict
from copy import copy
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.errors import CacheError
from repro.core.telemetry import Telemetry


class _Negative:
    """Marker stored for cached absence (distinct from any real value)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return "<negative>"


_NEGATIVE = _Negative()

#: Frequency sketch aging: when the sketch's total count reaches
#: ``capacity * _SKETCH_DECAY_FACTOR``, every count is halved (and zeros
#: dropped), so popularity is recency-weighted rather than eternal.
_SKETCH_DECAY_FACTOR = 10


@dataclass
class ReadCacheStats:
    """A cache's counters: the cache bumps its own, ``stats`` hands out a copy."""

    hits: int = 0
    misses: int = 0
    negative_hits: int = 0
    admitted: int = 0
    admission_rejected: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.negative_hits + self.misses
        return (self.hits + self.negative_hits) / total if total else 0.0


class ReadCache:
    """LRU + frequency admission + negative caching.

    What a lookup costs: a hit is one dict probe, the LRU move, the
    sketch bump and a field increment; a miss is the probe, the sketch
    bump, the loader and the admission — and nothing else that grows
    with the number of keys.

    Parameters
    ----------
    capacity:
        Maximum in-memory entries.
    telemetry:
        When given, the cache emits ``readcache.*`` events, each named
        ``"readcache"``; the counters are kept either way.
    """

    def __init__(
        self,
        capacity: int = 1024,
        telemetry: Optional[Telemetry] = None,
    ):
        if capacity < 1:
            raise CacheError(f"read cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._stats = ReadCacheStats()
        # Each site calls ``self._telemetry.emit`` itself, per event and never
        # bound ahead: perfbench wraps ``Telemetry.emit`` by name.
        self._telemetry = telemetry
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self._freq: Dict[str, int] = {}
        self._freq_total = 0

    # -- introspection -----------------------------------------------------
    @property
    def stats(self) -> ReadCacheStats:
        """A snapshot: later lookups do not move it."""
        return copy(self._stats)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def keys(self) -> List[str]:
        """Cached keys, LRU-first (the next victim leads)."""
        return list(self._entries)

    # -- internals ---------------------------------------------------------
    def _count_access(self, key: str) -> None:
        """Bump the popularity sketch, aging it when it saturates."""
        self._freq[key] = self._freq.get(key, 0) + 1
        self._freq_total += 1
        if self._freq_total >= self.capacity * _SKETCH_DECAY_FACTOR:
            aged = {k: c // 2 for k, c in self._freq.items() if c // 2 > 0}
            self._freq = aged
            self._freq_total = sum(aged.values())

    def _admit(self, key: str, value: object) -> bool:
        """Insert under the admission policy; True when the entry landed."""
        if key in self._entries:
            self._entries[key] = value
            self._entries.move_to_end(key)
            return True
        if len(self._entries) >= self.capacity:
            victim = next(iter(self._entries))
            if self._freq.get(key, 0) < self._freq.get(victim, 0):
                self._stats.admission_rejected += 1
                return False
            self._entries.popitem(last=False)
            self._stats.evictions += 1
            if self._telemetry is not None:
                self._telemetry.emit("readcache.evict", "readcache", key=victim)
        self._entries[key] = value
        self._stats.admitted += 1
        if self._telemetry is not None:
            self._telemetry.emit("readcache.admit", "readcache", key=key)
        return True

    # -- the API -----------------------------------------------------------
    def get_or_load(
        self,
        key: str,
        loader: Callable[[], object],
    ) -> object:
        """The value for ``key``, loading it on a miss.

        ``loader`` returning ``None`` is a *negative* result: it is
        cached like any other entry and served back as ``None``.  A
        loader that raises admits nothing.
        """
        self._count_access(key)
        value = self._entries.get(key)  # never None: absence is _NEGATIVE
        if value is not None:
            self._entries.move_to_end(key)
            if value is _NEGATIVE:
                self._stats.negative_hits += 1
                if self._telemetry is not None:
                    self._telemetry.emit("readcache.hit", "readcache", key=key, negative=True)
                return None
            self._stats.hits += 1
            if self._telemetry is not None:
                self._telemetry.emit("readcache.hit", "readcache", key=key)
            return value
        self._stats.misses += 1
        if self._telemetry is not None:
            self._telemetry.emit("readcache.miss", "readcache", key=key)
        value = loader()
        self._admit(key, _NEGATIVE if value is None else value)
        return value

    # -- invalidation ------------------------------------------------------
    def invalidate(self, key: str) -> bool:
        """Drop one entry; returns whether it was cached."""
        return self._entries.pop(key, None) is not None

    def invalidate_prefix(self, prefix: str) -> int:
        """Drop every entry whose key starts with ``prefix``."""
        doomed = [key for key in self._entries if key.startswith(prefix)]
        for key in doomed:
            del self._entries[key]
        return len(doomed)

    def clear(self) -> int:
        """Drop every entry and the popularity sketch."""
        dropped = len(self._entries)
        self._entries.clear()
        self._freq.clear()
        self._freq_total = 0
        return dropped

    def __repr__(self) -> str:
        return f"ReadCache(capacity={self.capacity}, entries={len(self)})"
