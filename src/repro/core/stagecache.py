"""Provenance-keyed stage-result cache.

The *Pipeline-Centric Provenance Model* observation this module exploits:
the descriptors a provenance record already carries — module name,
version, parameters, input file descriptions — are exactly the key needed
to decide whether a prior stage output can be reused.  CLEO's staged
production ("recompute only what changed") is the same pattern at
collaboration scale.

A :class:`StageCache` stores, per content-addressed key, everything the
engine needs to *skip* a stage while keeping the run observably identical:
the output dataset snapshot, the extra CPU seconds the transform charged,
and the stage's out-of-band stash (see ``StageContext.stash``).  On a hit
the engine replays provenance recording, accounting, and telemetry from
the snapshot, so a warm rerun's FlowReport and event log are byte-identical
to the cold run's (modulo wall clock, which the telemetry layer already
segregates).

Keys cover the flow name, stage name/site/cost model, the per-stage RNG
seed, the stage's declared ``cache_params``, and a descriptor of every
input dataset including its provenance-stamp MD5 digest — the paper's own
"compare the hashes" discrepancy test, applied before compute instead of
after.  Anything that would change the stage's behaviour must appear in
one of those; pipelines surface their config through ``cache_params``.

The cache keeps its own books in plain ``int`` attributes (``hits``,
``misses``, ``shard_hits``, ...), bumped in place like every other
component's stats; :meth:`StageCache.stats` and
:meth:`StageCache.disk_stats` give them as dicts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Union

from repro.core.cachestore import DiskCacheStore
from repro.core.dataset import Dataset
from repro.core.errors import CacheError
from repro.core.units import DataSize


def stage_key(
    flow_name: str,
    stage_name: str,
    site: str,
    cpu_seconds_per_gb: float,
    stage_seed: int,
    input_descriptors: Sequence[str],
    cache_params: Optional[Mapping[str, object]] = None,
    fault_digest: str = "",
) -> str:
    """Content address of one stage execution.

    Deterministic across processes: every component is rendered to a
    canonical JSON document and hashed with SHA-256.  Input descriptors
    are sorted, matching how the engine freezes them into provenance
    records.  ``fault_digest`` is the active
    :class:`~repro.core.faults.FaultPlan` digest (empty when no faults
    are armed): results computed under injection are keyed apart from
    clean results, so a faulted run can never poison — nor be serviced
    from — a warm fault-free cache.
    """
    payload = {
        "flow": flow_name,
        "stage": stage_name,
        "site": site,
        "cpu_seconds_per_gb": repr(float(cpu_seconds_per_gb)),
        "seed": int(stage_seed),
        "inputs": sorted(str(descriptor) for descriptor in input_descriptors),
        "params": {str(k): str(v) for k, v in (cache_params or {}).items()},
        "faults": str(fault_digest),
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def shard_key(
    flow_name: str,
    stage_name: str,
    fn_name: str,
    item_descriptor: str,
    cache_params: Optional[Mapping[str, object]] = None,
    fault_digest: str = "",
) -> str:
    """Content address of one shard of a stage's fan-out.

    Finer-grained sibling of :func:`stage_key`: where a stage key covers
    the whole input set (any new item misses the whole stage), a shard
    key covers one item of a ``map_shards`` fan-out, so an incremental
    window recomputes only the items it has never seen.  The payload is
    tagged ``"kind": "shard"`` so shard and stage addresses can never
    collide even for pathological inputs.
    """
    payload = {
        "kind": "shard",
        "flow": flow_name,
        "stage": stage_name,
        "fn": str(fn_name),
        "item": str(item_descriptor),
        "params": {str(k): str(v) for k, v in (cache_params or {}).items()},
        "faults": str(fault_digest),
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass
class CachedShard:
    """One memoized shard result of a stage's ``map_shards`` fan-out."""

    value: object


@dataclass
class CachedStage:
    """Everything needed to replay one stage without running it.

    This is also the per-stage result record the engine carries from
    execution to the accounting replay, so what a cold run accounts and
    what a warm run restores are the same object by construction.
    """

    output_name: str
    output_version: str
    output_bytes: float
    output_items: tuple = ()
    output_attrs: Mapping[str, object] = field(default_factory=dict)
    extra_cpu_seconds: float = 0.0
    stash: Mapping[str, object] = field(default_factory=dict)
    # Availability accounting: a hit must replay the recorded retries,
    # injected faults, and degradation flags exactly, or a resumed run's
    # prefix would diverge from the uninterrupted run's event log.
    attempts: int = 1
    retry_wait_seconds: float = 0.0
    degraded: bool = False
    fault_attrs: tuple = ()
    dead_letter_attrs: Optional[Mapping[str, object]] = None

    @classmethod
    def capture(
        cls,
        output: Dataset,
        extra_cpu_seconds: float,
        stash: Mapping[str, object],
        attempts: int = 1,
        retry_wait_seconds: float = 0.0,
        degraded: bool = False,
        fault_attrs: Sequence[Mapping[str, object]] = (),
        dead_letter_attrs: Optional[Mapping[str, object]] = None,
    ) -> "CachedStage":
        """Snapshot a completed stage's result.

        The dataset's mutable containers are copied shallowly; the stash
        is stored as-is (stage stashes are treated as immutable once the
        stage returns — the same contract downstream stages already rely
        on when reading a predecessor's stash).
        """
        return cls(
            output_name=output.name,
            output_version=output.version,
            output_bytes=output.size.bytes,
            output_items=tuple(output.items),
            output_attrs=dict(output.attrs),
            extra_cpu_seconds=float(extra_cpu_seconds),
            stash=dict(stash),
            attempts=int(attempts),
            retry_wait_seconds=float(retry_wait_seconds),
            degraded=bool(degraded),
            fault_attrs=tuple(dict(attrs) for attrs in fault_attrs),
            dead_letter_attrs=(
                dict(dead_letter_attrs) if dead_letter_attrs is not None else None
            ),
        )

    def rebuild_output(self) -> Dataset:
        """A fresh Dataset equivalent to the one the stage returned.

        ``provenance_id`` is left unset — the engine re-commits the stage
        and attaches the run's own reserved id, exactly as it would after
        real execution.
        """
        return Dataset(
            name=self.output_name,
            size=DataSize(self.output_bytes),
            items=list(self.output_items),
            version=self.output_version,
            attrs=dict(self.output_attrs),
        )


class StageCache:
    """Cache of :class:`CachedStage` snapshots keyed by provenance.

    Parameters
    ----------
    store:
        Optional :class:`~repro.core.cachestore.DiskCacheStore` backing.
        With a store, this cache becomes a read-through/write-through L1
        over a shared on-disk L2: lookups that miss in memory consult the
        store (a disk hit counts as a hit, plus ``disk_hits``), and stores
        write through (atomic rename; an unpicklable entry degrades that
        stage to memory-only, counted in ``disk_write_skips``).  Multiple
        engines — in one process, many processes, or successive runs — may
        share one store root; content-addressed keys make racing writers
        safe.  Every entry on disk holds its own value.
    """

    def __init__(self, store: Optional[DiskCacheStore] = None):
        self.disk = store
        self._entries: Dict[str, Union[CachedStage, CachedShard]] = {}
        self.hits = 0
        self.misses = 0
        #: Shard-level traffic, apart from whole-stage ``hits``/``misses``.
        self.shard_hits = 0
        self.shard_misses = 0
        #: Stage and shard hits serviced from the on-disk store.
        self.disk_hits = 0
        self.disk_writes = 0
        #: Entries that could not pickle and stayed memory-only.
        self.disk_write_skips = 0
        #: Stages the engine left uncached: an input's stamp digest could
        #: not be resolved.
        self.unverified_inputs = 0

    @classmethod
    def on_disk(cls, root: "Union[str, Path]") -> "StageCache":
        """A stage cache over an on-disk store rooted at ``root``."""
        return cls(store=DiskCacheStore(root))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def _get(self, key: str, kind: type):
        """Memory-then-disk read of the ``kind`` entry under ``key``.

        A memory miss falls through to the disk store, and a disk hit is
        promoted into the in-memory L1 and counted in ``disk_hits``.
        """
        entry = self._entries.get(key)
        if isinstance(entry, kind):
            return entry
        if self.disk is not None:
            entry = self.disk.read(key)
            if isinstance(entry, kind):
                self._entries[key] = entry
                self.disk_hits += 1
                return entry
        return None

    def _put(self, key: str, entry: object) -> None:
        """Memory-and-disk write of ``entry`` under ``key``.

        With a disk store attached the entry is also written through
        (atomic write-then-rename keyed by the content address); an entry
        whose payload cannot pickle stays memory-only and is counted in
        ``disk_write_skips``.
        """
        self._entries[key] = entry
        if self.disk is not None:
            if self.disk.write(key, entry):
                self.disk_writes += 1
            else:
                self.disk_write_skips += 1

    def lookup(self, key: str) -> Optional[CachedStage]:
        """Return the stage entry for ``key``, or None; counted in
        ``hits``/``misses``."""
        entry = self._get(key, CachedStage)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def store(self, key: str, entry: CachedStage) -> None:
        """Insert ``entry`` under ``key``."""
        if not isinstance(entry, CachedStage):
            raise CacheError(
                f"expected a CachedStage, got {type(entry).__name__}"
            )
        self._put(key, entry)

    def lookup_shard(self, key: str) -> Optional[CachedShard]:
        """Return the shard entry for ``key``, or None.

        Shard traffic is counted apart from stage traffic
        (``shard_hits``/``shard_misses``) so stage-level warm-start
        assertions stay unchanged by shard fan-out.
        """
        entry = self._get(key, CachedShard)
        if entry is None:
            self.shard_misses += 1
        else:
            self.shard_hits += 1
        return entry

    def store_shard(self, key: str, value: object) -> None:
        """Memoize one shard result under its content address."""
        self._put(key, CachedShard(value=value))

    def invalidate(self, key: str) -> bool:
        """Drop one entry from memory and disk; returns whether it existed."""
        existed = self._entries.pop(key, None) is not None
        if self.disk is not None:
            existed = self.disk.delete(key) or existed
        return existed

    def clear(self, disk: bool = False) -> None:
        """Empty the in-memory L1 (and, with ``disk=True``, the store)."""
        self._entries.clear()
        if disk and self.disk is not None:
            self.disk.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self),
        }

    def disk_stats(self) -> Dict[str, int]:
        """Store-side accounting; all zeros when no store is attached."""
        stored = self.disk.stats() if self.disk is not None else {"entries": 0, "bytes": 0}
        return {
            "disk_hits": self.disk_hits,
            "disk_writes": self.disk_writes,
            "disk_write_skips": self.disk_write_skips,
            "disk_entries": stored["entries"],
            "disk_bytes": stored["bytes"],
        }
