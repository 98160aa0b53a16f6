"""Batched, coalescing recall queues over the HSM.

Experiments C7/C9 established the tiering economics: tape mounts dominate
cold-read cost, and batching recalls cartridge-major amortizes them.  This
module puts that mechanism on the *serving* path.  Interactive archive
reads (the workload engine's ``recall`` op) do not hit the tape robot one
file at a time; they queue on a :class:`RecallQueue`, which

* **coalesces** duplicate requests — ten readers asking for the same file
  before the next drain cost one recall and one queue slot;
* splits each drain into a **hot** set (already on the HSM disk tier —
  served immediately at disk speed) and a **cold** set (recalled in one
  batched, mount-efficient :meth:`~repro.storage.hsm.HierarchicalStore.recall_set`
  pass before any read is served).

Each drain's :class:`RecallDrainReport` is the queue's book: requests
served, coalesced, hot and cold; per-file ``storage.recall`` events stay
where they always were, on the HSM's telemetry stream.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.core.errors import StorageError
from repro.core.units import DataSize, Duration
from repro.storage.hsm import HierarchicalStore
from repro.storage.media import StoredFile


@dataclass
class RecallDrainReport:
    """What one :meth:`RecallQueue.drain` pass served and recalled."""

    requests_served: int = 0
    unique_files: int = 0
    coalesced: int = 0
    hot_served: int = 0
    cold_recalled: int = 0
    bytes_read: DataSize = field(default_factory=lambda: DataSize(0.0))
    elapsed: Duration = field(default_factory=Duration.zero)
    files: Tuple[str, ...] = ()


class RecallQueue:
    """Request coalescing + hot/cold batching in front of one HSM store."""

    def __init__(self, hsm: HierarchicalStore):
        self.hsm = hsm
        self._pending: "OrderedDict[str, int]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._pending)

    def request(self, name: str) -> None:
        """Queue one read request; duplicates coalesce until the drain."""
        if not name:
            raise StorageError("cannot queue a recall for an empty file name")
        if name in self._pending:
            self._pending[name] += 1
        else:
            self._pending[name] = 1

    def drain(self) -> RecallDrainReport:
        """Serve everything queued: read the hot set, batch-recall the cold.

        The cold files come up in one
        :meth:`~repro.storage.hsm.HierarchicalStore.recall_set` pass
        (cartridge-major mount order, per C9) and are served straight
        from the batch — so per-file recall latency never lands on an
        individual request, and a cold set larger than the disk tier is
        never recalled twice.
        """
        if not self._pending:
            return RecallDrainReport()
        batch, self._pending = self._pending, OrderedDict()
        hot = [name for name in batch if self.hsm.is_cached(name)]
        cold = [name for name in batch if not self.hsm.is_cached(name)]
        elapsed = Duration.zero()
        served: Dict[str, StoredFile] = {}
        for name in hot:
            file, read_elapsed = self.hsm.read(name)
            served[name] = file
            elapsed += read_elapsed
        if cold:
            files, recall_elapsed = self.hsm.recall_set(cold)
            elapsed += recall_elapsed
            for file in files:
                served[file.name] = file
        total_bytes = sum(
            served[name].size.bytes * count for name, count in batch.items()
        )
        return RecallDrainReport(
            requests_served=sum(batch.values()),
            unique_files=len(batch),
            coalesced=sum(count - 1 for count in batch.values()),
            hot_served=len(hot),
            cold_recalled=len(cold),
            bytes_read=DataSize(total_bytes),
            elapsed=elapsed,
            files=tuple(batch),
        )
