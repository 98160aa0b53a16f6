"""Content-addressed on-disk store for stage-cache entries.

The paper's farm model keeps one *central store* that every worker reads
from and writes back to; the Pipeline-Centric Provenance Model (PAPERS.md)
supplies the key.  This module is the meeting point: a directory of
pickled :class:`~repro.core.stagecache.CachedStage` snapshots addressed by
the ``stage_key`` SHA-256, shared by every worker process of a run and by
every *run* that points at the same root.

Layout and concurrency contract:

* an entry lives at ``root/<key[:2]>/<key>.pkl`` — two-level fan-out so a
  large store never piles every file into one directory;
* writes are **atomic**: the payload is pickled to a temp file in the
  same directory and ``os.replace``d into place, so a reader can never
  observe a torn entry — it sees the old file, the new file, or no file;
* reads are **lock-free**: a missing, truncated, or unpicklable file is
  simply a miss (another process may GC or replace a file at any moment —
  that is allowed and only costs a recompute);
* keys are content addresses, so two processes racing to write the same
  key write equal values and either winner is correct.

Entry format (this module alone knows it): a protocol-5 pickle of the
entry's own value, streamed into the temp file, so a contiguous array
goes from its own buffer to the file — no ``tobytes`` copy, no
whole-entry blob.  Any reader needs only :mod:`pickle`.

Recency is tracked through file mtimes — a read touches the file — and
:meth:`DiskCacheStore.gc` evicts oldest-first until the store fits the
configured ``max_bytes`` / ``max_entries`` bounds (write-triggered, so
the store is self-bounding without a daemon).
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.errors import CacheError

_SUFFIX = ".pkl"
_KEY_DIGITS = "0123456789abcdef"


class DiskCacheStore:
    """A shared, size-bounded, content-addressed entry store on disk.

    Parameters
    ----------
    root:
        Directory the store lives in (created on first use).
    max_bytes / max_entries:
        GC bounds; ``None`` leaves that dimension unbounded.  Bounds are
        enforced by :meth:`gc`, which runs after every write.
    """

    def __init__(
        self,
        root: Union[str, Path],
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
    ):
        if max_bytes is not None and max_bytes < 1:
            raise CacheError(f"max_bytes must be >= 1, got {max_bytes}")
        if max_entries is not None and max_entries < 1:
            raise CacheError(f"max_entries must be >= 1, got {max_entries}")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.root.mkdir(parents=True, exist_ok=True)

    # -- addressing --------------------------------------------------------
    def path_for(self, key: str) -> Path:
        # Every writer keys by lowercase sha-256 hex: ``strip`` leaves
        # nothing exactly when every character is a hex digit.
        if not isinstance(key, str) or not key or key.strip(_KEY_DIGITS):
            raise CacheError(f"malformed cache key {key!r}")
        return self.root / key[:2] / f"{key}{_SUFFIX}"

    def _entries_on_disk(self) -> List[Tuple[Path, int, int]]:
        """``(path, mtime_ns, size)`` for every entry file, stat-race safe."""
        found: List[Tuple[Path, int, int]] = []
        for path in self.root.glob(f"*/*{_SUFFIX}"):
            try:
                stat = path.stat()
            except OSError:
                continue  # GC'd or replaced underneath us: fine
            found.append((path, stat.st_mtime_ns, stat.st_size))
        return found

    # -- the store API -----------------------------------------------------
    def read(self, key: str) -> Optional[object]:
        """The entry for ``key``, or ``None``.

        Lock-free: a vanished, truncated, or unpicklable file reads as a
        miss.  A successful read touches the file's mtime so GC sees it
        as recently used.
        """
        path = self.path_for(key)
        try:
            with path.open("rb") as handle:
                entry = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:  # noqa: BLE001 - torn/corrupt entry == miss
            return None
        try:
            os.utime(path)
        except OSError:
            pass  # GC won the race; the value we read is still good
        return entry

    def write(self, key: str, entry: object) -> bool:
        """Atomically persist ``entry`` under ``key``; then enforce bounds.

        Returns ``False`` (and stores nothing) when the entry does not
        pickle — an unpicklable stash degrades that stage to
        memory-only caching rather than failing the run.  Whatever goes
        wrong, the temp file does not outlive the call.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        stored = False
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(entry, handle, protocol=5)
            os.replace(tmp_name, path)
            stored = True
        except OSError:
            raise
        except Exception:  # noqa: BLE001 - graceful: skip, don't fail the run
            return False
        finally:
            if not stored:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
        self.gc()
        return True

    def delete(self, key: str) -> bool:
        """Drop one entry; returns whether a file was removed."""
        try:
            self.path_for(key).unlink()
            return True
        except FileNotFoundError:
            return False

    def keys(self) -> List[str]:
        """All stored keys, sorted (a stable inventory, not LRU order)."""
        return sorted(path.stem for path, _, _ in self._entries_on_disk())

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        return len(self._entries_on_disk())

    def gc(self) -> int:
        """Evict least-recently-used entries until the bounds hold.

        Returns the number of entries removed.  Ordering is by mtime
        (reads touch), key as tie-break; racing processes may each try to
        remove the same file — only the winner counts it.
        """
        if self.max_bytes is None and self.max_entries is None:
            return 0
        entries = sorted(
            self._entries_on_disk(), key=lambda item: (item[1], item[0].name)
        )
        count = len(entries)
        volume = sum(size for _, _, size in entries)
        evicted = 0
        for path, _, size in entries:
            over_entries = self.max_entries is not None and count > self.max_entries
            over_bytes = self.max_bytes is not None and volume > self.max_bytes
            if not (over_entries or over_bytes):
                break
            try:
                path.unlink()
                evicted += 1
            except OSError:
                pass  # another process evicted or replaced it first
            count -= 1
            volume -= size
        return evicted

    def clear(self) -> int:
        """Remove every entry; returns how many were dropped."""
        dropped = 0
        for path, _, _ in self._entries_on_disk():
            try:
                path.unlink()
                dropped += 1
            except OSError:
                pass
        return dropped

    def stats(self) -> Dict[str, int]:
        entries = self._entries_on_disk()
        return {
            "entries": len(entries),
            "bytes": sum(size for _, _, size in entries),
        }

    def __repr__(self) -> str:
        return (
            f"DiskCacheStore({str(self.root)!r}, max_bytes={self.max_bytes}, "
            f"max_entries={self.max_entries})"
        )
