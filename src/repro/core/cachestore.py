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
  simply a miss (another process may delete or replace a file at any moment —
  that is allowed and only costs a recompute);
* keys are content addresses, so two processes racing to write the same
  key write equal values and either winner is correct.

Entry format (this module alone knows it): a protocol-5 pickle of the
entry's own value, streamed into the temp file, so a contiguous array
goes from its own buffer to the file — no ``tobytes`` copy, no
whole-entry blob.  Any reader needs only :mod:`pickle`.

Like the paper's central stores, the store keeps whatever it is given:
nothing is evicted, and a read leaves the entry file as it found it.
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
    """A shared, content-addressed entry store on disk.

    Parameters
    ----------
    root:
        Directory the store lives in (created on first use).
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- addressing --------------------------------------------------------
    def path_for(self, key: str) -> Path:
        # Every writer keys by lowercase sha-256 hex: ``strip`` leaves
        # nothing exactly when every character is a hex digit.
        if not isinstance(key, str) or not key or key.strip(_KEY_DIGITS):
            raise CacheError(f"malformed cache key {key!r}")
        return self.root / key[:2] / f"{key}{_SUFFIX}"

    def _entries_on_disk(self) -> List[Tuple[Path, int]]:
        """``(path, size)`` for every entry file, stat-race safe."""
        found: List[Tuple[Path, int]] = []
        for path in self.root.glob(f"*/*{_SUFFIX}"):
            try:
                size = path.stat().st_size
            except OSError:
                continue  # deleted or replaced underneath us: fine
            found.append((path, size))
        return found

    # -- the store API -----------------------------------------------------
    def read(self, key: str) -> Optional[object]:
        """The entry for ``key``, or ``None``.

        Lock-free: a vanished, truncated, or unpicklable file reads as a
        miss.
        """
        try:
            with self.path_for(key).open("rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:  # noqa: BLE001 - torn/corrupt entry == miss
            return None

    def write(self, key: str, entry: object) -> bool:
        """Atomically persist ``entry`` under ``key``; then call :meth:`gc`.

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
        """All stored keys, sorted."""
        return sorted(path.stem for path, _ in self._entries_on_disk())

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        return len(self._entries_on_disk())

    def gc(self) -> int:
        """Evict nothing and return 0: the store keeps every entry.

        :meth:`write` still calls it only because perfbench times the
        ``DiskCacheStore.gc`` boundary by name (``cachestore.gc_s``).
        """
        return 0

    def clear(self) -> int:
        """Remove every entry; returns how many were dropped."""
        dropped = 0
        for path, _ in self._entries_on_disk():
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
            "bytes": sum(size for _, size in entries),
        }

    def __repr__(self) -> str:
        return f"DiskCacheStore({str(self.root)!r})"
