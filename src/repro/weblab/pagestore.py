"""Page content store.

"The preload subsystem [...] generates two types of output files: metadata
for loading into a relational database and the actual content of the Web
pages to be stored separately."  This is the *separately*: one
append-only pack file, ``pages.pack``, holding each distinct page once in
the order the preload received it — the way the paper's archive keeps
pages "in the order received from the Web crawler" inside large ARC
files.  Pages are keyed by the content hash that the metadata database
records for each (url, crawl) pair.
"""

from __future__ import annotations

import hashlib
import os
import struct
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.core.errors import WebLabError
from repro.core.units import DataSize

_HEX_DIGITS = "0123456789abcdef"
# sha1 digest ‖ content length, big-endian; the content follows.
_HEADER = struct.Struct(">20sI")


def content_hash(content: bytes) -> str:
    return hashlib.sha1(content).hexdigest()


def _check_hash(digest: str) -> None:
    # ``strip`` leaves nothing exactly when every character is a hex
    # digit: the whole check runs inside one C-level str call.
    if len(digest) != 40 or digest.strip(_HEX_DIGITS):
        raise WebLabError(f"bad content hash {digest!r}")


class PageStore:
    """Content-addressed store in one append-only pack file.

    A record is ``sha1 digest (20 B) ‖ length (4 B) ‖ content``, written
    with one ``os.write`` on an ``O_APPEND`` descriptor.  The index
    ``content hash → (offset, length)`` lives in memory and is a
    projection of the pack: opening a store rebuilds it by reading the
    record headers only, and a lookup that misses reads any headers
    appended since, so a store opened before a preload still serves the
    pages loaded after it.  A read is one ``os.pread``.

    A record whose header or content runs past the end of the file was
    torn by a writer that died mid-write: it is never indexed, and the
    next :meth:`put` cuts it off before appending.  There is one writer.
    Digests reach :meth:`get` from the metadata database and, through
    the service facade, from callers; anything ``content_hash`` cannot
    produce (40 lowercase hexadecimal digits) is refused.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / "pages.pack"
        # An unbuffered file object owns the descriptor, so a store that
        # is dropped without close() still releases it.
        self._file = open(self.path, "a+b", buffering=0)
        self._fd = self._file.fileno()
        self._index: Dict[str, Tuple[int, int]] = {}
        self._scanned = 0  # end of the last whole record indexed
        self._scan()

    def _scan(self) -> int:
        """Index the whole records appended since the last scan; returns
        the file size the scan saw."""
        size = os.fstat(self._fd).st_size
        offset = self._scanned
        while offset + _HEADER.size <= size:
            raw, length = _HEADER.unpack(os.pread(self._fd, _HEADER.size, offset))
            start = offset + _HEADER.size
            if start + length > size:
                break
            self._index.setdefault(raw.hex(), (start, length))
            offset = start + length
        self._scanned = offset
        return size

    def put(self, content: bytes) -> str:
        """Store content; returns its hash.  Duplicate content is stored once
        (crawls re-fetch mostly unchanged pages, so this dedup is where the
        archive's compression really comes from)."""
        digest = content_hash(content)
        if digest in self._index:
            return digest
        size = self._scan()
        if digest in self._index:
            return digest
        if size > self._scanned:
            os.ftruncate(self._fd, self._scanned)
        record = _HEADER.pack(bytes.fromhex(digest), len(content)) + content
        written = os.write(self._fd, record)
        if written != len(record):
            raise WebLabError(
                f"short write to {self.path}: {written} of {len(record)} bytes"
            )
        self._index[digest] = (self._scanned + _HEADER.size, len(content))
        self._scanned += len(record)
        return digest

    def _missed(self, digest: str) -> Optional[Tuple[int, int]]:
        """A lookup the index missed: refuse what ``content_hash`` cannot
        produce, then index the records appended since the last scan."""
        _check_hash(digest)
        self._scan()
        return self._index.get(digest)

    def get(self, digest: str) -> bytes:
        entry = self._index.get(digest)
        if entry is None:
            entry = self._missed(digest)
            if entry is None:
                raise WebLabError(f"page store has no content {digest!r}")
        offset, length = entry
        return os.pread(self._fd, length, offset)

    def __contains__(self, digest: str) -> bool:
        return digest in self._index or self._missed(digest) is not None

    def __len__(self) -> int:
        """Distinct pages stored."""
        self._scan()
        return len(self._index)

    def total_size(self) -> DataSize:
        self._scan()
        return DataSize.from_bytes(
            float(sum(length for _, length in self._index.values()))
        )

    def close(self) -> None:
        self._file.close()
