"""Page content store.

"The preload subsystem [...] generates two types of output files: metadata
for loading into a relational database and the actual content of the Web
pages to be stored separately."  This is the *separately*: a
content-addressed store on disk, keyed by the content hash that the
metadata database records for each (url, crawl) pair.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Iterator, Union

from repro.core.errors import WebLabError
from repro.core.units import DataSize

_HEX_DIGITS = "0123456789abcdef"


def content_hash(content: bytes) -> str:
    return hashlib.sha1(content).hexdigest()


class PageStore:
    """Content-addressed blob store with two-level fan-out directories.

    A blob lives at ``root/ab/cd/abcd...`` where ``abcd...`` is its
    :func:`content_hash`.  Digests reach :meth:`get` from the metadata
    database and, through the service facade, from callers; only what
    ``content_hash`` can produce (lowercase hexadecimal, so no path
    separator) is ever turned into a path.  Reads are the serving
    layer's per-blob cost, so a path is one string built from a root
    stringified once and a read is one ``open`` — no ``Path`` per
    component, no ``stat`` before the read.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._root = str(self.root)

    def _path_for(self, digest: str) -> str:
        # ``strip`` leaves nothing exactly when every character is a hex
        # digit: the whole check runs inside one C-level str call.
        if len(digest) < 4 or digest.strip(_HEX_DIGITS):
            raise WebLabError(f"bad content hash {digest!r}")
        return f"{self._root}/{digest[:2]}/{digest[2:4]}/{digest}"

    def _blobs(self) -> Iterator[Path]:
        """Every stored blob: the fan-out :meth:`_path_for` builds, walked."""
        return (path for path in self.root.glob("*/*/*") if path.is_file())

    def put(self, content: bytes) -> str:
        """Store content; returns its hash.  Duplicate content is stored once
        (crawls re-fetch mostly unchanged pages, so this dedup is where the
        archive's compression really comes from)."""
        digest = content_hash(content)
        path = self._path_for(digest)
        if not os.path.exists(path):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as handle:
                handle.write(content)
        return digest

    def get(self, digest: str) -> bytes:
        path = self._path_for(digest)
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            raise WebLabError(f"page store has no content {digest!r}") from None

    def __contains__(self, digest: str) -> bool:
        return os.path.exists(self._path_for(digest))

    def total_size(self) -> DataSize:
        return DataSize.from_bytes(
            float(sum(path.stat().st_size for path in self._blobs()))
        )
