"""The Retro Browser.

"General services provided include a Retro Browser to browse the Web as it
was at a certain date" — resolve a URL to its most recent capture at or
before the requested date, serve the archived content from the page store,
and rewrite outlinks so navigation stays inside the chosen time slice.

The browser is the hottest access path the workload engine (C21) drives,
so its read path is built in three cacheable tiers, each a separate
:class:`~repro.core.readcache.ReadCache` key space:

* ``asof:`` — the (url, as_of) → capture-pointer resolution (including
  *negative* results: "never captured by then" is cached too);
* ``links:`` — the (crawl, url) → outlink list;
* ``blob:`` — content by hash (content addresses are immutable, so these
  entries never need invalidating).

Navigation resolves the *source* page through the pointer + link tiers
only — it never fetches the source page's content just to follow one
outlink (the double-fetch this layout exists to kill).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.errors import WebLabError
from repro.core.readcache import ReadCache
from repro.weblab.metadb import WebLabDatabase
from repro.weblab.pagestore import PageStore


@dataclass(frozen=True)
class RetroPage:
    """One archived page as served by the retro browser."""

    url: str
    as_of: float
    fetched_at: float
    crawl_index: int
    content: bytes
    outlinks: Tuple[str, ...]

    @property
    def text(self) -> str:
        return self.content.decode("utf-8", errors="replace")


class RetroBrowser:
    """Date-pinned navigation over the archive.

    The resolution rule is the same most-recent-prior rule the EventStore
    uses for grades — the paper's three projects converge on timestamp-
    pinned consistency from different directions.

    ``cache=None`` (the default) serves every request straight from the
    database and page store; passing a :class:`ReadCache` turns on the
    tiered read path described in the module docstring.
    """

    def __init__(
        self,
        database: WebLabDatabase,
        pagestore: PageStore,
        cache: Optional[ReadCache] = None,
    ):
        self.database = database
        self.pagestore = pagestore
        self.cache = cache

    # -- cacheable tiers ---------------------------------------------------
    def _pointer(self, url: str, as_of: float) -> Optional[Dict[str, object]]:
        """(url, as_of) → capture pointer, negative results included."""
        if self.cache is None:
            return self.database.page_pointer_as_of(url, as_of)
        return self.cache.get_or_load(
            f"asof:{url}@{as_of!r}",
            lambda: self.database.page_pointer_as_of(url, as_of),
        )

    def _outlinks(self, crawl_index: int, url: str) -> Tuple[str, ...]:
        if self.cache is None:
            return tuple(self.database.outlinks(crawl_index, url))
        return self.cache.get_or_load(
            f"links:{crawl_index}:{url}",
            lambda: tuple(self.database.outlinks(crawl_index, url)),
        )

    def _content(self, digest: str) -> bytes:
        if self.cache is None:
            return self.pagestore.get(digest)
        return self.cache.get_or_load(
            f"blob:{digest}",
            lambda: self.pagestore.get(digest),
        )

    # -- the service -------------------------------------------------------
    def get(self, url: str, as_of: float) -> RetroPage:
        """The page as it was at ``as_of``; raises if never captured by then."""
        pointer = self._pointer(url, as_of)
        if pointer is None:
            raise WebLabError(f"no capture of {url!r} at or before {as_of}")
        crawl_index = int(pointer["crawl_index"])  # type: ignore[arg-type]
        return RetroPage(
            url=url,
            as_of=as_of,
            fetched_at=float(pointer["fetched_at"]),  # type: ignore[arg-type]
            crawl_index=crawl_index,
            content=self._content(str(pointer["content_hash"])),
            outlinks=self._outlinks(crawl_index, url),
        )

    def outlinks(self, url: str, as_of: float) -> Tuple[str, ...]:
        """Just the date-pinned outlinks — no page content is fetched."""
        pointer = self._pointer(url, as_of)
        if pointer is None:
            raise WebLabError(f"no capture of {url!r} at or before {as_of}")
        return self._outlinks(int(pointer["crawl_index"]), url)  # type: ignore[arg-type]

    def navigate(self, url: str, as_of: float, link_index: int) -> RetroPage:
        """Follow the n-th outlink, staying pinned at the same date.

        Only the *destination* page's content is fetched; the source page
        contributes its outlink list alone.
        """
        outlinks = self.outlinks(url, as_of)
        if not 0 <= link_index < len(outlinks):
            raise WebLabError(
                f"{url!r} has {len(outlinks)} outlinks; no index {link_index}"
            )
        return self.get(outlinks[link_index], as_of)

    def history(self, url: str) -> List[float]:
        """All capture times of a URL, oldest first (the time-slice axis)."""
        return self.database.captures_of(url)
