"""The WebLab relational metadata database.

"The decision was made to separate link information and metadata about
pages from their content, and store the meta-information in a relational
database on a single high-performance computer."

Tables: ``crawls`` (one per bimonthly pass), ``pages`` (one per url per
crawl, pointing at the page store by content hash), and ``links`` (the Web
graph's edges, per crawl).  Batch loading keeps transactions short; the
tunable batch size is one of the preload parameters the paper says needs
"extensive benchmarking".
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.errors import DuplicateCrawlError
from repro.db.connection import Database, connect
from repro.db.schema import Schema, apply_schema, column


def weblab_schema() -> Schema:
    # v2 added the two *covering* indexes for the hot serving queries
    # (retro page resolution and outlink navigation): they carry every
    # selected column, so sqlite answers from the index b-tree alone and
    # never touches the table — asserted via EXPLAIN QUERY PLAN in
    # tests/weblab/test_serving_cache.py.
    schema = Schema("weblab", version=2)
    schema.table(
        "crawls",
        [
            column("crawl_index", "INTEGER", "PRIMARY KEY"),
            column("crawl_time", "REAL", "NOT NULL"),
            column("page_count", "INTEGER", "NOT NULL DEFAULT 0"),
        ],
    )
    schema.table(
        "pages",
        [
            column("id", "INTEGER", "PRIMARY KEY"),
            column("url", "TEXT", "NOT NULL"),
            column("domain", "TEXT", "NOT NULL"),
            column("tld", "TEXT", "NOT NULL"),
            column("crawl_index", "INTEGER", "NOT NULL REFERENCES crawls(crawl_index)"),
            column("fetched_at", "REAL", "NOT NULL"),
            column("ip", "TEXT", "NOT NULL"),
            column("mime", "TEXT", "NOT NULL"),
            column("size_bytes", "INTEGER", "NOT NULL"),
            column("content_hash", "TEXT", "NOT NULL"),
        ],
        constraints=["UNIQUE(url, crawl_index)"],
        indexes=[
            ("url", "fetched_at"),
            ("domain",),
            ("crawl_index",),
            ("tld",),
            # Covering: page_pointer_as_of reads only these four columns.
            ("url", "fetched_at", "crawl_index", "content_hash"),
        ],
    )
    schema.table(
        "links",
        [
            column("id", "INTEGER", "PRIMARY KEY"),
            column("crawl_index", "INTEGER", "NOT NULL"),
            column("src_url", "TEXT", "NOT NULL"),
            column("dst_url", "TEXT", "NOT NULL"),
        ],
        indexes=[
            ("crawl_index", "src_url"),
            ("crawl_index", "dst_url"),
            # Covering: the outlink query reads only these columns.  ``id``
            # sits before ``dst_url`` so index order is insertion order —
            # the query's ORDER BY id costs no sort step.
            ("crawl_index", "src_url", "id", "dst_url"),
        ],
    )
    return schema


# Named parameters: a batch row is the dict the preload builds per record.
_INSERT_PAGE = (
    "INSERT INTO pages (url, domain, tld, crawl_index, fetched_at, ip, mime, "
    "size_bytes, content_hash) VALUES (:url, :domain, :tld, :crawl_index, "
    ":fetched_at, :ip, :mime, :size_bytes, :content_hash)"
)


class WebLabDatabase:
    """Metadata + link store over the relational layer."""

    def __init__(self, path: Optional[Union[str, Path]] = None):
        self.db: Database = connect(path)
        apply_schema(self.db, weblab_schema())

    def close(self) -> None:
        self.db.close()

    def __enter__(self) -> "WebLabDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- loading ---------------------------------------------------------------
    def register_crawl(self, crawl_index: int, crawl_time: float) -> None:
        existing = self.db.query_one(
            "SELECT crawl_time FROM crawls WHERE crawl_index = ?", (crawl_index,)
        )
        if existing is not None:
            if existing["crawl_time"] != crawl_time:
                raise DuplicateCrawlError(
                    f"crawl {crawl_index} already registered with "
                    f"crawl_time {existing['crawl_time']!r} (got {crawl_time!r})"
                )
            return
        self.db.insert("crawls", crawl_index=crawl_index, crawl_time=crawl_time)

    def load_page_batch(self, rows: Sequence[Dict[str, object]]) -> int:
        """Load one metadata batch (one short transaction); each crawl the
        batch holds rows for gains exactly those rows in ``page_count``."""
        with self.db.transaction():
            if rows:
                self.db.executemany(_INSERT_PAGE, rows)
                per_crawl = Counter(row["crawl_index"] for row in rows)
                for crawl_index, pages in per_crawl.items():
                    self.db.execute(
                        "UPDATE crawls SET page_count = page_count + ? "
                        "WHERE crawl_index = ?",
                        (pages, crawl_index),
                    )
        return len(rows)

    def load_link_batch(self, rows: Sequence[Tuple[int, str, str]]) -> int:
        with self.db.transaction():
            self.db.executemany(
                "INSERT INTO links (crawl_index, src_url, dst_url) VALUES (?, ?, ?)",
                rows,
            )
        return len(rows)

    # -- queries ---------------------------------------------------------------
    def crawl_indexes(self) -> List[int]:
        return [
            row["crawl_index"]
            for row in self.db.query("SELECT crawl_index FROM crawls ORDER BY crawl_index")
        ]

    def page_count(self, crawl_index: Optional[int] = None) -> int:
        if crawl_index is None:
            return self.db.count("pages")
        return self.db.count("pages", "crawl_index = ?", (crawl_index,))

    def link_count(self, crawl_index: Optional[int] = None) -> int:
        if crawl_index is None:
            return self.db.count("links")
        return self.db.count("links", "crawl_index = ?", (crawl_index,))

    def page_pointer_as_of(self, url: str, as_of: float) -> Optional[Dict[str, object]]:
        """The serving-path resolution: just the columns the retro browser
        needs, shaped so the covering index answers the query alone."""
        row = self.db.query_one(
            "SELECT url, fetched_at, crawl_index, content_hash FROM pages "
            "WHERE url = ? AND fetched_at <= ? ORDER BY fetched_at DESC LIMIT 1",
            (url, as_of),
        )
        if row is None:
            return None
        return {
            "url": row["url"],
            "fetched_at": row["fetched_at"],
            "crawl_index": row["crawl_index"],
            "content_hash": row["content_hash"],
        }

    def outlinks(self, crawl_index: int, src_url: str) -> List[str]:
        """Destination URLs of one page in one crawl, in load order
        (index-only query; the ORDER BY rides the covering index)."""
        rows = self.db.query(
            "SELECT dst_url FROM links WHERE crawl_index = ? AND src_url = ? "
            "ORDER BY id",
            (crawl_index, src_url),
        )
        return [row["dst_url"] for row in rows]

    def captures_of(self, url: str) -> List[float]:
        rows = self.db.query(
            "SELECT fetched_at FROM pages WHERE url = ? ORDER BY fetched_at", (url,)
        )
        return [row["fetched_at"] for row in rows]

    def links_of_crawl(self, crawl_index: int) -> List[Tuple[str, str]]:
        rows = self.db.query(
            "SELECT src_url, dst_url FROM links WHERE crawl_index = ?", (crawl_index,)
        )
        return [(row["src_url"], row["dst_url"]) for row in rows]

    def domains(self) -> List[str]:
        return [
            row["domain"]
            for row in self.db.query("SELECT DISTINCT domain FROM pages ORDER BY domain")
        ]
