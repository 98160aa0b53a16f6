"""Subset extraction and stratified sampling.

"A common theme is that researchers wish to extract a portion of the Web
to analyze in depth, not the entire Web.  Almost invariably, they wish to
have several time slices [...] a facility to extract subsets of the
collection and store them as database views."

And the capability the paper says clusters make hard: "it would be
extremely difficult to extract a stratified sample of Web pages from the
Internet Archive" — trivial here, because the metadata lives in one
relational database.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import WebLabError
from repro.db.query import Select
from repro.weblab.metadb import WebLabDatabase


@dataclass(frozen=True)
class SubsetCriteria:
    """Researcher-facing selection: metadata predicates + time slices.

    "Some use conventional metadata, e.g., specific domains, file type, or
    date ranges."
    """

    domains: Tuple[str, ...] = ()
    tlds: Tuple[str, ...] = ()
    mime_prefix: Optional[str] = None
    crawl_indexes: Tuple[int, ...] = ()
    fetched_after: Optional[float] = None
    fetched_before: Optional[float] = None

    def apply(self, query: Select) -> Select:
        if self.domains:
            query = query.where_in("domain", self.domains)
        if self.tlds:
            query = query.where_in("tld", self.tlds)
        if self.mime_prefix is not None:
            query = query.where("mime LIKE ?", self.mime_prefix + "%")
        if self.crawl_indexes:
            query = query.where_in("crawl_index", self.crawl_indexes)
        if self.fetched_after is not None:
            query = query.where("fetched_at >= ?", self.fetched_after)
        if self.fetched_before is not None:
            query = query.where("fetched_at <= ?", self.fetched_before)
        return query

    def cache_token(self) -> str:
        """Stable digest of the criteria, for read-cache keys."""
        payload = json.dumps(
            {
                "domains": list(self.domains),
                "tlds": list(self.tlds),
                "mime_prefix": self.mime_prefix,
                "crawl_indexes": list(self.crawl_indexes),
                "fetched_after": self.fetched_after,
                "fetched_before": self.fetched_before,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _validate_view_name(name: str) -> str:
    if not name or not name.replace("_", "").isalnum() or not name[0].isalpha():
        raise WebLabError(f"bad view name {name!r}")
    return name


def extract_subset(
    database: WebLabDatabase, name: str, criteria: SubsetCriteria
) -> int:
    """Materialize a subset as a database view; returns its row count."""
    name = _validate_view_name(name)
    sql, params = criteria.apply(Select("pages")).sql()
    database.db.execute(f"DROP VIEW IF EXISTS {name}")
    # Views cannot carry bound parameters; inline them through a literal
    # rendering that goes through sqlite's own quoting.
    rendered = _render_literals(sql, params)
    database.db.execute(f"CREATE VIEW {name} AS {rendered}")
    return int(database.db.query_value(f"SELECT count(*) FROM {name}"))


def _render_literals(sql: str, params: Sequence[object]) -> str:
    parts = sql.split("?")
    if len(parts) - 1 != len(params):
        raise WebLabError("placeholder/parameter mismatch")
    rendered = parts[0]
    for part, param in zip(parts[1:], params):
        if isinstance(param, (int, float)):
            literal = repr(param)
        else:
            literal = "'" + str(param).replace("'", "''") + "'"
        rendered += literal + part
    return rendered


def list_subsets(database: WebLabDatabase) -> List[str]:
    rows = database.db.query(
        "SELECT name FROM sqlite_master WHERE type = 'view' ORDER BY name"
    )
    return [row["name"] for row in rows]


def stratified_sample(
    database: WebLabDatabase,
    stratum_column: str,
    per_stratum: int,
    criteria: Optional[SubsetCriteria] = None,
    seed: int = 0,
) -> Dict[str, List[str]]:
    """Sample up to ``per_stratum`` page URLs from every stratum.

    ``stratum_column`` is one of the page metadata columns (``domain``,
    ``tld``, ``crawl_index``, ``mime``).  Sampling is deterministic per
    seed.  Returns {stratum value: [urls]}.
    """
    if stratum_column not in ("domain", "tld", "crawl_index", "mime"):
        raise WebLabError(f"cannot stratify by {stratum_column!r}")
    if per_stratum < 1:
        raise WebLabError("per_stratum must be at least 1")
    query = Select("pages", [stratum_column, "url"])
    if criteria is not None:
        query = criteria.apply(query)
    rows = query.run(database.db)
    by_stratum: Dict[str, List[str]] = {}
    for row in rows:
        by_stratum.setdefault(str(row[stratum_column]), []).append(row["url"])
    rng = random.Random(seed)
    sample: Dict[str, List[str]] = {}
    for stratum in sorted(by_stratum):
        urls = sorted(set(by_stratum[stratum]))
        if len(urls) <= per_stratum:
            sample[stratum] = urls
        else:
            sample[stratum] = sorted(rng.sample(urls, per_stratum))
    return sample
