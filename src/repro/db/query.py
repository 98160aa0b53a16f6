"""Small composable SELECT builder and row mapping helpers.

Heavier layers (subset extraction in WebLab, grade queries in EventStore)
need dynamic WHERE clauses; hand-concatenating SQL invites both bugs and
injection, so this module centralizes it.  Only the features actually used
by the library are implemented — this is not an ORM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import DatabaseError
from repro.db.connection import Database, Row


@dataclass
class Select:
    """A buildable SELECT statement.

    Example::

        rows = (
            Select("pages", ["url", "fetched_at"])
            .where("domain = ?", "cornell.edu")
            .where("fetched_at <= ?", cutoff)
            .order_by("fetched_at DESC")
            .limit(10)
            .run(db)
        )
    """

    table: str
    columns: Sequence[str] = ("*",)
    _wheres: List[Tuple[str, Tuple[Any, ...]]] = field(default_factory=list)
    _order: Optional[str] = None
    _group: Optional[str] = None
    _limit: Optional[int] = None

    def where(self, clause: str, *params: Any) -> "Select":
        self._wheres.append((clause, tuple(params)))
        return self

    def where_in(self, column: str, values: Iterable[Any]) -> "Select":
        values = list(values)
        if not values:
            # An empty IN list matches nothing; encode that explicitly.
            self._wheres.append(("1 = 0", ()))
            return self
        placeholders = ", ".join("?" for _ in values)
        self._wheres.append((f"{column} IN ({placeholders})", tuple(values)))
        return self

    def order_by(self, clause: str) -> "Select":
        self._order = clause
        return self

    def group_by(self, clause: str) -> "Select":
        self._group = clause
        return self

    def limit(self, n: int) -> "Select":
        if n < 0:
            raise DatabaseError(f"negative LIMIT: {n}")
        self._limit = n
        return self

    def sql(self) -> Tuple[str, Tuple[Any, ...]]:
        parts = [f"SELECT {', '.join(self.columns)} FROM {self.table}"]
        params: List[Any] = []
        if self._wheres:
            clauses = " AND ".join(f"({clause})" for clause, _ in self._wheres)
            parts.append(f"WHERE {clauses}")
            for _, clause_params in self._wheres:
                params.extend(clause_params)
        if self._group:
            parts.append(f"GROUP BY {self._group}")
        if self._order:
            parts.append(f"ORDER BY {self._order}")
        if self._limit is not None:
            parts.append(f"LIMIT {self._limit}")
        return " ".join(parts), tuple(params)

    def run(self, db: Database) -> List[Row]:
        sql, params = self.sql()
        return db.query(sql, params)

    def run_one(self, db: Database) -> Optional[Row]:
        sql, params = self.sql()
        return db.query_one(sql, params)

    def count(self, db: Database) -> int:
        inner_sql, params = self.sql()
        return int(db.query_value(f"SELECT count(*) FROM ({inner_sql})", params))
