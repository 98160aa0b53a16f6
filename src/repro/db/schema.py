"""Declarative schemas with versioned migration.

Each subsystem (EventStore, WebLab metadata DB, Arecibo candidate DB)
declares its tables and indexes once; :func:`apply_schema` creates what is
missing and records the schema version, so a store file created by an older
library version is upgraded in place — the paper's systems live for decades
("the plan is to keep the raw data and data products indefinitely"), which
makes in-place schema evolution a requirement, not a nicety.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.core.errors import DatabaseError
from repro.db.connection import Database

_META_TABLE = "_schema_meta"


@dataclass(frozen=True)
class Column:
    """One column definition."""

    name: str
    type: str = "TEXT"
    constraints: str = ""

    def render(self) -> str:
        parts = [self.name, self.type]
        if self.constraints:
            parts.append(self.constraints)
        return " ".join(parts)


@dataclass(frozen=True)
class Table:
    """One table with its columns, constraints, and secondary indexes."""

    name: str
    columns: Tuple[Column, ...]
    constraints: Tuple[str, ...] = ()
    indexes: Tuple[Tuple[str, ...], ...] = ()

    def create_sql(self) -> str:
        body = [column.render() for column in self.columns]
        body.extend(self.constraints)
        return f"CREATE TABLE IF NOT EXISTS {self.name} ({', '.join(body)})"

    def index_names(self) -> List[str]:
        return [f"idx_{self.name}_{'_'.join(columns)}" for columns in self.indexes]

    def index_sql(self) -> List[str]:
        return [
            f"CREATE INDEX IF NOT EXISTS {index_name} "
            f"ON {self.name} ({', '.join(columns)})"
            for index_name, columns in zip(self.index_names(), self.indexes)
        ]


def column(name: str, type: str = "TEXT", constraints: str = "") -> Column:
    return Column(name=name, type=type, constraints=constraints)


@dataclass
class Schema:
    """A named, versioned collection of tables."""

    name: str
    version: int
    tables: List[Table] = field(default_factory=list)

    def table(
        self,
        name: str,
        columns: Sequence[Column],
        constraints: Sequence[str] = (),
        indexes: Sequence[Sequence[str]] = (),
    ) -> Table:
        if any(existing.name == name for existing in self.tables):
            raise DatabaseError(f"duplicate table {name!r} in schema {self.name!r}")
        table = Table(
            name=name,
            columns=tuple(columns),
            constraints=tuple(constraints),
            indexes=tuple(tuple(index) for index in indexes),
        )
        self.tables.append(table)
        return table


def applied_version(db: Database, schema_name: str) -> int:
    """Schema version currently applied to this database (0 if never)."""
    if not db.table_exists(_META_TABLE):
        return 0
    value = db.query_value(
        f"SELECT version FROM {_META_TABLE} WHERE schema_name = ?", (schema_name,)
    )
    return int(value) if value is not None else 0


def _complete(db: Database, schema: Schema) -> bool:
    """Whether every table and index the schema declares already exists."""
    present = {row["name"] for row in db.query("SELECT name FROM sqlite_master")}
    return all(
        name in present
        for table in schema.tables
        for name in (table.name, *table.index_names())
    )


def apply_schema(db: Database, schema: Schema) -> int:
    """Create missing tables and indexes; returns the applied version.

    Creation is idempotent.  Downgrades (database newer than code) are
    refused rather than guessed at.  Whatever is missing is created in one
    transaction; a database already at this version with nothing missing
    is only read, so opening a store never waits on another writer.
    """
    current = applied_version(db, schema.name)
    if current > schema.version:
        raise DatabaseError(
            f"database has schema {schema.name!r} v{current}, "
            f"code only knows v{schema.version}"
        )
    if current == schema.version and _complete(db, schema):
        return schema.version
    with db.transaction():
        db.execute(
            f"CREATE TABLE IF NOT EXISTS {_META_TABLE} "
            "(schema_name TEXT PRIMARY KEY, version INTEGER NOT NULL)"
        )
        for table in schema.tables:
            db.execute(table.create_sql())
            for statement in table.index_sql():
                db.execute(statement)
        if current == 0:
            db.execute(
                f"INSERT INTO {_META_TABLE} (schema_name, version) VALUES (?, ?)",
                (schema.name, schema.version),
            )
        elif current < schema.version:
            db.execute(
                f"UPDATE {_META_TABLE} SET version = ? WHERE schema_name = ?",
                (schema.version, schema.name),
            )
    return schema.version
