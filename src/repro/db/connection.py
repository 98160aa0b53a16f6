"""Backend-independent relational layer.

The paper is explicit about this layering for the CLEO EventStore:

    "All but the lowest layers of the database interface code are
    independent of the database implementation, allowing transparent use of
    an embedded database (SQLite) in the standalone versions and a standard
    relational database system (currently MySQL or MS SQL Server) in the
    larger scale systems."

We reproduce exactly that: :class:`Database` is the interface every
subsystem codes against; :class:`SqliteBackend` is the one concrete backend
(Python's stdlib ``sqlite3``), usable embedded/in-memory for "personal"
scale and file-backed for shared scales: a file store journals ahead
(``journal_mode = WAL``), so readers take no lock on the database file and
a writer's ``BEGIN IMMEDIATE`` ... ``COMMIT`` neither waits for them nor
stops them reading the last committed state.  ``synchronous`` keeps its
default ``FULL``: every commit is still fsynced.
"""

from __future__ import annotations

import sqlite3
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Union

from repro.core.errors import DatabaseError

Row = sqlite3.Row
Params = Union[Sequence[Any], dict]


class Database:
    """Interface all higher layers depend on.

    Concrete backends implement :meth:`_execute`; everything else is
    expressed in terms of it.  Statements use ``?`` placeholders.
    """

    # -- abstract ----------------------------------------------------------
    def _execute(self, sql: str, params: Params = ()) -> sqlite3.Cursor:
        raise NotImplementedError

    def _executemany(self, sql: str, rows: Sequence[Params]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    @contextmanager
    def transaction(self) -> Iterator["Database"]:
        raise NotImplementedError

    # -- generic API ---------------------------------------------------------
    def execute(self, sql: str, params: Params = ()) -> None:
        """Run a statement for its side effects."""
        self._execute(sql, params)

    def executemany(self, sql: str, rows: Iterable[Params]) -> int:
        """Run one statement for many parameter rows; returns the row count."""
        rows = list(rows)
        self._executemany(sql, rows)
        return len(rows)

    def query(self, sql: str, params: Params = ()) -> List[Row]:
        """Run a SELECT and return all rows."""
        return self._execute(sql, params).fetchall()

    def query_one(self, sql: str, params: Params = ()) -> Optional[Row]:
        """Run a SELECT expected to return at most one row."""
        rows = self._execute(sql, params).fetchmany(2)
        if len(rows) > 1:
            raise DatabaseError(f"query_one returned multiple rows: {sql!r}")
        return rows[0] if rows else None

    def query_value(self, sql: str, params: Params = ()) -> Any:
        """Run a SELECT returning a single scalar (or None)."""
        row = self.query_one(sql, params)
        return row[0] if row is not None else None

    def insert(self, table: str, **values: Any) -> int:
        """Insert one row; returns the new rowid."""
        if not values:
            raise DatabaseError(f"insert into {table!r} with no values")
        columns = ", ".join(values)
        placeholders = ", ".join("?" for _ in values)
        cursor = self._execute(
            f"INSERT INTO {table} ({columns}) VALUES ({placeholders})",
            tuple(values.values()),
        )
        return int(cursor.lastrowid or 0)

    def table_exists(self, name: str) -> bool:
        return (
            self.query_value(
                "SELECT count(*) FROM sqlite_master WHERE type = 'table' AND name = ?",
                (name,),
            )
            > 0
        )

    def count(self, table: str, where: str = "", params: Params = ()) -> int:
        sql = f"SELECT count(*) FROM {table}"
        if where:
            sql += f" WHERE {where}"
        return int(self.query_value(sql, params))


class SqliteBackend(Database):
    """The embedded backend.

    ``path=None`` gives a private in-memory database (the "personal
    EventStore on a laptop" case, "supporting completely disconnected
    operation"); a filesystem path gives a durable store that multiple
    components of one process share.  While a file store is open sqlite
    keeps two files beside it, ``<path>-wal`` (committed pages not yet
    copied back into the database) and ``<path>-shm`` (the index readers
    share); the last connection's :meth:`close` checkpoints the log into
    the database and deletes both.  A backend belongs to the thread that
    opened it: sqlite refuses a statement from any other, and that refusal
    surfaces as :class:`DatabaseError` like any other sqlite error.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None):
        self.path = str(path) if path is not None else ":memory:"
        try:
            self._conn = sqlite3.connect(self.path)
        except sqlite3.Error as exc:
            raise DatabaseError(f"cannot open database {self.path!r}: {exc}") from exc
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA foreign_keys = ON")
        if self.path != ":memory:":
            try:
                self._conn.execute("PRAGMA journal_mode = WAL")
            except sqlite3.Error as exc:
                self._conn.close()
                raise DatabaseError(f"cannot open database {self.path!r}: {exc}") from exc
        self._conn.isolation_level = None  # autocommit; transactions are explicit
        self._in_transaction = False
        self._closed = False

    def _execute(self, sql: str, params: Params = ()) -> sqlite3.Cursor:
        if self._closed:
            raise DatabaseError(f"database {self.path!r} is closed")
        try:
            return self._conn.execute(sql, params)
        except sqlite3.Error as exc:
            raise DatabaseError(f"{exc} (while executing {sql!r})") from exc

    def _executemany(self, sql: str, rows: Sequence[Params]) -> None:
        if self._closed:
            raise DatabaseError(f"database {self.path!r} is closed")
        try:
            self._conn.executemany(sql, rows)
        except sqlite3.Error as exc:
            raise DatabaseError(f"{exc} (while executing {sql!r})") from exc

    @contextmanager
    def transaction(self) -> Iterator["SqliteBackend"]:
        """Explicit transaction; nested use raises (keep transactions short —
        the paper's merge strategy exists precisely to avoid long-running
        open transactions on the main repository)."""
        if self._in_transaction:
            raise DatabaseError("nested transactions are not supported")
        self._execute("BEGIN IMMEDIATE")
        self._in_transaction = True
        try:
            yield self
        except Exception:
            # The caller's exception is the diagnosis; a ROLLBACK that
            # itself fails (connection died, disk gone) must not mask
            # it.  sqlite aborts the transaction either way.
            try:
                self._execute("ROLLBACK")
            except DatabaseError:
                pass
            raise
        else:
            self._execute("COMMIT")
        finally:
            self._in_transaction = False

    def close(self) -> None:
        if not self._closed:
            self._conn.close()
            self._closed = True

    def __enter__(self) -> "SqliteBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def connect(path: Optional[Union[str, Path]] = None) -> SqliteBackend:
    """Open the default backend: embedded SQLite."""
    return SqliteBackend(path)
