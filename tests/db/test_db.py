"""Tests for the relational layer (connection, schema, query builder)."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.arecibo.metaanalysis import CandidateDatabase
from repro.core.errors import DatabaseError
from repro.db.connection import connect
from repro.db.query import Select
from repro.db.schema import Schema, applied_version, apply_schema, column
from repro.eventstore.store import EventStore
from repro.weblab.metadb import WebLabDatabase
from repro.weblab.services import WebLab


@pytest.fixture()
def db():
    backend = connect()
    yield backend
    backend.close()


def pages_schema(version=1):
    schema = Schema("pages", version=version)
    schema.table(
        "pages",
        [
            column("id", "INTEGER", "PRIMARY KEY"),
            column("url", "TEXT", "NOT NULL"),
            column("domain", "TEXT", "NOT NULL"),
            column("fetched_at", "REAL", "NOT NULL"),
        ],
        indexes=[("domain",), ("url", "fetched_at")],
    )
    return schema


class TestConnection:
    def test_in_memory_roundtrip(self, db):
        db.execute("CREATE TABLE t (x INTEGER)")
        db.insert("t", x=42)
        assert db.query_value("SELECT x FROM t") == 42

    def test_file_backed(self, tmp_path):
        path = tmp_path / "store.db"
        with connect(path) as db:
            db.execute("CREATE TABLE t (x INTEGER)")
            db.insert("t", x=1)
        with connect(path) as db:
            assert db.query_value("SELECT x FROM t") == 1

    def test_closed_database_rejects_use(self, tmp_path):
        db = connect(tmp_path / "x.db")
        db.close()
        with pytest.raises(DatabaseError, match="closed"):
            db.query("SELECT 1")
        with pytest.raises(DatabaseError, match="closed"):
            db.executemany("INSERT INTO t (x) VALUES (?)", [(1,)])

    def test_sql_error_wrapped(self, db):
        with pytest.raises(DatabaseError):
            db.query("SELECT * FROM nonexistent")
        with pytest.raises(DatabaseError, match="nonexistent"):
            db.executemany("INSERT INTO nonexistent (x) VALUES (?)", [(1,), (2,)])

    def test_another_thread_is_refused(self, db):
        """A backend belongs to the thread that opened it; any other gets a
        loud DatabaseError, not a statement run beside the owner's."""
        with ThreadPoolExecutor(max_workers=1) as pool:
            with pytest.raises(DatabaseError, match="thread"):
                pool.submit(db.query, "SELECT 1").result()
            with pytest.raises(DatabaseError, match="thread"):
                pool.submit(db.executemany, "SELECT ?", [(1,)]).result()
        assert db.query_value("SELECT 1") == 1

    def test_query_one(self, db):
        db.execute("CREATE TABLE t (x INTEGER)")
        assert db.query_one("SELECT x FROM t") is None
        db.insert("t", x=1)
        assert db.query_one("SELECT x FROM t")["x"] == 1
        db.insert("t", x=2)
        with pytest.raises(DatabaseError, match="multiple"):
            db.query_one("SELECT x FROM t")

    def test_insert_requires_values(self, db):
        with pytest.raises(DatabaseError):
            db.insert("t")

    def test_executemany_counts(self, db):
        db.execute("CREATE TABLE t (x INTEGER)")
        n = db.executemany("INSERT INTO t (x) VALUES (?)", [(i,) for i in range(5)])
        assert n == 5
        assert db.count("t") == 5

    def test_count_with_where(self, db):
        db.execute("CREATE TABLE t (x INTEGER)")
        db.executemany("INSERT INTO t (x) VALUES (?)", [(i,) for i in range(10)])
        assert db.count("t", "x >= ?", (5,)) == 5

    def test_transaction_commits(self, db):
        db.execute("CREATE TABLE t (x INTEGER)")
        with db.transaction():
            db.insert("t", x=1)
        assert db.count("t") == 1

    def test_transaction_rolls_back_on_error(self, db):
        db.execute("CREATE TABLE t (x INTEGER)")
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert("t", x=1)
                raise RuntimeError("abort")
        assert db.count("t") == 0

    def test_nested_transaction_rejected(self, db):
        with pytest.raises(DatabaseError, match="nested"):
            with db.transaction():
                with db.transaction():
                    pass

    def test_failed_rollback_does_not_mask_original_error(self, db):
        """Double fault: when the ROLLBACK itself fails (here: the
        connection died mid-transaction), the caller must still see the
        exception that aborted the transaction — not the rollback's."""
        db.execute("CREATE TABLE t (x INTEGER)")
        with pytest.raises(RuntimeError, match="original failure"):
            with db.transaction():
                db.insert("t", x=1)
                db.close()  # subsequent ROLLBACK raises DatabaseError
                raise RuntimeError("original failure")

    def test_failed_rollback_still_resets_transaction_state(self, db):
        db.execute("CREATE TABLE t (x INTEGER)")
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.close()
                raise RuntimeError("abort")
        # The in-transaction flag was released despite the double fault.
        with pytest.raises(DatabaseError, match="closed"):
            with db.transaction():
                pass

    def test_table_names_and_exists(self, db):
        db.execute("CREATE TABLE zebra (x INTEGER)")
        db.execute("CREATE TABLE aardvark (x INTEGER)")
        assert db.table_exists("zebra")
        assert db.table_exists("aardvark")
        assert not db.table_exists("lion")


class TestSchema:
    def test_apply_creates_tables_and_indexes(self, db):
        apply_schema(db, pages_schema())
        assert db.table_exists("pages")
        index_names = [
            row["name"]
            for row in db.query("SELECT name FROM sqlite_master WHERE type = 'index'")
        ]
        assert "idx_pages_domain" in index_names
        assert "idx_pages_url_fetched_at" in index_names

    def test_apply_is_idempotent(self, db):
        apply_schema(db, pages_schema())
        apply_schema(db, pages_schema())
        assert applied_version(db, "pages") == 1

    def test_version_upgrades(self, db):
        apply_schema(db, pages_schema(version=1))
        apply_schema(db, pages_schema(version=2))
        assert applied_version(db, "pages") == 2

    def test_downgrade_refused(self, db):
        apply_schema(db, pages_schema(version=3))
        with pytest.raises(DatabaseError, match="v3"):
            apply_schema(db, pages_schema(version=2))

    def test_duplicate_table_rejected(self):
        schema = pages_schema()
        with pytest.raises(DatabaseError):
            schema.table("pages", [column("x")])

    def test_never_applied_version_is_zero(self, db):
        assert applied_version(db, "whatever") == 0

    def test_fresh_schema_is_applied_in_one_transaction(self, db, write_log):
        apply_schema(db, pages_schema())
        assert (write_log.commits, write_log.autocommitted) == (1, [])
        assert applied_version(db, "pages") == 1
        # Up to date: reads only.
        apply_schema(db, pages_schema())
        assert write_log.write_transactions == 1

    def test_upgrade_and_repair_are_one_transaction_each(self, db, write_log):
        apply_schema(db, pages_schema(version=1))
        apply_schema(db, pages_schema(version=2))
        db.execute("DROP INDEX idx_pages_domain")
        before = write_log.write_transactions
        apply_schema(db, pages_schema(version=2))  # same version, something missing
        assert write_log.write_transactions == before + 1
        assert write_log.commits == 3
        names = {row["name"] for row in db.query("SELECT name FROM sqlite_master")}
        assert "idx_pages_domain" in names

    def test_failed_apply_leaves_nothing_behind(self, db):
        schema = pages_schema()
        schema.table("broken", [column("x", "INTEGER", "REFERENCES")])
        with pytest.raises(DatabaseError):
            apply_schema(db, schema)
        assert db.query("SELECT name FROM sqlite_master WHERE type = 'table'") == []

    def test_store_opens_while_another_handle_holds_a_transaction(self, tmp_path):
        """Opening an up-to-date store takes no write lock.

        The paper's stores are shared: a physicist opening the collaboration
        store must not queue behind an officer's merge in progress.
        """
        with EventStore(tmp_path / "store") as first:
            with first.db.transaction():
                first.db.insert("grade_entries", grade="physics", timestamp=1.0,
                                run_key="run:1", version="v1")
                with EventStore(tmp_path / "store") as second:  # no "database is locked"
                    assert second.grades() == []  # uncommitted rows stay invisible
            with EventStore(tmp_path / "store") as third:
                assert third.grades() == ["physics"]


def _log_files(root):
    return sorted(path.name for path in root.rglob("*") if path.name.endswith(("-wal", "-shm")))


class TestWriteAheadLog:
    """File stores journal ahead; ``:memory:`` keeps its memory journal."""

    def test_a_file_store_journals_ahead_and_still_syncs_in_full(self, tmp_path):
        with connect(tmp_path / "store.db") as store:
            assert store.query_value("PRAGMA journal_mode") == "wal"
            assert store.query_value("PRAGMA synchronous") == 2  # FULL
        with connect() as private:
            assert private.query_value("PRAGMA journal_mode") == "memory"

    def test_an_open_reader_does_not_block_a_batch_load(self, tmp_path):
        """The Retro Browser keeps reading while the preload commits.

        In rollback-journal mode the reader's SHARED lock held the writer's
        ``COMMIT`` out until sqlite's busy timeout raised.
        """
        rows = [
            {"url": f"http://s{i}.example.com/", "domain": f"s{i}.example.com",
             "tld": "com", "crawl_index": 0, "fetched_at": float(i), "ip": "10.0.0.1",
             "mime": "text/html", "size_bytes": 1, "content_hash": "0" * 40}
            for i in range(6)
        ]
        with WebLabDatabase(tmp_path / "weblab.db") as writer:
            writer.register_crawl(0, 0.0)
            writer.load_page_batch(rows[:2])
            with connect(tmp_path / "weblab.db") as reader:
                reader.execute("BEGIN")
                assert reader.count("pages") == 2  # the snapshot starts here
                writer.load_page_batch(rows[2:])
                assert writer.page_count() == 6
                assert reader.count("pages") == 2  # still its snapshot
                reader.execute("COMMIT")
                assert reader.count("pages") == 6

    def test_closing_a_store_leaves_no_log_files(self, tmp_path):
        weblab = WebLab(tmp_path / "weblab")
        weblab.database.register_crawl(0, 0.0)
        assert _log_files(tmp_path) == ["weblab.db-shm", "weblab.db-wal"]
        weblab.close()
        with CandidateDatabase(tmp_path / "candidates.db") as candidates:
            candidates.db.execute("CREATE TABLE scratch (x INTEGER)")
        store = EventStore(tmp_path / "store")
        store.db.insert("grade_entries", grade="physics", timestamp=1.0,
                        run_key="run:1", version="v1")
        store.close()
        assert _log_files(tmp_path) == []
        assert sorted(path.name for path in tmp_path.rglob("*.db")) == [
            "candidates.db", "eventstore.db", "weblab.db"
        ]


class TestSelect:
    @pytest.fixture()
    def loaded(self, db):
        apply_schema(db, pages_schema())
        rows = [
            ("http://a.edu/1", "a.edu", 10.0),
            ("http://a.edu/2", "a.edu", 20.0),
            ("http://b.com/1", "b.com", 15.0),
            ("http://c.org/1", "c.org", 30.0),
        ]
        db.executemany(
            "INSERT INTO pages (url, domain, fetched_at) VALUES (?, ?, ?)", rows
        )
        return db

    def test_where_chaining(self, loaded):
        rows = (
            Select("pages", ["url"])
            .where("domain = ?", "a.edu")
            .where("fetched_at >= ?", 15.0)
            .run(loaded)
        )
        assert [row["url"] for row in rows] == ["http://a.edu/2"]

    def test_where_in(self, loaded):
        rows = Select("pages", ["url"]).where_in("domain", ["a.edu", "b.com"]).run(loaded)
        assert len(rows) == 3

    def test_where_in_empty_matches_nothing(self, loaded):
        assert Select("pages").where_in("domain", []).run(loaded) == []

    def test_order_by(self, loaded):
        rows = Select("pages", ["url"]).order_by("fetched_at DESC").run(loaded)
        assert [row["url"] for row in rows] == [
            "http://c.org/1", "http://a.edu/2", "http://b.com/1", "http://a.edu/1",
        ]

    def test_count(self, loaded):
        assert Select("pages").where("fetched_at > ?", 12.0).count(loaded) == 3

    def test_run_one(self, loaded):
        (row,) = Select("pages", ["url"]).where("domain = ?", "b.com").run(loaded)
        assert row["url"] == "http://b.com/1"
