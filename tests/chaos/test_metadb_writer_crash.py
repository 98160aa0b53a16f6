"""A preload killed around a metadata batch's commit: no lost commit.

``WebLabDatabase.load_page_batch`` and ``load_link_batch`` load one batch
per ``BEGIN IMMEDIATE`` ... ``COMMIT``.  The store journals ahead, so a
committed batch may live only in ``weblab.db-wal`` when the writer dies.
A preload SIGKILLed between a batch's ``executemany`` and its ``COMMIT``,
or just after a ``COMMIT`` returns, must leave a store that reopens
intact and dumps exactly like the same preload stopped cleanly at that
point: every committed batch present, the interrupted one absent.
"""

import json
import os
import shutil
import signal
import sqlite3
import subprocess
import sys
from contextlib import closing
from pathlib import Path

import pytest

import repro
from repro.weblab.arcformat import pack_crawl
from repro.weblab.datformat import pack_crawl_metadata
from repro.weblab.metadb import WebLabDatabase
from repro.weblab.synthweb import SyntheticWeb, SyntheticWebConfig

DIE_AT = 3  # the third batch is the one cut
BATCH_SIZE = 8

# Counts batch loads (``executemany`` calls).  At the DIE_AT-th batch it
# either SIGKILLs the writer ("kill") or raises and closes the store
# ("stop", the clean reference), before that batch's COMMIT or just
# after it returns.
WRITER = """
import json, os, signal, sys
from repro.db.connection import SqliteBackend
from repro.weblab.metadb import WebLabDatabase
from repro.weblab.pagestore import PageStore
from repro.weblab.preload import PreloadConfig, PreloadSubsystem

root, arcs, dats, die_at, where, action, batch_size = sys.argv[1:]
real_executemany = SqliteBackend._executemany
real_execute = SqliteBackend._execute
batches = 0

class Stopped(Exception):
    pass

def stop():
    if action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    raise Stopped

def counted_executemany(self, sql, rows):
    global batches
    real_executemany(self, sql, rows)
    batches += 1
    if where == "before-commit" and batches == int(die_at):
        stop()

def watched_execute(self, sql, params=()):
    cursor = real_execute(self, sql, params)
    if sql == "COMMIT" and where == "after-commit" and batches == int(die_at):
        stop()
    return cursor

SqliteBackend._executemany = counted_executemany
SqliteBackend._execute = watched_execute
database = WebLabDatabase(os.path.join(root, "weblab.db"))
store = PageStore(os.path.join(root, "pages"))
try:
    PreloadSubsystem(database, store, PreloadConfig(batch_size=int(batch_size))).run(
        [tuple(job) for job in json.loads(arcs)], [tuple(job) for job in json.loads(dats)]
    )
except Stopped:
    pass
database.close()
store.close()
"""


@pytest.fixture(scope="module")
def jobs(tmp_path_factory):
    incoming = tmp_path_factory.mktemp("incoming")
    web = SyntheticWeb(
        SyntheticWebConfig(seed=7, n_domains=4, initial_pages=20, new_pages_per_crawl=5)
    )
    arcs, dats = [], []
    for crawl in web.generate_crawls(2):
        stem = f"crawl{crawl.crawl_index:02d}"
        arc_paths = pack_crawl(crawl.pages, incoming, stem)
        dat_paths = pack_crawl_metadata(crawl.pages, arc_paths, incoming, stem)
        arcs.extend((str(path), crawl.crawl_index) for path in arc_paths)
        dats.extend((str(path), crawl.crawl_index) for path in dat_paths)
    return arcs, dats


def write(root, jobs, where, action):
    root.mkdir()
    src = Path(repro.__file__).resolve().parents[1]
    arcs, dats = jobs
    return subprocess.run(
        [sys.executable, "-c", WRITER, str(root), json.dumps(arcs), json.dumps(dats),
         str(DIE_AT), where, action, str(BATCH_SIZE)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )


def dump(path):
    with closing(sqlite3.connect(path)) as connection:
        return list(connection.iterdump())


def page_rows(path):
    with closing(sqlite3.connect(path)) as connection:
        return connection.execute("SELECT count(*) FROM pages").fetchone()[0]


@pytest.mark.parametrize("where", ["before-commit", "after-commit"])
def test_a_writer_killed_around_a_commit_loses_no_committed_batch(tmp_path, jobs, where):
    stopped = write(tmp_path / "stopped", jobs, where, "stop")
    assert stopped.returncode == 0, stopped.stderr
    clean = dump(tmp_path / "stopped" / "weblab.db")
    committed = page_rows(tmp_path / "stopped" / "weblab.db")
    assert committed > 0

    killed = write(tmp_path / "killed", jobs, where, "kill")
    assert killed.returncode == -signal.SIGKILL, killed.stderr
    db = tmp_path / "killed" / "weblab.db"
    wal = tmp_path / "killed" / "weblab.db-wal"
    assert wal.stat().st_size > 0

    # The committed batches live only in the log: the database file on its
    # own does not hold them.
    bare = tmp_path / "bare"
    bare.mkdir()
    shutil.copyfile(db, bare / "weblab.db")
    assert dump(bare / "weblab.db") != clean

    with WebLabDatabase(db) as reopened:
        assert reopened.db.query_value("PRAGMA integrity_check") == "ok"
        assert reopened.page_count() == committed
    assert not wal.exists()
    assert dump(db) == clean
