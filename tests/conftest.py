"""Fixtures shared by every test package."""

import threading

import pytest

from repro.core import kernels
from repro.db.connection import SqliteBackend


@pytest.fixture(params=(1, 2, 3, 8), ids=lambda n: f"threads{n}")
def kernel_threads(request, monkeypatch):
    """Run the test with ``kernels.KERNEL_THREADS`` at 1, 2, 3 and 8, and
    check that no thread a tiled kernel started outlives the test."""
    monkeypatch.setattr(kernels, "KERNEL_THREADS", request.param)
    before = threading.active_count()
    yield request.param
    assert threading.active_count() == before


_WRITE_VERBS = {"INSERT", "UPDATE", "DELETE", "REPLACE", "CREATE", "DROP", "ALTER"}


class WriteLog:
    """What sqlite was asked to make durable while the fixture was active."""

    def __init__(self):
        self.commits = 0
        self.autocommitted = []  # write statements issued outside a transaction

    @property
    def write_transactions(self):
        return self.commits + len(self.autocommitted)


@pytest.fixture()
def write_log(monkeypatch):
    """Counts ``COMMIT``s and out-of-transaction writes of every ``SqliteBackend``.

    In autocommit mode each such write is a journalled commit of its own, so
    the two together are the number of times a flow waited for the disk.
    """
    log = WriteLog()
    real_execute = SqliteBackend._execute

    def recording_execute(self, sql, params=()):
        verb = sql.split(None, 1)[0].upper()
        if verb == "COMMIT":
            log.commits += 1
        elif verb in _WRITE_VERBS and not self._in_transaction:
            log.autocommitted.append(sql)
        return real_execute(self, sql, params)

    monkeypatch.setattr(SqliteBackend, "_execute", recording_execute)
    return log
