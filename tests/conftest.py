"""Fixtures shared by every test package."""

import pytest

from repro.db.connection import SqliteBackend

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
