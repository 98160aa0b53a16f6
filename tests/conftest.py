"""Fixtures shared by every test package, and the one same-bytes helper."""

import hashlib
import json
import sqlite3
import threading
from contextlib import closing
from dataclasses import asdict, is_dataclass
from pathlib import Path

import pytest

from repro.arecibo.pipeline import AreciboPipelineReport
from repro.cleo.pipeline import CleoPipelineConfig, CleoPipelineReport, run_cleo_incremental
from repro.core import kernels
from repro.core.stagecache import CachedStage
from repro.core.telemetry import Telemetry, read_event_log
from repro.db.connection import SqliteBackend


def digest(value):
    """sha256 of ``value`` as sorted-key JSON, a dataclass as its fields and
    anything else JSON cannot hold as its ``str``.  On an event log's
    ``to_dict()`` forms this is perfbench's ``canonical_digest``."""
    text = json.dumps(
        value, sort_keys=True, default=lambda v: asdict(v) if is_dataclass(v) else str(v)
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _log(events):
    return digest([event.to_dict() for event in events])


def _dump(path):
    with closing(sqlite3.connect(path)) as connection:
        return list(connection.iterdump())


def _science(report, flow):
    if isinstance(report, AreciboPipelineReport):
        process = flow.stashes["process"]
        return {
            "candidates": digest(process["sifted"]),
            "score": digest(report.score),
            "transients": digest(process["transients"]),
            "volumes": digest((
                report.raw_size, report.dedispersed_size,
                report.candidate_count_presift, report.multibeam_rejected,
            )),
        }
    if isinstance(report, CleoPipelineReport):
        return {
            "histogram": report.analysis.histogram.fingerprint(),
            "sizes": digest({kind: size.bytes for kind, size in report.sizes_by_kind.items()}),
        }
    return {
        "outputs": digest({
            name: (ds.name, ds.version, ds.size.bytes, ds.items)
            for name, ds in flow.outputs.items()
        }),
    }


def fingerprint(report, workdir=None, cache=None):
    """The named digests that hold the same-bytes contract for one run.

    ``report`` is a figure report, a bare ``FlowReport``, an incremental
    run (its last window, plus the window ledger), a ``Telemetry`` bus
    (its log and counters), a list of events, or None.  ``science`` is
    what the run found: Figure 1's sifted candidates, score, transient
    rows, data sizes and candidate counts, Figure 2's histogram and
    volumes, a bare flow's outputs.
    ``accounting`` is everything else it wrote: the canonical event log,
    the provenance chains, every sqlite store (``iterdump``), page pack
    and ``telemetry.jsonl`` under ``workdir`` by relative path, its event
    files as one digest, and the stage and shard keys ``cache`` holds.
    """
    science, accounting = {}, {}
    if isinstance(report, Telemetry):
        accounting["events"] = _log(report.events())
        accounting["counters"] = digest(report.registry.as_dict())
    elif isinstance(report, list):
        accounting["events"] = _log(report)
    elif report is not None:
        final = getattr(report, "final", report)
        flow = getattr(final, "flow_report", final)
        science = _science(final, flow)
        accounting["events"] = _log(flow.events)
        accounting["provenance"] = digest({
            stage.name: flow.provenance.get(stage.provenance_id) for stage in flow.stages
        })
        if final is not report:
            accounting["ledger"] = _log(report.telemetry.events())
            accounting["windows"] = digest([
                {field: value for field, value in vars(window).items() if field != "report"}
                for window in report.windows
            ])
    if workdir is not None:
        root = Path(workdir)
        for path in sorted(root.rglob("*")):
            name = path.relative_to(root).as_posix()
            if path.suffix == ".db":
                accounting[name] = digest(_dump(path))
            elif path.suffix == ".pack":
                accounting[name] = hashlib.sha256(path.read_bytes()).hexdigest()
            elif path.name == "telemetry.jsonl":
                accounting[name] = _log(read_event_log(path))
        event_files = sorted(root.rglob("*.evs"))
        if event_files:
            accounting["event files"] = hashlib.sha256(
                b"".join(path.name.encode() + path.read_bytes() for path in event_files)
            ).hexdigest()
    if cache is not None:
        stage_keys = {key for key, entry in cache._entries.items() if isinstance(entry, CachedStage)}
        accounting["stage keys"] = digest(sorted(stage_keys))
        accounting["shard keys"] = digest(sorted(cache._entries.keys() - stage_keys))
    return {"science": science, "accounting": accounting}


@pytest.fixture(scope="session")
def cleo_ledger(tmp_path_factory):
    """The CLEO ledger's recipe, run once a session: three runs arriving
    1, 0, 2.  Returns the incremental run and its workdir."""
    workdir = tmp_path_factory.mktemp("cleo-ledger")
    config = CleoPipelineConfig(n_runs=3, seed=11)
    return run_cleo_incremental(workdir, config, arrivals=[1, 0, 2]), workdir


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
