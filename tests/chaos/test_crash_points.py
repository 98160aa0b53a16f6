"""Crash at any stage, resume: the persisted artifacts are the cold run's.

``run_to_completion(lambda: run_*_pipeline(workdir, config, cache=c,
faults=armed))`` is the resume idiom.  The crashed attempt committed its
completed prefix to the cache; the resumed attempt replays that prefix —
each hit's writes included — and executes the rest.  Whether every
attempt gets a fresh workdir or all share one, the resumed run's
fingerprint must equal a clean cold run's: its event log, and
``candidates.db`` (Figure 1) or the collaboration and offsite
EventStores (Figure 2).  A run that raises still closes its store.
"""

import pytest

from repro.arecibo.metaanalysis import CandidateDatabase
from repro.arecibo.pipeline import AreciboPipelineConfig, run_arecibo_pipeline
from repro.arecibo.telescope import ObservationConfig
from repro.cleo.pipeline import CleoPipelineConfig, run_cleo_pipeline
from repro.core.errors import ExecutionError
from repro.core.faults import FaultPlan, FaultSpec
from repro.core.recovery import run_to_completion
from repro.core.stagecache import StageCache
from repro.eventstore.store import EventStore
from tests.conftest import fingerprint
from tests.test_figure_cache import ARECIBO_STAGE_NAMES, CLEO_STAGE_NAMES

ARECIBO = AreciboPipelineConfig(
    n_pointings=2, observation=ObservationConfig(n_channels=32, n_samples=1024)
)
CLEO = CleoPipelineConfig(n_runs=2, events_scale=0.0002)


def crash_at(target):
    """A plan that crashes one stage's first attempt."""
    return FaultPlan(specs=(FaultSpec(
        name="crash", scope="stage", target=target, kind="crash", max_fires=1,
    ),))


def resumed(run, config, target, workdir, shared):
    """Crash at ``target``, resume to completion: the fingerprint of the
    last attempt's report and workdir."""
    cache, injector, attempts = StageCache(), crash_at(target).arm(), []

    def attempt():
        attempts.append(workdir if shared else workdir / f"attempt{len(attempts)}")
        return run(attempts[-1], config, cache=cache, faults=injector)

    report, restarts = run_to_completion(attempt)
    assert restarts == 1
    return fingerprint(report, attempts[-1])


def cold(run, config, workdir):
    return fingerprint(run(workdir, config), workdir)


@pytest.fixture(scope="module")
def arecibo_cold(tmp_path_factory):
    return cold(run_arecibo_pipeline, ARECIBO, tmp_path_factory.mktemp("fig1-cold"))


@pytest.fixture(scope="module")
def cleo_cold(tmp_path_factory):
    return cold(run_cleo_pipeline, CLEO, tmp_path_factory.mktemp("fig2-cold"))


@pytest.mark.parametrize("shared", [False, True], ids=["fresh", "shared"])
@pytest.mark.parametrize("stage", ARECIBO_STAGE_NAMES)
def test_figure1_resume_persists_the_cold_database(arecibo_cold, tmp_path, stage, shared):
    assert resumed(
        run_arecibo_pipeline, ARECIBO, f"arecibo-figure1/{stage}", tmp_path, shared
    ) == arecibo_cold


@pytest.mark.parametrize("shared", [False, True], ids=["fresh", "shared"])
@pytest.mark.parametrize("stage", CLEO_STAGE_NAMES)
def test_figure2_resume_persists_the_cold_stores(cleo_cold, tmp_path, stage, shared):
    assert resumed(
        run_cleo_pipeline, CLEO, f"cleo-figure2/{stage}", tmp_path, shared
    ) == cleo_cold


def counting_closes(monkeypatch, cls):
    """Record the ``name`` (or the instance) of every ``cls.close`` call."""
    closed, close = [], cls.close

    def counted(self):
        closed.append(getattr(self, "name", self))
        close(self)

    monkeypatch.setattr(cls, "close", counted)
    return closed


def test_figure1_closes_its_database_when_the_run_raises(tmp_path, monkeypatch):
    closed = counting_closes(monkeypatch, CandidateDatabase)
    with pytest.raises(ExecutionError, match="'process'"):
        run_arecibo_pipeline(
            tmp_path, ARECIBO, faults=crash_at("arecibo-figure1/process")
        )
    assert len(closed) == 1


def test_figure2_closes_its_store_when_the_run_raises(tmp_path, monkeypatch):
    closed = counting_closes(monkeypatch, EventStore)
    with pytest.raises(ExecutionError, match="'reconstruction'"):
        run_cleo_pipeline(
            tmp_path, CLEO, faults=crash_at("cleo-figure2/reconstruction")
        )
    assert closed == ["cleo-collab"]
