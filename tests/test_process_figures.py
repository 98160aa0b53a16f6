"""The figure flows with their shards in worker processes.

The acceptance bar for the process executor: for both figure pipelines,
``executor="process"`` with several workers must reproduce the pinned
inline cold run (``tests/test_pins.py``): science, the canonical
telemetry log in memory and as persisted to ``telemetry.jsonl``,
provenance chains, every store, and (Figure 1) the stage and shard cache
keys.  The two modes differ only in wall-clock; that ``workers`` stays
inert inline is ``tests/test_parallel_figures.py``.  (The classes keep
their ``ThreeWay`` names from when stage threads were a third mode.)
"""

import pytest

from tests.test_pins import PINS, figure1, figure2


@pytest.mark.parametrize("mode", ["proc"])
class TestFigure1ThreeWay:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("fig1")
        return {"proc": figure1(workdir, 11, workers=4, executor="process")}

    def test_flow_accounting_matches_sequential(self, runs, mode):
        assert runs[mode]["accounting"] == PINS["fig1 seed 11"]["accounting"]

    def test_science_results_match_sequential(self, runs, mode):
        assert runs[mode]["science"] == PINS["fig1 seed 11"]["science"]

    def test_canonical_logs_byte_identical(self, runs, mode):
        accounting = runs[mode]["accounting"]
        assert accounting["events"] == accounting["telemetry.jsonl"]
        assert accounting["events"] == PINS["fig1 seed 11"]["accounting"]["events"]


@pytest.mark.parametrize("mode", ["proc"])
class TestFigure2ThreeWay:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("fig2")
        return {"proc": figure2(workdir, 11, workers=3, executor="process")}

    def test_flow_accounting_matches_sequential(self, runs, mode):
        assert runs[mode]["accounting"] == PINS["fig2 seed 11"]["accounting"]

    def test_physics_results_match_sequential(self, runs, mode):
        assert runs[mode]["science"] == PINS["fig2 seed 11"]["science"]

    def test_canonical_logs_byte_identical(self, runs, mode):
        accounting = runs[mode]["accounting"]
        assert accounting["events"] == accounting["telemetry.jsonl"]
        assert accounting["events"] == PINS["fig2 seed 11"]["accounting"]["events"]
