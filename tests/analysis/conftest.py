"""The one analysis of ``src/`` that every test here over the real tree
reads: built once a session, since a build costs about three seconds."""

from pathlib import Path

import pytest

from repro.analysis.linter import Analysis

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="session")
def src_analysis():
    """The :class:`Analysis` of ``src/``; tests read it and change nothing."""
    return Analysis.build([SRC])
