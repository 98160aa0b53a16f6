"""Smoke scale for the benchmark's own tests (outside the tier-1 ``testpaths``).

Run with ``python -m pytest perfbench/tests -q`` from the repo root.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

TINY = dict(
    FIG1_POINTINGS=2, FIG1_CHANNELS=16, FIG1_SAMPLES=1024, NIGHTLY_ARRIVALS=(1, 0, 1),
    LANES=8, WARMUP_LANES=2, DIAMOND_DEPTH=5, FIG2_RUNS=2, FIG2_EVENTS=60,
    WEB=dict(n_domains=4, initial_pages=24, new_pages_per_crawl=8), WEB_CRAWLS=3,
    HOT_REQUESTS=400, SCAN_REQUESTS=400, SCAN_CACHE=8, WARMUP_REQUESTS=50,
    CONTENT_SAMPLE_EVERY=10,
)


class SteadyMeter:
    """A box that always runs at ``pace`` times the reference speed, probed for free."""

    def __init__(self, pace: float = 1.0):
        self.pace = pace
        self.readings = []

    def sample(self, kind: str) -> float:
        from perfbench.probe import REFERENCE

        self.readings.append((kind, REFERENCE[kind] * self.pace))
        return self.readings[-1][1]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every size constant, keep work directories under tmp_path, skip the probe."""
    from perfbench import harness, workloads

    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(harness, "WORK_ROOT", tmp_path / "work")
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    monkeypatch.setattr(harness, "SpeedMeter", SteadyMeter)
    return harness
