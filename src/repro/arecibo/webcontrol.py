"""The Web-based survey console.

"The database is accessed through a Web-based server and will provide the
tools for meta-analyses.  It currently supports interactive groupings of
candidate signals, tests for correlation or uniqueness of the candidates,
and generation of appropriate plots [...] Eventually, the entire
processing pipeline will be controllable from the Web-based system."

:class:`SurveyConsole` is that controller: it launches pipeline runs,
serves interactive candidate groupings and uniqueness/correlation tests
over the live database, and generates plot-ready data (folded profiles,
DM curves) for any candidate.  Its methods are the console's API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.arecibo.dedisperse import DMGrid, dedisperse
from repro.arecibo.folding import fold
from repro.arecibo.metaanalysis import CandidateDatabase
from repro.arecibo.pipeline import (
    AreciboPipelineConfig,
    AreciboPipelineReport,
    run_arecibo_pipeline,
)
from repro.arecibo.rfi import clean_filterbank
from repro.arecibo.telescope import ObservationSimulator
from repro.core.errors import SearchError

@dataclass
class CandidateGroup:
    """An interactive grouping of candidate signals by frequency."""

    freq_hz: float
    members: List[dict] = field(default_factory=list)

    @property
    def pointings(self) -> List[int]:
        return sorted({member["pointing_id"] for member in self.members})

    @property
    def is_unique(self) -> bool:
        """The uniqueness test: one sky position only."""
        return len(self.pointings) == 1

    @property
    def best(self) -> dict:
        return max(self.members, key=lambda member: member["snr"])


class SurveyConsole:
    """Web-facade over pipeline runs and the candidate database."""

    def __init__(self, workdir: Union[str, Path]):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._runs: Dict[str, AreciboPipelineReport] = {}

    # -- pipeline control ------------------------------------------------- #
    def launch_run(self, config: Optional[AreciboPipelineConfig] = None) -> str:
        """Run the whole Figure-1 pipeline; returns a run id, the first
        ``run-NNNN`` not already in the workdir (so ids follow the workdir,
        and a second console on it never overwrites a run)."""
        number = 1
        while (self.workdir / f"run-{number:04d}").exists():
            number += 1
        run_id = f"run-{number:04d}"
        report = run_arecibo_pipeline(self.workdir / run_id, config)
        self._runs[run_id] = report
        return run_id

    def runs(self) -> List[str]:
        return sorted(self._runs)

    def report(self, run_id: str) -> AreciboPipelineReport:
        try:
            return self._runs[run_id]
        except KeyError:
            raise SearchError(f"no survey run {run_id!r}") from None

    def _database(self, run_id: str) -> CandidateDatabase:
        self.report(run_id)  # validates
        return CandidateDatabase(self.workdir / run_id / "candidates.db")

    # -- interactive meta-analysis tools ------------------------------------ #
    def group_candidates(
        self, run_id: str, freq_tolerance: float = 0.01,
        classification: Optional[str] = None,
    ) -> List[CandidateGroup]:
        """Interactive grouping of candidate signals by frequency."""
        database = self._database(run_id)
        try:
            rows = [dict(r) for r in database.strongest(
                limit=1_000_000, classification=classification)]
        finally:
            database.close()
        rows.sort(key=lambda row: row["freq_hz"])
        groups: List[CandidateGroup] = []
        for row in rows:
            if groups and (
                row["freq_hz"] - groups[-1].freq_hz
                <= freq_tolerance * row["freq_hz"]
            ):
                groups[-1].members.append(row)
            else:
                groups.append(CandidateGroup(freq_hz=row["freq_hz"], members=[row]))
        groups.sort(key=lambda group: -group.best["snr"])
        return groups

    def uniqueness_test(self, run_id: str, freq_hz: float,
                        freq_tolerance: float = 0.01) -> dict:
        """Is this signal unique on the sky, or widespread (terrestrial)?"""
        groups = self.group_candidates(run_id, freq_tolerance)
        for group in groups:
            if abs(group.freq_hz - freq_hz) <= freq_tolerance * freq_hz:
                return {
                    "freq_hz": group.freq_hz,
                    "pointings": group.pointings,
                    "unique": group.is_unique,
                    "verdict": "astrophysical-like" if group.is_unique
                    else "terrestrial-like",
                }
        raise SearchError(f"run {run_id}: no candidate group near {freq_hz} Hz")

    def correlation_test(self, run_id: str) -> List[dict]:
        """Period correlations across pointings — recurring frequencies."""
        groups = self.group_candidates(run_id)
        return [
            {
                "freq_hz": group.freq_hz,
                "pointings": group.pointings,
                "members": len(group.members),
                "max_snr": group.best["snr"],
            }
            for group in groups
            if len(group.pointings) > 1
        ]

    # -- plot generation ------------------------------------------------------ #
    def plot_data(self, run_id: str, pointing_id: int, beam: int,
                  period_s: float, dm: float, n_bins: int = 32) -> dict:
        """Plot-ready arrays for one candidate: folded profile + DM curve.

        This regenerates the candidate's diagnostics from the archived raw
        data — the "data diagnostics and plots" the database serves.
        """
        report = self.report(run_id)
        config = report.config
        pointing = next(
            (p for p in report.pointings if p.pointing_id == pointing_id), None
        )
        if pointing is None:
            raise SearchError(f"run {run_id}: no pointing {pointing_id}")
        beams = ObservationSimulator(config.observation).observe(
            pointing, seed=config.seed + pointing_id
        )
        if not 0 <= beam < len(beams):
            raise SearchError(f"no beam {beam}")
        cleaned, _ = clean_filterbank(beams[beam], rng=np.random.default_rng(1))

        profile = fold(
            dedisperse(cleaned, dm), cleaned.tsamp_s, period_s, n_bins=n_bins
        )
        grid = DMGrid.linear(0.0, max(2 * dm, 20.0), 24)
        dm_curve = []
        for trial in grid.trials:
            series = dedisperse(cleaned, trial)
            dm_curve.append(fold(series, cleaned.tsamp_s, period_s,
                                 n_bins=n_bins).snr())
        return {
            "phase": (np.arange(profile.n_bins) / profile.n_bins).tolist(),
            "profile": profile.profile.tolist(),
            "profile_snr": profile.snr(),
            "dm_trials": list(grid.trials),
            "dm_snr_curve": dm_curve,
        }
