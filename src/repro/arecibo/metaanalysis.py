"""The candidate database and cross-pointing meta-analysis.

"The large number of data products [...] are loaded into a [SQL] database
system at the CTC.  The database is accessed through a Web-based server
and will provide the tools for meta-analyses.  It currently supports
interactive groupings of candidate signals, tests for correlation or
uniqueness of the candidates [...]"

The decisive test implemented here is uniqueness across the sky: "to
further refine pulsar candidate signals [...] a meta-analysis is needed to
cull those candidates that appear in multiple directions on the sky."  A
pulsar lives at one sky position; a radar lives at every one of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Union

from repro.arecibo.candidates import SiftedCandidate
from repro.db.connection import Database, connect
from repro.db.query import Select
from repro.db.schema import Schema, apply_schema, column


def candidate_schema() -> Schema:
    schema = Schema("arecibo_candidates", version=1)
    schema.table(
        "candidates",
        [
            column("id", "INTEGER", "PRIMARY KEY"),
            column("pointing_id", "INTEGER", "NOT NULL"),
            column("beam", "INTEGER", "NOT NULL"),
            column("period_s", "REAL", "NOT NULL"),
            column("freq_hz", "REAL", "NOT NULL"),
            column("dm", "REAL", "NOT NULL"),
            column("snr", "REAL", "NOT NULL"),
            column("n_harmonics", "INTEGER", "NOT NULL"),
            column("n_dm_hits", "INTEGER", "NOT NULL"),
            column("snr_dm0", "REAL", "NOT NULL DEFAULT 0"),
            column("accel_ms2", "REAL", "NOT NULL DEFAULT 0"),
            column("classification", "TEXT", "NOT NULL DEFAULT 'unclassified'"),
            column("version", "TEXT", "NOT NULL DEFAULT 'v1'"),
        ],
        indexes=[("pointing_id",), ("freq_hz",), ("classification",)],
    )
    schema.table(
        "transients",
        [
            column("id", "INTEGER", "PRIMARY KEY"),
            column("pointing_id", "INTEGER", "NOT NULL"),
            column("beam", "INTEGER", "NOT NULL"),
            column("time_s", "REAL", "NOT NULL"),
            column("width_s", "REAL", "NOT NULL"),
            column("dm", "REAL", "NOT NULL"),
            column("snr", "REAL", "NOT NULL"),
            column("version", "TEXT", "NOT NULL DEFAULT 'v1'"),
        ],
        indexes=[("pointing_id",), ("time_s",)],
    )
    return schema


@dataclass
class MetaAnalysisReport:
    """Outcome of one cull pass over the whole database."""

    total: int
    astrophysical: int
    terrestrial: int
    widespread_frequencies: List[float] = field(default_factory=list)


class CandidateDatabase:
    """SQL-backed store of sifted candidates with meta-analysis queries.

    ``version`` tags rows with the processing code version, per the paper:
    "we will tag all data products with a version number indicating
    processing code and processing site."
    """

    def __init__(self, path: Optional[Union[str, Path]] = None, version: str = "v1"):
        self.db: Database = connect(path)
        self.version = version
        apply_schema(self.db, candidate_schema())

    def close(self) -> None:
        self.db.close()

    def __enter__(self) -> "CandidateDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- ingest ---------------------------------------------------------------
    def add_candidates(self, candidates: Iterable[SiftedCandidate]) -> int:
        count = 0
        with self.db.transaction():
            for candidate in candidates:
                self.db.insert(
                    "candidates",
                    pointing_id=candidate.pointing_id,
                    beam=candidate.beam,
                    period_s=candidate.period_s,
                    freq_hz=candidate.freq_hz,
                    dm=candidate.dm,
                    snr=candidate.snr,
                    n_harmonics=candidate.n_harmonics,
                    n_dm_hits=candidate.n_dm_hits,
                    snr_dm0=candidate.snr_dm0,
                    accel_ms2=candidate.accel_ms2,
                    version=self.version,
                )
                count += 1
        return count

    # -- queries ---------------------------------------------------------------
    def count(self, classification: Optional[str] = None) -> int:
        if classification is None:
            return self.db.count("candidates")
        return self.db.count("candidates", "classification = ?", (classification,))

    def pointings(self) -> List[int]:
        rows = self.db.query(
            "SELECT DISTINCT pointing_id FROM candidates ORDER BY pointing_id"
        )
        return [row["pointing_id"] for row in rows]

    def strongest(self, limit: int = 10, classification: Optional[str] = None):
        query = Select("candidates").order_by("snr DESC").limit(limit)
        if classification is not None:
            query = query.where("classification = ?", classification)
        return query.run(self.db)

    def add_transients(self, events, pointing_id: int, beam: int) -> int:
        """Store single-pulse events ("transient signals that may be
        associated with astrophysical objects other than pulsars")."""
        count = 0
        with self.db.transaction():
            for event in events:
                self.db.insert(
                    "transients",
                    pointing_id=pointing_id,
                    beam=beam,
                    time_s=event.time_s,
                    width_s=event.width_s,
                    dm=event.dm,
                    snr=event.snr,
                    version=self.version,
                )
                count += 1
        return count

    def transients(self, pointing_id: Optional[int] = None) -> List[dict]:
        query = Select("transients").order_by("snr DESC")
        if pointing_id is not None:
            query = query.where("pointing_id = ?", pointing_id)
        return [dict(row) for row in query.run(self.db)]

    # -- meta-analysis ---------------------------------------------------------
    def cull_widespread(
        self,
        max_pointings: int = 2,
        freq_tolerance: float = 0.01,
        min_dm: float = 1.0,
        dm0_ratio: float = 0.95,
        harmonic_window_hz: float = 0.35,
    ) -> MetaAnalysisReport:
        """Classify every candidate: terrestrial or astrophysical.

        Three tests, all from the survey's playbook:

        * **Uniqueness** — group candidates by frequency (fractional
          tolerance); a group spanning more than ``max_pointings`` distinct
          sky positions is terrestrial.
        * **Dispersion** — candidates peaking below ``min_dm`` are
          undispersed and therefore local.
        * **DM-0 comparison** — candidates whose S/N at DM 0 is at least
          ``dm0_ratio`` of their peak S/N are effectively undispersed,
          however noisy their recorded best-DM is.
        """
        rows = self.db.query(
            "SELECT id, pointing_id, freq_hz, dm, snr, snr_dm0 FROM candidates "
            "ORDER BY freq_hz"
        )
        # Group by frequency with a single sorted sweep.
        groups: List[List] = []
        for row in rows:
            if groups and (
                row["freq_hz"] - groups[-1][0]["freq_hz"]
                <= freq_tolerance * row["freq_hz"]
            ):
                groups[-1].append(row)
            else:
                groups.append([row])

        terrestrial_ids: set = set()
        widespread_freqs: List[float] = []
        for group in groups:
            # A group is widespread only if *comparably strong* detections
            # span many pointings; a bright unique pulsar is not culled
            # just because weak noise happens to share its frequency bin
            # elsewhere on the sky.
            group_max = max(row["snr"] for row in group)
            strong_pointings = {
                row["pointing_id"] for row in group if row["snr"] >= 0.5 * group_max
            }
            if len(strong_pointings) > max_pointings:
                terrestrial_ids.update(row["id"] for row in group)
                widespread_freqs.append(float(group[0]["freq_hz"]))
        # Harmonic zapping: once a frequency is identified as terrestrial,
        # its low-order integer harmonics and subharmonics are terrestrial
        # too (a radar does not emit only its fundamental).  Harmonic order
        # is bounded and the window is absolute in Hz — the spectral-bin
        # quantization of the search — so a pulsar harmonic that is merely
        # *fractionally* close to an RFI line is not swept up.
        for row in rows:
            if row["id"] in terrestrial_ids:
                continue
            freq = row["freq_hz"]
            zapped = False
            for rfi_freq in widespread_freqs:
                for order in range(1, 9):
                    if (
                        abs(freq - order * rfi_freq) <= harmonic_window_hz
                        or abs(rfi_freq - order * freq) <= harmonic_window_hz
                    ):
                        zapped = True
                        break
                if zapped:
                    break
            if zapped:
                terrestrial_ids.add(row["id"])
        for row in rows:
            if row["id"] in terrestrial_ids:
                continue
            undispersed = row["dm"] < min_dm
            dm0_strong = row["snr"] > 0 and row["snr_dm0"] >= dm0_ratio * row["snr"]
            if undispersed or dm0_strong:
                terrestrial_ids.add(row["id"])

        with self.db.transaction():
            self.db.execute("UPDATE candidates SET classification = 'astrophysical'")
            for candidate_id in terrestrial_ids:
                self.db.execute(
                    "UPDATE candidates SET classification = 'terrestrial' WHERE id = ?",
                    (candidate_id,),
                )
        return MetaAnalysisReport(
            total=len(rows),
            astrophysical=len(rows) - len(terrestrial_ids),
            terrestrial=len(terrestrial_ids),
            widespread_frequencies=sorted(widespread_freqs),
        )

    def confirmed_pulsars(
        self, min_snr: float = 7.0, min_dm_hits: int = 10
    ) -> List[dict]:
        """Astrophysical candidates passing the confirmation cuts.

        ``min_dm_hits`` demands DM-coherence: a genuinely dispersed signal
        is detected across a broad range of neighbouring DM trials, while
        noise fluctuations and residual RFI fire in only a handful — one
        of the "tests of different kinds" the pipeline stacks up.
        """
        rows = (
            Select("candidates")
            .where("classification = ?", "astrophysical")
            .where("snr >= ?", min_snr)
            .where("n_dm_hits >= ?", min_dm_hits)
            .order_by("snr DESC")
            .run(self.db)
        )
        return [dict(row) for row in rows]
