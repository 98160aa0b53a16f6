"""The Section-5 "next steps": a Web console, automated transfers, the NVO.

Drives a small Figure-1 run through the survey's Web console and asks it
for cross-pointing correlations, a uniqueness verdict and the plot data
of a confirmed pulsar; picks the transport for each of a few bulk
transfers (network or sneakernet, per volume and deadline); then exports
the run's candidate database as a VOTable and cross-matches it against
another survey's catalog — the National Virtual Observatory workflow the
paper says the survey is building toward.  Each step calls the code that
does it: the console's methods, the transport planner, the VOTable
parser and the cross-match.

Run:  python examples/grid_federation.py
"""

import tempfile
from pathlib import Path

from repro.arecibo.metaanalysis import CandidateDatabase
from repro.arecibo.nvo import cross_match, export_votable, parse_votable
from repro.arecibo.pipeline import AreciboPipelineConfig
from repro.arecibo.sky import SkyModel
from repro.arecibo.telescope import ObservationConfig
from repro.arecibo.webcontrol import SurveyConsole
from repro.core.units import DataSize, Duration
from repro.transport.network import ARECIBO_UPLINK, INTERNET2_100
from repro.transport.planner import TransportPlanner
from repro.transport.sneakernet import ARECIBO_TO_CTC

CONFIG = AreciboPipelineConfig(
    n_pointings=2,
    observation=ObservationConfig(n_channels=32, n_samples=2048),
    sky=SkyModel(seed=44, pulsar_fraction=1.0, binary_fraction=0.0,
                 period_range_s=(0.03, 0.1), snr_range=(20.0, 30.0)),
)


def main() -> None:
    with tempfile.TemporaryDirectory() as raw:
        run(Path(raw))


def run(workdir: Path) -> None:
    # ------------------------------------------------------------------ #
    # 1. The Web console: launch a run, then test it for correlations.
    # ------------------------------------------------------------------ #
    console = SurveyConsole(workdir / "survey")
    run_id = console.launch_run(CONFIG)
    report = console.report(run_id)
    print(f"console.launch_run -> {run_id}: "
          f"{report.candidate_count_sifted} sifted candidates, "
          f"{len(report.confirmed)} confirmed")
    recurring = console.correlation_test(run_id)
    print(f"console.correlation_test({run_id}) -> "
          f"{len(recurring)} frequencies recur across pointings")
    pulsar = report.confirmed[0]
    verdict = console.uniqueness_test(run_id, pulsar["freq_hz"])
    print(f"console.uniqueness_test({pulsar['freq_hz']:.3f} Hz) -> "
          f"{verdict['verdict']} (pointings {verdict['pointings']})")
    plot = console.plot_data(run_id, pulsar["pointing_id"], pulsar["beam"],
                             pulsar["period_s"], pulsar["dm"])
    print(f"console.plot_data -> {len(plot['profile'])}-bin profile, "
          f"S/N {plot['profile_snr']:.1f}, "
          f"DM curve over {len(plot['dm_trials'])} trials")
    print()

    # ------------------------------------------------------------------ #
    # 2. Bulk transfers: the planner picks the transport per volume.
    # ------------------------------------------------------------------ #
    planner = TransportPlanner(
        links=[ARECIBO_UPLINK, INTERNET2_100], lanes=[ARECIBO_TO_CTC]
    )
    transfers = [
        ("arecibo", "ctc", DataSize.terabytes(14), None),
        ("internet-archive", "cornell", DataSize.gigabytes(250), Duration.days(2)),
        ("ctc", "palfa-member", DataSize.gigabytes(40), None),
    ]
    print("Transport chosen per transfer:")
    for source, destination, volume, deadline in transfers:
        chosen = planner.best(volume, deadline=deadline)
        print(f"  {source} -> {destination} ({volume})  via {chosen.mode:10s} "
              f"[{chosen.name}]  {chosen.elapsed}")
    print()

    # ------------------------------------------------------------------ #
    # 3. NVO: export the run's catalog, cross-match it.
    # ------------------------------------------------------------------ #
    votable = workdir / "palfa.vot.xml"
    database = CandidateDatabase(workdir / "survey" / run_id / "candidates.db")
    try:
        exported = export_votable(database, votable)
    finally:
        database.close()
    print(f"Exported {exported} astrophysical candidates to {votable.name}")

    # Another contributor already catalogued part of this sky: one pulsar
    # the run above was pointed at, one far outside its period range.
    known = report.pointings[0].all_pulsars()[0]
    parkes_catalog = [
        {"name": known.name, "period_s": known.period_s, "dm": known.dm},
        {"name": "J0540-71", "period_s": 0.0503, "dm": 140.3},
    ]
    matches = cross_match(
        parse_votable(votable), parkes_catalog, on="period_s", tolerance=0.0005
    )
    matches.sort(key=lambda pair: -pair[0]["snr"])
    print("Cross-match on spin period (tolerance 0.5 ms), strongest first:")
    for left, right in matches[:3]:
        print(f"  {left['name']} (P={left['period_s'] * 1000:.2f} ms, "
              f"S/N {left['snr']:.1f}) "
              f"<-> {right['name']} (P={right['period_s'] * 1000:.2f} ms)")
    print("(a match means the 'new' candidate is a known pulsar — "
          "redetections confirm the pipeline, non-matches are discoveries)")


if __name__ == "__main__":
    main()
