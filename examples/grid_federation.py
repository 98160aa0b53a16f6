"""The Section-5 "next steps": Web Services, grid movement, NVO federation.

Publishes the Arecibo survey console into the grid service registry and
drives a small Figure-1 run through it, automates bulk transfers through
the grid mover (which picks network or sneakernet per job), then exports
the run's candidate database as a VOTable, contributes it to a federation
and cross-matches it against another survey's catalog — the National
Virtual Observatory workflow the paper says the survey is building toward.

Run:  python examples/grid_federation.py
"""

import tempfile
from pathlib import Path

from repro.arecibo.metaanalysis import CandidateDatabase
from repro.arecibo.nvo import contribute_to_nvo, export_votable
from repro.arecibo.pipeline import AreciboPipelineConfig
from repro.arecibo.sky import SkyModel
from repro.arecibo.telescope import ObservationConfig
from repro.arecibo.webcontrol import SurveyConsole, publish_services
from repro.core.units import DataSize, Duration
from repro.grid.federation import Federation, tabular_resource
from repro.grid.movement import GridMover
from repro.grid.services import ServiceRegistry
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
    # 1. Service registry: the survey console, controllable as services.
    # ------------------------------------------------------------------ #
    console = SurveyConsole(workdir / "survey")
    registry = publish_services(console, ServiceRegistry())

    print("Published services:")
    for endpoint in registry.discover():
        print(f"  {endpoint.qualified_name:30s} {endpoint.description}")
    print()

    run_id = registry.call("arecibo.launch_run", CONFIG)
    report = console.report(run_id)
    print(f"arecibo.launch_run -> {run_id}: "
          f"{report.candidate_count_sifted} sifted candidates, "
          f"{len(report.confirmed)} confirmed")
    recurring = registry.call("arecibo.correlation_test", run_id)
    print(f"arecibo.correlation_test({run_id}) -> "
          f"{len(recurring)} frequencies recur across pointings")
    print(f"usage counters: {registry.usage()}")
    print()

    # ------------------------------------------------------------------ #
    # 2. Grid data movement: the queue picks the transport per job.
    # ------------------------------------------------------------------ #
    planner = TransportPlanner(
        links=[ARECIBO_UPLINK, INTERNET2_100], lanes=[ARECIBO_TO_CTC]
    )
    mover = GridMover(planner)
    mover.submit("arecibo", "ctc", DataSize.terabytes(14))
    mover.submit("internet-archive", "cornell", DataSize.gigabytes(250),
                 deadline=Duration.days(2))
    mover.submit("ctc", "palfa-member", DataSize.gigabytes(40))
    jobs = mover.run_queue()

    print("Grid mover queue:")
    for job in jobs:
        assert job.chosen is not None
        print(f"  {job.job_id}: {job.source} -> {job.destination} "
              f"({job.volume})  via {job.chosen.mode:10s} "
              f"[{job.chosen.name}]  {job.status}")
    print(f"total moved: {mover.total_moved()}  modes: {mover.modes_used()}")
    print()

    # ------------------------------------------------------------------ #
    # 3. NVO federation: export the run's catalog, cross-match it.
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
    federation = Federation()
    contribute_to_nvo(federation, votable)
    federation.contribute(tabular_resource("parkes-multibeam", parkes_catalog,
                                           description="another contributor"))
    print(f"Federated resources: {federation.resources()}")

    matches = federation.cross_match(
        "arecibo-palfa", "parkes-multibeam", on="period_s", tolerance=0.0005
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
