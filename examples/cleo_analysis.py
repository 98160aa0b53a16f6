"""The CLEO workflow (paper Figure 2) plus the EventStore's daily life.

Part 1 runs the full Figure-2 flow: acquisition, reconstruction,
post-reconstruction, offsite Monte Carlo (produced into a personal
EventStore and merged back), grade assignment, and a pinned physics
analysis.

Part 2 demonstrates the EventStore semantics the paper dwells on: the
grade+timestamp pin surviving a reprocessing, the first-time-data
exception, iterative analysis refinement, and merge-based ingest.

Run:  python examples/cleo_analysis.py
"""

import tempfile
from pathlib import Path

from repro.cleo.analysis import AnalysisJob
from repro.cleo.pipeline import CleoPipelineConfig, run_cleo_pipeline
from repro.eventstore.scales import CollaborationEventStore


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        workdir = Path(workdir)

        # -------------------------------------------------------------- #
        # Part 1: Figure 2 end to end.
        # -------------------------------------------------------------- #
        print("Running the Figure-2 flow (acquisition -> recon -> post-recon"
              " -> offsite MC -> analysis) ...\n")
        config = CleoPipelineConfig(n_runs=3, events_scale=0.0004, seed=5)
        report = run_cleo_pipeline(workdir, config)

        for row in report.summary_rows():
            print(f"  {row['stage']:20s} [{row['site']:14s}] "
                  f"in={row['in']:>10s}  out={row['out']:>10s}")
        print()

        print("Per-kind volumes (raw vs derived products):")
        for kind, size in report.sizes_by_kind.items():
            print(f"  {kind:10s}: {size}")
        print(f"  projected to 500K runs at full event rates: "
              f"{report.projected_total(full_runs=500_000)}")
        print()

        print("Runs taken (paper: 45-60 min, 15K-300K events):")
        for run in report.runs:
            print(f"  run {run.number}: {run.duration.minutes_:.0f} min, "
                  f"{run.condition_map['nominal_events']} nominal events")
        print()

        result = report.analysis
        print(f"Physics analysis '{result.name}' (grade={result.grade}, "
              f"pinned at t={result.timestamp}):")
        print(f"  selected {result.events_selected}/{result.events_read} events "
              f"(efficiency {result.efficiency * 100:.0f} %)")
        print(f"  histogram fingerprint: {result.histogram.fingerprint()[:12]}...")
        print()

        # -------------------------------------------------------------- #
        # Part 2: EventStore semantics on the same store.
        # -------------------------------------------------------------- #
        with CollaborationEventStore(report.store_root) as store:
            # Replay: the pin guarantees bit-identical results.
            replay = AnalysisJob(
                "trackSpread", store, config.grade, config.grade_timestamp + 1.0
            ).run()
            print("Replaying the pinned analysis:")
            print(f"  fingerprints equal: "
                  f"{replay.histogram.fingerprint() == result.histogram.fingerprint()}")
            print()

            # Iterative refinement: tighter cuts, chained provenance.
            job = AnalysisJob(
                "trackSpread", store, config.grade, config.grade_timestamp + 1.0
            )
            first = job.run()
            second = job.refine(first).run()
            print("Iterative refinement:")
            print(f"  iteration 1: {first.events_selected} selected")
            print(f"  iteration 2: {second.events_selected} selected "
                  f"(cuts tightened; provenance chain length "
                  f"{len(second.stamp.history)})")
            print()

            # What the store knows.
            print("Store inventory:")
            print(f"  command prefix  : '{store.command('listRuns')}'")
            print(f"  files           : {store.file_count()}")
            print(f"  total size      : {store.total_size()}")
            print(f"  grades          : {store.grades()}")
            resolved = store.resolve_runs(config.grade, config.grade_timestamp + 1.0)
            print(f"  resolved versions at the pin: "
                  f"{ {run: version for run, version in sorted(resolved.items())} }")


if __name__ == "__main__":
    main()
