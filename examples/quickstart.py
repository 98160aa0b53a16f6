"""Quickstart: the core dataflow framework in five minutes.

Builds a miniature science data flow — acquire, process, archive — runs it
through the accounting engine, and shows the three things the framework
gives every pipeline in this library: volume/CPU accounting per stage,
provenance stamps that detect configuration drift, and grade/timestamp
snapshots that pin an analysis to a consistent data version.

Run:  python examples/quickstart.py
"""

from repro.core.dataflow import DataFlow
from repro.core.dataset import Dataset
from repro.core.engine import Engine
from repro.core.provenance import ProcessingStep, ProvenanceStamp
from repro.core.versioning import GradeHistory
from repro.core.units import DataSize, Duration


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. A dataflow: stages, edges, a site per stage.
    # ------------------------------------------------------------------ #
    flow = DataFlow("toy-survey")

    def acquire(inputs, ctx):
        return Dataset("raw-spectra", DataSize.terabytes(14), version="survey_v1")

    def search(inputs, ctx):
        raw = inputs["acquire"]
        return raw.derive("candidates", raw.size / 50)

    def meta(inputs, ctx):
        candidates = inputs["search"]
        return candidates.derive("confirmed", candidates.size / 20)

    flow.stage("acquire", acquire, site="telescope",
               description="record dynamic spectra")
    flow.stage("search", search, site="datacenter", cpu_seconds_per_gb=10,
               description="dedisperse + Fourier search")
    flow.stage("meta", meta, site="datacenter",
               description="cross-pointing meta-analysis")
    flow.chain("acquire", "search", "meta")

    print(flow.render())
    print()

    # ------------------------------------------------------------------ #
    # 2. Run it: the engine books volumes, CPU, and lineage.
    # ------------------------------------------------------------------ #
    engine = Engine(seed=0)
    report = engine.run(flow)
    for row in report.summary_rows():
        print(f"  {row['stage']:10s} [{row['site']:10s}] "
              f"in={row['in']:>10s}  out={row['out']:>10s}  cpu={row['cpu']}")
    print(f"  peak live storage: {report.peak_live_storage}")
    print(f"  CPUs to keep up with a 35 h acquisition window: "
          f"{report.processors_needed(Duration.hours(35)):.1f}")
    print()

    # ------------------------------------------------------------------ #
    # 3. Provenance: identical configs match, drift is caught.
    # ------------------------------------------------------------------ #
    good = ProvenanceStamp.initial(
        ProcessingStep.create("search", "v2.1", {"threshold": 7.0})
    )
    same = ProvenanceStamp.initial(
        ProcessingStep.create("search", "v2.1", {"threshold": 7.0})
    )
    drifted = ProvenanceStamp.initial(
        ProcessingStep.create("search", "v2.1", {"threshold": 6.0})
    )
    print(f"same configuration  -> digests match: {good.matches(same)}")
    print(f"drifted threshold   -> digests match: {good.matches(drifted)}")
    for line in good.diff(drifted):
        print(f"  diff: {line}")
    print()

    # ------------------------------------------------------------------ #
    # 4. Grades and snapshots: pin an analysis to a point in time.
    # ------------------------------------------------------------------ #
    grade: GradeHistory[str] = GradeHistory("physics")
    grade.assign(100.0, {"runs:1-50": "Recon_v1"})
    grade.assign(200.0, {"runs:1-50": "Recon_v2"})   # reprocessing
    grade.assign(300.0, {"runs:51-60": "Recon_v2"})  # new data

    pinned = grade.resolve(150.0)
    print("analysis pinned at t=150 sees:")
    for key, version in sorted(pinned.items()):
        print(f"  {key:12s} -> {version}")
    print("(runs 1-50 stay at v1; the brand-new runs 51-60 appear anyway)")


if __name__ == "__main__":
    main()
