"""Figure 2, executable: the CLEO data flow end to end.

Acquisition → reconstruction → post-reconstruction → offsite Monte Carlo
(shipped back and merged) → grade assignment → pinned physics analysis,
with every arrow carried by the core dataflow engine so stage volumes and
CPU are accounted, and every artifact stored in a real EventStore on disk.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union


from repro.cleo.analysis import AnalysisJob, AnalysisResult
from repro.cleo.calibration import perfect_calibration, true_misalignment
from repro.cleo.detector import Detector, DetectorConfig
from repro.cleo.montecarlo import MonteCarloProducer, offsite_store, produce_offsite_mc
from repro.cleo.postrecon import PostReconstructor
from repro.cleo.reconstruction import Reconstructor
from repro.core.dataflow import DataFlow, StageFn, structural_stub
from repro.core.dataset import Dataset
from repro.core.deltas import WindowLedger, run_windows
from repro.core.engine import Engine, FlowReport
from repro.core.errors import ExecutionError
from repro.core.faults import FaultInjector, FaultPlan
from repro.core.recovery import RetryPolicy
from repro.core.stagecache import StageCache
from repro.core.telemetry import Telemetry, write_event_log
from repro.core.units import DataSize
from repro.eventstore.hsm_store import HsmEventStore
from repro.eventstore.merge import merge_into
from repro.eventstore.model import Run, run_key
from repro.eventstore.provenance import stamp_step
from repro.eventstore.scales import CollaborationEventStore


@dataclass
class CleoPipelineConfig:
    """Laptop-scale parameters with the full-scale projection factor."""

    n_runs: int = 3
    events_scale: float = 0.0005
    recon_release: str = "Feb13_04_P2"
    postrecon_release: str = "Mar02_04_A1"
    mc_release: str = "Gen_03"
    grade: str = "physics"
    grade_timestamp: float = 1000.0
    # Store the collaboration data in an HSM ("most of the data are stored
    # in a hierarchical storage management system"); the cache size
    # determines how much analysis traffic pages against tape.
    use_hsm: bool = False
    hsm_cache: DataSize = field(default_factory=lambda: DataSize.megabytes(1))
    # Engine stage concurrency: Figure 2 is a genuine DAG (the offsite
    # Monte Carlo runs beside the reconstruction chain), so workers > 1
    # overlaps those branches while reporting identical accounting.
    # ``executor`` additionally picks where the per-run reconstruction
    # batch fans out: ``"thread"`` (default) or ``"process"`` — the
    # paper's farm of independent reconstruction workers fed from the
    # central store.
    workers: int = 1
    executor: str = "thread"
    seed: int = 11


@dataclass
class CleoPipelineReport:
    """Volumes, analysis outcome, and the flow-engine accounting."""

    config: CleoPipelineConfig
    flow_report: FlowReport
    store_root: Path
    runs: List[Run]
    sizes_by_kind: Dict[str, DataSize]
    analysis: AnalysisResult
    storage: Optional[dict] = None  # HSM cache/recall stats when use_hsm

    @property
    def total_stored(self) -> DataSize:
        return DataSize(sum(size.bytes for size in self.sizes_by_kind.values()))

    def projected_total(self, full_runs: int = 10_000) -> DataSize:
        """Project laptop volumes to survey scale (the ">90 TB" claim).

        Scales by the event down-sampling factor and from ``n_runs`` to the
        experiment's full run count.
        """
        factor = (1.0 / self.config.events_scale) * (full_runs / self.config.n_runs)
        return DataSize(self.total_stored.bytes * factor)

    def summary_rows(self) -> List[Dict[str, object]]:
        rows = self.flow_report.summary_rows()
        rows.append(
            {
                "stage": "TOTAL STORED",
                "site": "Cornell",
                "in": "",
                "out": str(self.total_stored),
                "cpu": str(self.flow_report.total_cpu_time),
            }
        )
        return rows


def _cache_fingerprint(config: CleoPipelineConfig) -> Dict[str, object]:
    """Stage ``cache_params`` for the Figure-2 flow.

    As with Figure 1, every config parameter invalidates the cache except
    ``workers`` and ``executor`` — stage outputs are invariant to worker
    count and shard executor.
    """
    return {"pipeline": repr(replace(config, workers=1, executor="thread"))}


def _shard_fingerprint(config: CleoPipelineConfig) -> Dict[str, object]:
    """Shard-level ``cache_params``: the config minus the run count.

    Run generation is prefix-stable (run *i* is seeded from
    ``config.seed + i`` regardless of ``n_runs``), so per-run
    reconstruction shards computed by a shorter window replay verbatim
    when later windows append runs to the open dataset.
    """
    return {
        "pipeline": repr(replace(config, workers=1, executor="thread", n_runs=0))
    }


def figure2_flow(
    transforms: Optional[Mapping[str, StageFn]] = None,
    cache_params: Optional[Mapping[str, object]] = None,
) -> DataFlow:
    """Build the Figure-2 flow graph: the single construction site.

    :func:`run_cleo_pipeline` binds its transform closures here; static
    tooling (:mod:`repro.analysis.flowcheck`, rendering, tests) calls it
    bare and gets the same topology with
    :func:`~repro.core.dataflow.structural_stub` transforms that raise
    if executed, so the checked graph is the executed graph.
    """
    transforms = dict(transforms or {})

    def fn(name: str) -> StageFn:
        return transforms.get(name) or structural_stub(name)

    flow = DataFlow("cleo-figure2")
    flow.stage("acquisition", fn("acquisition"), site="CESR/CLEO",
               description="runs of collision measurements",
               cache_params=cache_params)
    flow.stage("reconstruction", fn("reconstruction"), site="Cornell",
               cpu_seconds_per_gb=2000, description="track fitting per run",
               cache_params=cache_params)
    flow.stage("post-reconstruction", fn("post-reconstruction"), site="Cornell",
               cpu_seconds_per_gb=300, description="run-statistics pass + dozen ASUs",
               cache_params=cache_params)
    flow.stage("monte-carlo", fn("monte-carlo"), site="offsite",
               cpu_seconds_per_gb=3000, description="MC generation, USB-disk merge",
               cache_params=cache_params)
    flow.stage("physics-analysis", fn("physics-analysis"), site="Cornell/remote",
               cpu_seconds_per_gb=100, description="pinned grade+timestamp analysis",
               cache_params=cache_params)
    flow.chain("acquisition", "reconstruction", "post-reconstruction")
    flow.connect("acquisition", "monte-carlo", label="run conditions")
    flow.connect("post-reconstruction", "physics-analysis")
    flow.connect("monte-carlo", "physics-analysis", label="simulation")
    return flow


# Module-level (not a closure) so it can cross a process boundary under
# ``executor="process"``.  A Reconstructor is a plain dataclass (detector
# geometry, calibration, release tag) and an event batch is plain data, so
# one task tuple carries everything a farm worker needs — the parent owns
# all EventStore traffic on both sides of the shard.
def _reconstruct_run_shard(task):
    reconstructor, events, stamp = task
    return reconstructor.reconstruct_run(events, stamp)


def run_cleo_pipeline(
    workdir: Union[str, Path],
    config: Optional[CleoPipelineConfig] = None,
    cache: Optional[StageCache] = None,
    faults: Optional[Union[FaultPlan, FaultInjector]] = None,
    retry: Optional[RetryPolicy] = None,
) -> CleoPipelineReport:
    """Run the whole Figure-2 flow into ``workdir``; returns the report.

    With a shared :class:`~repro.core.stagecache.StageCache`, reruns of an
    unchanged configuration replay stage results (datasets, stashes, CPU
    charges) without recomputing; each stage stashes the event products it
    injected into the store, so a later cache *miss* downstream of a hit
    lazily re-injects exactly the products its ancestors would have
    written.

    ``faults`` aims a :class:`~repro.core.faults.FaultPlan` (or an
    already-armed injector, the resume idiom) at the engine's stage
    attempts (scope ``"stage"``, targets ``"cleo-figure2/<stage>"``).
    Engine crash faults strike *before* a transform runs, so a retried
    attempt never sees a half-injected EventStore.  ``retry`` is the
    engine-wide :class:`~repro.core.recovery.RetryPolicy`.
    """
    config = config if config is not None else CleoPipelineConfig()
    workdir = Path(workdir)
    detector_config = DetectorConfig()
    misalignment = true_misalignment(detector_config.n_planes, 0.2, seed=config.seed)
    detector = Detector(detector_config, misalignment)
    calibration = perfect_calibration(misalignment, version=f"cal_{config.recon_release}")
    reconstructor = Reconstructor(detector_config, calibration, config.recon_release)
    postrecon = PostReconstructor(config.postrecon_release)
    mc_producer = MonteCarloProducer(detector, config.mc_release)

    if config.use_hsm:
        store = HsmEventStore(
            workdir / "collab",
            cache_capacity=config.hsm_cache,
            scale="collaboration",
            name="cleo-collab",
        )
    else:
        store = CollaborationEventStore(workdir / "collab", name="cleo-collab")
    def kind_size(kind: str) -> DataSize:
        return DataSize.from_bytes(float(
            store.db.query_value(
                "SELECT coalesce(sum(size_bytes), 0) FROM files WHERE kind = ?",
                (kind,),
            )
        ))

    # Stages that executed (and therefore wrote their products into this
    # run's store).  A stage serviced from the cache leaves the store
    # untouched; its products live in the cached stash instead.
    injected: set = set()
    restoring = threading.Lock()
    offsite, mc_site = workdir / "offsite", "remote-u"

    def restore_products(stash_of, stage_names):
        """Write the products of cache-hit stages into this run's store.

        ``stash_of(name)`` is a stage's stash, or None while it is not
        published.  Walks the flow's topological order and merges Monte
        Carlo in from a personal store — the order and the way a cold run
        writes — so a warm store is the cold store row for row.
        Idempotent per stage.
        """
        with restoring:
            for name in order:
                if name not in stage_names or name in injected:
                    continue
                stash = stash_of(name)
                if stash is None or "products" not in stash:
                    continue
                if name == "monte-carlo":
                    personal = offsite_store(offsite, mc_site)
                    for run, events, version, kind, stamp in stash["products"]:
                        personal.inject(run, events, version, kind, stamp)
                    merge_into(personal, store)
                    personal.close()
                else:
                    for run, events, version, kind, stamp in stash["products"]:
                        store.inject(run, events, version, kind, stamp, admin=True)
                injected.add(name)

    def catch_up(ctx):
        """Before a stage touches the store, restore every cache-hit stage
        ahead of it in topological order: its ancestors (the files it is
        about to read) and, with one worker, the rest of what a cold run
        would have written by now.  A stage still running on another
        worker has published nothing and writes its own products."""

        def published(name):
            try:
                return ctx.dep_stash(name)
            except ExecutionError:
                return None

        restore_products(published, order[: order.index(ctx.stage.name)])

    def acquire(inputs, ctx):
        runs: List[Run] = []
        products = []
        total = 0.0
        for index in range(config.n_runs):
            run, events, _ = detector.generate_run(
                run_number=index + 1,
                start_time=100.0 * (index + 1),
                seed=config.seed + index,
                events_scale=config.events_scale,
            )
            stamp = stamp_step("DAQ", "daq_v3", {"run": run.number})
            store.inject(run, events, "Raw_daq_v3", "raw", stamp, admin=True)
            runs.append(run)
            products.append((run, events, "Raw_daq_v3", "raw", stamp))
            total += sum(event.size.bytes for event in events)
        injected.add("acquisition")
        ctx.stash["runs"] = runs
        ctx.stash["products"] = products
        ctx.stash["kind_size"] = kind_size("raw")
        return Dataset("raw-runs", DataSize(total), version="Raw_daq_v3",
                       attrs={"runs": config.n_runs})

    def reconstruct(inputs, ctx):
        """Track fitting per run, fanned out as the paper's farm batch.

        The parent (this transform) owns all store traffic: it reads each
        run's raw events from the central store, hands ``(reconstructor,
        events, stamp)`` tasks to the engine's shard pool — threads or
        worker processes per ``config.executor`` — and injects the results
        back in run order, so the store contents and accounting are
        byte-identical for any worker count or executor.
        """
        catch_up(ctx)
        runs = ctx.dep_stash("acquisition")["runs"]
        tasks = []
        for run in runs:
            raw_file = store.open_file(run.number, "Raw_daq_v3", "raw")
            tasks.append((reconstructor, list(raw_file.events()), raw_file.stamp))
        shard_results = ctx.map_shards(
            _reconstruct_run_shard,
            tasks,
            cache_keys=[f"recon|run{run.number:04d}" for run in runs],
            cache_params=_shard_fingerprint(config),
        )
        products = []
        total = 0.0
        for run, (recon_events, stamp) in zip(runs, shard_results):
            store.inject(run, recon_events, reconstructor.version, "recon",
                         stamp, admin=True)
            products.append((run, recon_events, reconstructor.version, "recon", stamp))
            total += sum(event.size.bytes for event in recon_events)
        injected.add("reconstruction")
        ctx.stash["products"] = products
        ctx.stash["kind_size"] = kind_size("recon")
        return Dataset("recon-runs", DataSize(total), version=reconstructor.version)

    def post_reconstruct(inputs, ctx):
        catch_up(ctx)
        runs = ctx.dep_stash("acquisition")["runs"]
        products = []
        total = 0.0
        for run in runs:
            recon_file = store.open_file(run.number, reconstructor.version, "recon")
            derived, _, stamp = postrecon.process_run(
                run.number, recon_file.read_all(), recon_file.stamp
            )
            store.inject(run, derived, postrecon.version, "postrecon", stamp, admin=True)
            products.append((run, derived, postrecon.version, "postrecon", stamp))
            total += sum(event.size.bytes for event in derived)
        injected.add("post-reconstruction")
        ctx.stash["products"] = products
        ctx.stash["kind_size"] = kind_size("postrecon")
        return Dataset("postrecon-runs", DataSize(total), version=postrecon.version)

    def monte_carlo(inputs, ctx):
        catch_up(ctx)
        runs = ctx.dep_stash("acquisition")["runs"]
        personal = produce_offsite_mc(
            mc_producer, runs, offsite, site=mc_site, base_seed=config.seed + 1000,
        )
        merge_into(personal, store)
        personal.close()
        products = []
        for run in runs:
            mc_file = store.open_file(run.number, mc_producer.version, "mc")
            products.append(
                (run, mc_file.read_all(), mc_producer.version, "mc", mc_file.stamp)
            )
        injected.add("monte-carlo")
        ctx.stash["products"] = products
        ctx.stash["kind_size"] = kind_size("mc")
        return Dataset(
            "mc-runs", ctx.stash["kind_size"], version=mc_producer.version
        )

    def grade_and_analyze(inputs, ctx):
        catch_up(ctx)
        runs = ctx.dep_stash("acquisition")["runs"]
        assignments = {run_key(run.number): reconstructor.version for run in runs}
        store.assign_grade(config.grade, config.grade_timestamp, assignments, admin=True)
        job = AnalysisJob(
            "trackSpread", store, config.grade, config.grade_timestamp + 1.0
        )
        result = job.run()
        injected.add("physics-analysis")
        ctx.stash["analysis"] = result
        ctx.stash["storage"] = store.storage_report() if config.use_hsm else None
        return Dataset(
            "analysis-products",
            DataSize.from_bytes(float(result.histogram.counts.nbytes)),
            version=f"Analysis_iter{result.iteration}",
            attrs={"selected": result.events_selected},
        )

    flow = figure2_flow(
        transforms={
            "acquisition": acquire,
            "reconstruction": reconstruct,
            "post-reconstruction": post_reconstruct,
            "monte-carlo": monte_carlo,
            "physics-analysis": grade_and_analyze,
        },
        cache_params=_cache_fingerprint(config),
    )
    order = flow.topological_order()

    flow_report = Engine(
        seed=config.seed,
        max_workers=config.workers,
        executor=config.executor,
        cache=cache,
        retry=retry,
        faults=faults,
    ).run(flow)
    write_event_log(workdir / "telemetry.jsonl", flow_report.events)
    stashes = flow_report.stashes

    # Cache-hit stages never touched this run's store; write their
    # products and the pinned grade so the persisted EventStore matches a
    # cold run's (downstream consumers replay analyses from store_root).
    restore_products(stashes.get, order)
    if "physics-analysis" not in injected:
        store.assign_grade(
            config.grade,
            config.grade_timestamp,
            {
                run_key(run.number): reconstructor.version
                for run in stashes["acquisition"]["runs"]
            },
            admin=True,
        )

    sizes_by_kind: Dict[str, DataSize] = {
        "raw": stashes["acquisition"]["kind_size"],
        "recon": stashes["reconstruction"]["kind_size"],
        "postrecon": stashes["post-reconstruction"]["kind_size"],
        "mc": stashes["monte-carlo"]["kind_size"],
    }

    report = CleoPipelineReport(
        config=config,
        flow_report=flow_report,
        store_root=store.root,
        runs=stashes["acquisition"]["runs"],
        sizes_by_kind=sizes_by_kind,
        analysis=stashes["physics-analysis"]["analysis"],
        storage=stashes["physics-analysis"]["storage"],
    )
    store.close()
    return report


# -- incremental (windowed) execution --------------------------------------
@dataclass
class CleoWindowReport:
    """One run-append window of an incremental Figure-2 run."""

    index: int
    watermark: float
    new_runs: int
    runs_seen: int
    report: CleoPipelineReport
    stage_hits: int = 0
    stage_misses: int = 0
    shard_hits: int = 0
    shard_misses: int = 0


@dataclass
class CleoIncrementalReport:
    """A Figure-2 production as a sequence of run-append windows."""

    config: CleoPipelineConfig
    windows: List[CleoWindowReport]
    ledger: WindowLedger
    telemetry: Telemetry

    @property
    def final(self) -> CleoPipelineReport:
        """The last window's report — the whole production, byte-identical
        (canonical accounting, EventStore contents) to one cold batch."""
        return self.windows[-1].report


def run_cleo_incremental(
    workdir: Union[str, Path],
    config: Optional[CleoPipelineConfig] = None,
    arrivals: Optional[Sequence[int]] = None,
    cache: Optional[StageCache] = None,
    telemetry: Optional[Telemetry] = None,
) -> CleoIncrementalReport:
    """Run Figure 2 incrementally: runs append to the open dataset.

    ``arrivals`` lists how many new runs land per window (default one per
    window) and must sum to ``config.n_runs``.  Each window replays the
    flow over all runs seen so far against the shared stage cache; the
    per-run reconstruction batch recomputes only appended runs (shard
    hits cover the rest), mirroring CLEO's staged production where
    reprocessing sweeps reuse everything unchanged.  Every window builds
    a fresh EventStore under ``workdir/window<i>``, so the final window's
    store is exactly the store a cold batch run would have built.
    """
    config = config if config is not None else CleoPipelineConfig()
    cache = cache if cache is not None else StageCache()
    ledger, rows = run_windows(
        "cleo-figure2",
        "runs",
        config.n_runs,
        arrivals,
        run=lambda index, seen: run_cleo_pipeline(
            Path(workdir) / f"window{index:02d}",
            replace(config, n_runs=seen),
            cache=cache,
        ),
        close_attrs=lambda report: {
            "events_selected": report.analysis.events_selected,
        },
        cache=cache,
        telemetry=telemetry,
    )
    windows = [
        CleoWindowReport(
            new_runs=row.pop("arrived"), runs_seen=row.pop("seen"), **row
        )
        for row in rows
    ]
    return CleoIncrementalReport(
        config=config, windows=windows, ledger=ledger, telemetry=ledger.telemetry
    )
