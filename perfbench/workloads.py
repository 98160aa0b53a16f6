"""The seven workloads: seeded inputs, timed passes, output checks.

Sizes are the module constants below, not flags.  They are the issue's
sizes shrunk so that a pass is 0.6-2.7 s: the reported median is then of
7-35 passes in a 20 s run, and the run-to-run spread narrows with the
number of passes (README, "Bounds").

Every program entry point is called through its *module* attribute
(``pipeline.run_arecibo_pipeline(...)``) so that a traced run sees the
top-level call as a span too.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.arecibo import pipeline as arecibo_pipeline
from repro.arecibo.metaanalysis import CandidateDatabase
from repro.arecibo.sky import N_BEAMS, SkyModel
from repro.arecibo.telescope import ObservationConfig
from repro.cleo import pipeline as cleo_pipeline
from repro.cleo.analysis import AnalysisJob
from repro.core import telemetry as core_telemetry
from repro.core import workload as core_workload
from repro.core.cachestore import DiskCacheStore
from repro.core.dataflow import DataFlow
from repro.core.dataset import Dataset
from repro.core.engine import Engine
from repro.core.readcache import ReadCache
from repro.core.stagecache import StageCache
from repro.core.telemetry import Telemetry, strip_wall_clock
from repro.core.units import DataSize
from repro.core.workload import OpSpec, TenantSpec, TraceReplayer, WorkloadSpec
from repro.eventstore.scales import CollaborationEventStore
from repro.ops import dashboard as ops_dashboard
from repro.ops import default_quality_specs
from repro.ops import report as ops_report
from repro.ops import rollup as ops_rollup
from repro.weblab import services as weblab_services
from repro.weblab.synthweb import SyntheticWebConfig

from perfbench.trace import Tracer

# -- sizes ---------------------------------------------------------------------
FIG1_POINTINGS = 4
FIG1_CHANNELS = 64
FIG1_SAMPLES = 4096
FARM_WORKERS = 2
NIGHTLY_ARRIVALS = (1, 1, 0, 1)  # one empty (cloudy) window; sums to the pointings
LANES = 400
LANE_DEPTH = 5
WARMUP_LANES = 20
DIAMOND_WIDTH = 4
DIAMOND_DEPTH = 16
FIG2_RUNS = 8
FIG2_EVENTS = 2000  # raw events over all runs, whatever the seed drew per run
FIG2_PROBE_SCALE = 0.0001
WEB = dict(n_domains=20, initial_pages=200, new_pages_per_crawl=100)
WEB_CRAWLS = 6
HOT_REQUESTS = 20_000
HOT_ZIPF = 1.3
HOT_MIX = (6.0, 2.0, 1.0)  # browse : navigate : history
HOT_CACHE = 4096  # >= the working set
SCAN_REQUESTS = 12_000
SCAN_ZIPF = 0.2
SCAN_MIX = (5.0, 2.0, 2.0)  # history is uncached by design
SCAN_CACHE = 64  # a few percent of the keys the trace touches
WARMUP_REQUESTS = 2_000
CONTENT_SAMPLE_EVERY = 50
OPS_TAIL_SHARE = 0.10


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class PassResult:
    wall_s: float  # as measured
    units: int
    speed: float = 1.0  # the box's speed factor while the pass ran (perfbench.probe)
    failed: int = 0
    digest: str = ""
    parts: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    latencies_s: Optional[List[float]] = None
    checks: List[Check] = field(default_factory=list)

    @property
    def reference_wall_s(self) -> float:
        """The pass at reference speed: what ``wall_s`` of the result line is made of."""
        return self.wall_s / self.speed


@dataclass
class RunContext:
    """What ``check`` and ``extras`` read.  ``extras`` is only asked of a traced run."""

    reference: List[PassResult]  # untraced passes
    traced: List[PassResult]
    tracer: Optional[Tracer]  # None on an untraced run

    def median_part(self, key: str) -> float:
        return median([p.parts[key] for p in self.reference if key in p.parts])

    def last_count(self, key: str) -> float:
        return float(self.reference[-1].counts.get(key, 0.0))


def median(values: Sequence[float]) -> float:
    """``statistics.median``, reading 0 for "nothing measured"."""
    return statistics.median(values) if values else 0.0


def sha(payload: object) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()


def canonical_digest(events) -> str:
    """sha256 of the log with wall-clock fields stripped: the byte-determinism contract."""
    return sha(strip_wall_clock(events))


class Workload:
    """One workload.  ``setup`` may run several times; the last one's state is used."""

    name = ""
    unit = ""
    #: Which of the probe's two speeds its time follows (perfbench.probe).
    bound_by = "interpreter"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self._dir_count = 0

    def fresh_dir(self, label: str) -> Path:
        self._dir_count += 1
        path = self.workdir / f"{label}{self._dir_count:03d}"
        path.mkdir(parents=True)
        return path

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def units_per_pass(self) -> int:
        raise NotImplementedError

    def check(self, ctx: RunContext) -> List[Check]:
        return []

    def extras(self, ctx: RunContext) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass


def digests_repeat(passes: Sequence[PassResult]) -> Check:
    digests = {p.digest for p in passes}
    return Check("digest identical across passes", len(digests) == 1,
                 f"{len(digests)} distinct over {len(passes)} passes")


# -- Figure 1 --------------------------------------------------------------------------
def fig1_config(seed: int, n_pointings: int, **parallel) -> arecibo_pipeline.AreciboPipelineConfig:
    """C20's sky and receiver, with the sky and every run RNG drawn from the seed."""
    return arecibo_pipeline.AreciboPipelineConfig(
        n_pointings=n_pointings,
        observation=ObservationConfig(n_channels=FIG1_CHANNELS, n_samples=FIG1_SAMPLES),
        sky=SkyModel(
            seed=seed,
            pulsar_fraction=0.5,
            binary_fraction=0.0,
            transient_rate=0.5,
            period_range_s=(0.03, 0.12),
            snr_range=(15.0, 30.0),
        ),
        seed=seed,
        **parallel,
    )


def fig1_output_checks(report, run_dir: Path) -> List[Check]:
    """Checks that hold for any seed (recall does not: it is reported, not gated)."""
    config = report.config
    expected_raw = (
        config.n_pointings * N_BEAMS
        * config.observation.n_channels * config.observation.n_samples * 4
    )
    with CandidateDatabase(run_dir / "candidates.db") as database:
        rows, transients = database.count(), len(database.transients())
    score = report.score
    return [
        Check("raw volume is pointings x beams x channels x samples x 4 B",
              report.raw_size.bytes >= expected_raw
              and report.raw_size.bytes < expected_raw * 1.01,
              f"{report.raw_size.bytes} vs {expected_raw}"),
        Check("persisted candidates.db holds the sifted candidates and transients",
              rows == report.candidate_count_sifted and transients == report.transient_count,
              f"{rows}/{report.candidate_count_sifted} rows, "
              f"{transients}/{report.transient_count} transients"),
        Check("every confirmed candidate folds above threshold",
              all(row["fold_snr"] >= config.fold_threshold for row in report.confirmed)),
        Check("score accounts for every injected pulsar",
              score.recovered + len(score.missed) == score.injected),
    ]


def fig1_counts(report) -> Dict[str, float]:
    score = report.score
    injected = score.injected + score.transients_injected
    found = score.recovered + score.transients_recovered
    return {
        "recall": found / injected if injected else 1.0,
        "raw_bytes": report.raw_size.bytes,
        "stages": len(report.flow_report.stages),
    }


def shm_segments() -> int:
    try:
        return sum(1 for name in os.listdir("/dev/shm") if name.startswith("psm_"))
    except OSError:
        return 0


class Fig1Cold(Workload):
    name = "fig1-cold"
    unit = "pointings"
    bound_by = "arrays"
    parallel: Dict[str, object] = {}

    def setup(self) -> None:
        self.config = fig1_config(self.seed, FIG1_POINTINGS, **self.parallel)
        # Warm-up: one pointing, same block shapes, so FFT plans, sqlite and
        # (for the farm) one pool start are paid before the first timed pass.
        warm = self.fresh_dir("warmup")
        arecibo_pipeline.run_arecibo_pipeline(warm, fig1_config(self.seed, 1, **self.parallel))
        shutil.rmtree(warm)

    def units_per_pass(self) -> int:
        return FIG1_POINTINGS

    def run_pass(self, index: int) -> PassResult:
        run_dir = self.fresh_dir("pass")
        start = time.perf_counter()
        report = arecibo_pipeline.run_arecibo_pipeline(run_dir, self.config)
        wall = time.perf_counter() - start
        result = PassResult(
            wall_s=wall,
            units=FIG1_POINTINGS,
            digest=canonical_digest(report.flow_report.events),
            counts=fig1_counts(report),
            checks=fig1_output_checks(report, run_dir),
        )
        shutil.rmtree(run_dir)
        return result

    def check(self, ctx: RunContext) -> List[Check]:
        return [digests_repeat(ctx.reference + ctx.traced)]

    def extras(self, ctx: RunContext) -> Dict[str, float]:
        wall = median([p.wall_s for p in ctx.reference])
        extras = {
            "arecibo.raw_mb_per_s": ctx.last_count("raw_bytes") / 1e6 / wall,
            "arecibo.recall": ctx.last_count("recall"),
            "engine.stages": ctx.last_count("stages"),
        }
        shift = ctx.tracer.totals().get("kernels.shift_sum")
        if shift is not None and shift.inclusive > 0:  # the farm's kernels run in the children
            extras["kernels.shift_sum_computed_gbps"] = shift.work / 1e9 / shift.inclusive
        return extras


class Fig1Farm(Fig1Cold):
    name = "fig1-farm"
    parallel = {"workers": FARM_WORKERS, "executor": "process"}

    def setup(self) -> None:
        self.shm_before = shm_segments()
        super().setup()

    def check(self, ctx: RunContext) -> List[Check]:
        # The same science single-process: the digest must not know about the farm.
        serial_dir = self.fresh_dir("serial")
        start = time.perf_counter()
        serial = arecibo_pipeline.run_arecibo_pipeline(
            serial_dir, fig1_config(self.seed, FIG1_POINTINGS)
        )
        self.serial_s = time.perf_counter() - start
        shutil.rmtree(serial_dir)
        passes = ctx.reference + ctx.traced
        return [
            digests_repeat(passes),
            Check("farm digest equals the single-process digest",
                  canonical_digest(serial.flow_report.events) == passes[0].digest),
        ]

    def extras(self, ctx: RunContext) -> Dict[str, float]:
        extras = super().extras(ctx)
        extras["shards.farm_speedup"] = self.serial_s / median(
            [p.wall_s for p in ctx.reference]
        )
        extras["shards.shm_leaked"] = float(max(0, shm_segments() - self.shm_before))
        return extras

    def close(self) -> None:
        # SharedArray starts multiprocessing's resource tracker; stop it so no
        # process this run started outlives it.
        from multiprocessing import resource_tracker

        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()


class Fig1Nightly(Workload):
    name = "fig1-nightly"
    unit = "windows"
    bound_by = "arrays"

    def setup(self) -> None:
        self.config = fig1_config(self.seed, sum(NIGHTLY_ARRIVALS))
        warm = self.fresh_dir("warmup")
        arecibo_pipeline.run_arecibo_incremental(
            warm / "run", fig1_config(self.seed, 1), arrivals=[1],
            cache=StageCache.on_disk(warm / "store"),
        )
        shutil.rmtree(warm)

    def units_per_pass(self) -> int:
        return len(NIGHTLY_ARRIVALS) + 1  # the windows, then the warm restart

    def run_pass(self, index: int) -> PassResult:
        run_dir = self.fresh_dir("pass")
        store_root = run_dir / "store"
        cache = StageCache.on_disk(store_root)
        start = time.perf_counter()
        nightly = arecibo_pipeline.run_arecibo_incremental(
            run_dir / "windows", self.config, arrivals=list(NIGHTLY_ARRIVALS), cache=cache
        )
        windows_done = time.perf_counter()
        # A new process would start like this: nothing in memory, everything on disk.
        restart_cache = StageCache.on_disk(store_root)
        restarted = arecibo_pipeline.run_arecibo_pipeline(
            run_dir / "restart", self.config, cache=restart_cache
        )
        end = time.perf_counter()
        final = nightly.final
        digest = canonical_digest(final.flow_report.events)
        stats, disk = cache.stats(), cache.disk_stats()
        stages = len(final.flow_report.stages)
        checks = fig1_output_checks(final, run_dir / "windows" / f"window{len(NIGHTLY_ARRIVALS) - 1:02d}")
        checks += [
            Check("warm restart from disk replays the final window byte-identically",
                  canonical_digest(restarted.flow_report.events) == digest),
            Check("warm restart is all stage hits",
                  restart_cache.hits == stages and restart_cache.misses == 0,
                  f"{restart_cache.hits} hits, {restart_cache.misses} misses"),
            Check("only never-seen pointings miss at the shard level",
                  all(w.shard_misses == 2 * w.new_pointings for w in nightly.windows),
                  str([(w.new_pointings, w.shard_misses) for w in nightly.windows])),
        ]
        result = PassResult(
            wall_s=end - start,
            units=self.units_per_pass(),
            digest=digest,
            parts={"windows_s": windows_done - start, "warm_restart_s": end - windows_done},
            counts={
                **fig1_counts(final),
                "hits": stats["hits"], "misses": stats["misses"],
                "shard_hits": cache.shard_hits, "shard_misses": cache.shard_misses,
                "disk_entries": disk["disk_entries"],
                "stages": stages * self.units_per_pass(),
            },
            checks=checks,
        )
        shutil.rmtree(run_dir)
        return result

    def check(self, ctx: RunContext) -> List[Check]:
        batch_dir = self.fresh_dir("batch")
        start = time.perf_counter()
        batch = arecibo_pipeline.run_arecibo_pipeline(batch_dir, self.config)
        self.batch_s = time.perf_counter() - start
        shutil.rmtree(batch_dir)
        passes = ctx.reference + ctx.traced
        return [
            digests_repeat(passes),
            Check("final window digest equals one cold batch run",
                  canonical_digest(batch.flow_report.events) == passes[0].digest),
        ]

    def extras(self, ctx: RunContext) -> Dict[str, float]:
        hits, misses = ctx.last_count("hits"), ctx.last_count("misses")
        shard_hits, shard_misses = ctx.last_count("shard_hits"), ctx.last_count("shard_misses")
        lookups = hits + misses + shard_hits + shard_misses
        extras = {
            "arecibo.recall": ctx.last_count("recall"),
            "engine.stages": ctx.last_count("stages"),
            "stagecache.hits": hits,
            "stagecache.misses": misses,
            "stagecache.shard_hits": shard_hits,
            "stagecache.shard_misses": shard_misses,
            "stagecache.hit_ratio": (hits + shard_hits) / lookups if lookups else 0.0,
            "stagecache.warm_restart_s": ctx.median_part("warm_restart_s"),
            "cachestore.entries": ctx.last_count("disk_entries"),
            "deltas.windows": float(len(NIGHTLY_ARRIVALS)),
            "deltas.overhead_ratio": ctx.median_part("windows_s") / self.batch_s,
        }
        # Per-window wall needs the spans: the windows are calls the incremental
        # driver makes, not the benchmark.
        first, last, empty = [], [], []
        full = [i for i, count in enumerate(NIGHTLY_ARRIVALS) if count]
        idle = [i for i, count in enumerate(NIGHTLY_ARRIVALS) if not count]
        for index in range(len(ctx.traced)):
            windows = sorted(
                (s for s in ctx.tracer.spans_named("arecibo.pipeline", index) if s.parent),
                key=lambda s: s.start,
            )
            if len(windows) != len(NIGHTLY_ARRIVALS):
                continue  # the span list filled up; totals still stand
            first.append(windows[full[0]].end - windows[full[0]].start)
            last.append(windows[full[-1]].end - windows[full[-1]].start)
            empty.extend(windows[i].end - windows[i].start for i in idle)
        extras["deltas.window_first_s"] = median(first)
        extras["deltas.window_last_s"] = median(last)
        extras["deltas.window_empty_s"] = median(empty)
        return extras


# -- the engine alone ----------------------------------------------------------------------
def lanes_flow(n_lanes: int, depth: int, seed: int) -> DataFlow:
    """``n_lanes`` chains of ``depth`` trivial stages feeding one join."""
    rng = random.Random(seed)
    flow = DataFlow("engine-lanes")

    def source(size: int):
        def emit(inputs, ctx):
            return Dataset("lane", DataSize.from_bytes(float(size)), version="v1")
        return emit

    def step(inputs, ctx):
        (only,) = inputs.values()
        return only.derive(only.name, only.size)

    def join(inputs, ctx):
        total = DataSize.zero()
        for dataset in inputs.values():
            total += dataset.size
        return Dataset("joined", total, version="v1")

    flow.stage("join", join)
    for lane in range(n_lanes):
        names = [f"l{lane:03d}s{index}" for index in range(depth)]
        flow.stage(names[0], source(rng.randrange(1_000, 1_000_000)))
        for name in names[1:]:
            flow.stage(name, step)
        flow.chain(*names, "join")
    return flow


def diamond_flow(width: int, depth: int) -> DataFlow:
    """Every stage reads two stages of the level before: ancestry doubles per level."""
    flow = DataFlow("diamond")

    def source(inputs, ctx):
        return Dataset("d", DataSize.from_bytes(1000.0), version="v1")

    def merge(inputs, ctx):
        first = inputs[sorted(inputs)[0]]
        return first.derive("d", first.size)

    for level in range(depth):
        for column in range(width):
            flow.stage(f"d{level:02d}c{column}", source if level == 0 else merge)
            if level:
                for above in (column, (column + 1) % width):
                    flow.connect(f"d{level - 1:02d}c{above}", f"d{level:02d}c{column}")
    return flow


class EngineLanes(Workload):
    name = "engine-lanes"
    unit = "stages"

    def setup(self) -> None:
        self.flow = lanes_flow(LANES, LANE_DEPTH, self.seed)
        self.stages = LANES * LANE_DEPTH + 1
        self._cycle(lanes_flow(WARMUP_LANES, LANE_DEPTH, self.seed))

    def units_per_pass(self) -> int:
        return 4 * self.stages

    def _cycle(self, flow: DataFlow):
        clock = time.perf_counter
        marks = [clock()]
        serial = Engine(seed=self.seed).run(flow)
        marks.append(clock())
        threads = Engine(seed=self.seed, max_workers=2).run(flow)
        marks.append(clock())
        cache = StageCache()
        cold = Engine(seed=self.seed, cache=cache).run(flow)
        marks.append(clock())
        warm = Engine(seed=self.seed, cache=cache).run(flow)
        marks.append(clock())
        parts = dict(zip(("serial_s", "threads_s", "cold_s", "warm_s"),
                         (b - a for a, b in zip(marks, marks[1:]))))
        return marks[-1] - marks[0], parts, (serial, threads, cold, warm), cache

    def run_pass(self, index: int) -> PassResult:
        wall, parts, reports, cache = self._cycle(self.flow)
        rows = [report.summary_rows() for report in reports]
        return PassResult(
            wall_s=wall,
            units=self.units_per_pass(),
            digest=sha(rows[0]),
            parts=parts,
            counts={"hits": cache.hits, "misses": cache.misses},
            checks=[
                Check("summary rows identical for 1/2 workers and cold/warm cache",
                      all(other == rows[0] for other in rows[1:])),
                Check("warm run is all hits", cache.hits == self.stages
                      and cache.misses == self.stages,
                      f"{cache.hits} hits, {cache.misses} misses"),
            ],
        )

    def check(self, ctx: RunContext) -> List[Check]:
        return [digests_repeat(ctx.reference + ctx.traced)]

    def extras(self, ctx: RunContext) -> Dict[str, float]:
        serial = ctx.median_part("serial_s")
        hits, misses = ctx.last_count("hits"), ctx.last_count("misses")
        extras = {
            "engine.stages": float(self.units_per_pass()),
            "engine.stage_overhead_us": serial / self.stages * 1e6,
            "engine.threads_over_serial": ctx.median_part("threads_s") / serial,
            "engine.warm_replay_us": ctx.median_part("warm_s") / self.stages * 1e6,
            "stagecache.hits": hits,
            "stagecache.misses": misses,
            "stagecache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        }
        # Probe, layer metric only: provenance stamps merge their whole
        # ancestry at every join, which a diamond makes visible.
        lattice = diamond_flow(DIAMOND_WIDTH, DIAMOND_DEPTH)
        start = time.perf_counter()
        Engine(seed=self.seed).run(lattice)
        extras["provenance.diamond16_ms"] = (time.perf_counter() - start) * 1e3
        return extras


# -- Figure 2 --------------------------------------------------------------------------------
class Fig2Cold(Workload):
    name = "fig2-cold"
    unit = "events"

    def setup(self) -> None:
        # The program draws each run's length (15K-300K events) from the seed,
        # so the same events_scale means a different amount of work per seed.
        # A tiny probe run — also the warm-up — reports what was drawn, and the
        # scale is set so that every seed produces the same number of events.
        warm = self.fresh_dir("warmup")
        probe = cleo_pipeline.run_cleo_pipeline(
            warm,
            cleo_pipeline.CleoPipelineConfig(
                n_runs=FIG2_RUNS, events_scale=FIG2_PROBE_SCALE, seed=self.seed
            ),
        )
        shutil.rmtree(warm)
        nominal = sum(int(run.condition_map["nominal_events"]) for run in probe.runs)
        self.config = cleo_pipeline.CleoPipelineConfig(
            n_runs=FIG2_RUNS, events_scale=FIG2_EVENTS / nominal, seed=self.seed
        )

    def units_per_pass(self) -> int:
        return FIG2_EVENTS

    def run_pass(self, index: int) -> PassResult:
        run_dir = self.fresh_dir("pass")
        start = time.perf_counter()
        report = cleo_pipeline.run_cleo_pipeline(run_dir, self.config)
        produced = time.perf_counter()
        # The physicist's contract: the pinned analysis replays bit-identically
        # from the stored data.  Part of the pass: a result is not complete
        # until it can be read back.
        with CollaborationEventStore(report.store_root) as store:
            replay = AnalysisJob(
                "trackSpread", store, self.config.grade, self.config.grade_timestamp + 1.0
            ).run()
        end = time.perf_counter()
        fingerprint = report.analysis.histogram.fingerprint()
        result = PassResult(
            wall_s=end - start,
            units=sum(run.event_count for run in report.runs),
            digest=sha([canonical_digest(report.flow_report.events), fingerprint]),
            parts={"pipeline_s": produced - start, "replay_s": end - produced},
            counts={
                "stored_bytes": report.total_stored.bytes,
                "events_read": report.analysis.events_read,
                "stages": len(report.flow_report.stages),
            },
            checks=[
                Check("pinned analysis replays bit-identically",
                      replay.histogram.fingerprint() == fingerprint),
                Check("all four event kinds stored, recon smaller than raw",
                      set(report.sizes_by_kind) == {"raw", "recon", "postrecon", "mc"}
                      and report.sizes_by_kind["recon"] < report.sizes_by_kind["raw"]),
                Check("analysis selected events", 0 < report.analysis.events_selected
                      <= report.analysis.events_read),
            ],
        )
        shutil.rmtree(run_dir)
        return result

    def check(self, ctx: RunContext) -> List[Check]:
        return [digests_repeat(ctx.reference + ctx.traced)]

    def extras(self, ctx: RunContext) -> Dict[str, float]:
        return {
            "engine.stages": ctx.last_count("stages"),
            "eventstore.bytes_written": ctx.last_count("stored_bytes"),
            "cleo.events_per_s": ctx.last_count("events_read") / ctx.median_part("pipeline_s"),
        }


# -- serving -------------------------------------------------------------------------------------
def serving_universe(weblab):
    """(urls, navigable source urls, an ``as_of`` past every capture)."""
    db = weblab.database.db
    urls = [row["url"] for row in db.query("SELECT DISTINCT url FROM pages ORDER BY url")]
    navigable = [
        row["src_url"]
        for row in db.query(
            "SELECT DISTINCT l.src_url FROM links l "
            "JOIN pages p ON p.url = l.src_url AND p.crawl_index = l.crawl_index "
            "JOIN pages d ON d.url = l.dst_url AND d.crawl_index = l.crawl_index "
            "ORDER BY l.src_url"
        )
    ]
    as_of = float(db.query_value("SELECT max(fetched_at) FROM pages")) + 1.0
    return urls, navigable, as_of


def timed_handlers(services, as_of: float, latencies: List[float]) -> Dict[str, Callable]:
    """Handler map whose every service call is timed here, not by the replayer."""
    clock = time.perf_counter

    def timed(call):
        def handler(request):
            start = clock()
            try:
                return call(request)
            finally:
                latencies.append(clock() - start)
        return handler

    return {
        "browse": timed(lambda request: services.browse(request.key, as_of)),
        "navigate": timed(lambda request: services.navigate(request.key, as_of, 0)),
        "history": timed(lambda request: services.capture_history(request.key)),
    }


class Serving(Workload):
    """Closed loop, one client, no think time, in one process."""

    unit = "requests"
    tenant = ""
    zipf = 1.0
    mix = (1.0, 1.0, 1.0)
    storm = False
    weblab = None

    def n_requests(self) -> int:
        raise NotImplementedError

    def setup(self) -> None:
        if self.weblab is not None:
            self.weblab.close()
            shutil.rmtree(self.lab_root)
        self.lab_root = self.fresh_dir("lab")
        start = time.perf_counter()
        self.weblab, self.build, _ = weblab_services.build_weblab(
            self.lab_root, SyntheticWebConfig(seed=self.seed, **WEB), n_crawls=WEB_CRAWLS
        )
        self.build_s = time.perf_counter() - start
        self.urls, self.navigable, self.as_of = serving_universe(self.weblab)
        # Priming: the lab's text index over the last crawl, as a researcher
        # session would open it.
        weblab_services.WebLabServices(self.weblab, telemetry=Telemetry()).build_text_index(
            WEB_CRAWLS - 1
        )
        self.trace = self._trace(self.n_requests())
        self.prime()

    def _trace(self, n_requests: int):
        # The arrival clock is simulated; rate x duration only sets the count.
        duration = 100.0
        storms = ()
        rate = n_requests / duration
        if self.storm:
            storms = (core_workload.BurstStorm(start_s=50.0, end_s=70.0, multiplier=4.0),)
            rate /= 1.6  # the storm multiplies a fifth of the trace by four
        browse, navigate, history = self.mix
        spec = WorkloadSpec(
            name=self.name,
            seed=self.seed,
            duration_s=duration,
            tenants=(
                TenantSpec(
                    name=self.tenant,
                    rate_per_s=rate,
                    ops=(
                        OpSpec(op="browse", weight=browse, keys=tuple(self.urls), zipf_s=self.zipf),
                        OpSpec(op="navigate", weight=navigate, keys=tuple(self.navigable),
                               zipf_s=self.zipf),
                        OpSpec(op="history", weight=history, keys=tuple(self.urls),
                               zipf_s=self.zipf),
                    ),
                    storms=storms,
                ),
            ),
        )
        return core_workload.generate_trace(spec)

    def prime(self) -> None:
        raise NotImplementedError

    def facade(self, bus: Telemetry):
        raise NotImplementedError

    def units_per_pass(self) -> int:
        return len(self.trace)

    def replay(self, trace) -> PassResult:
        bus = Telemetry()
        services = self.facade(bus)
        latencies: List[float] = []
        replayer = TraceReplayer(timed_handlers(services, self.as_of, latencies), telemetry=bus)
        before = services.cache.stats
        start = time.perf_counter()
        report = replayer.replay(trace)
        wall = time.perf_counter() - start
        self.last_bus = bus
        after = services.cache.stats
        # serve-hot keeps one cache for the whole run: count this pass only.
        stats = {
            key: getattr(after, key) - getattr(before, key)
            for key in ("hits", "misses", "negative_hits", "evictions", "admission_rejected")
        }
        answered = stats["hits"] + stats["negative_hits"]
        lookups = answered + stats["misses"]
        total = len(trace)
        return PassResult(
            wall_s=wall,
            units=total,
            failed=report.failed + report.rejected,
            digest=sha([report.served, report.failed, services.service_stats,
                        bus.registry.as_dict()]),
            parts={"handler_s": sum(latencies)},
            counts={
                **stats, "hit_ratio": answered / lookups if lookups else 0.0,
            },
            latencies_s=latencies,
            checks=[Check("served + rejected + failed == total",
                          report.served + report.rejected + report.failed == total)],
        )

    def run_pass(self, index: int) -> PassResult:
        return self.replay(self.trace)

    def content_check(self) -> Check:
        """A 1-in-N sample of the trace returns identical content cached and uncached."""
        plain = weblab_services.WebLabServices(self.weblab, telemetry=Telemetry())
        cached = self.facade(Telemetry())
        mismatches = 0
        sample = list(self.trace)[::CONTENT_SAMPLE_EVERY]
        for request in sample:
            if request.op == "browse":
                a, b = plain.browse(request.key, self.as_of), cached.browse(request.key, self.as_of)
                same = (a.content, a.outlinks) == (b.content, b.outlinks)
            elif request.op == "navigate":
                a = plain.navigate(request.key, self.as_of, 0)
                b = cached.navigate(request.key, self.as_of, 0)
                same = (a.url, a.content) == (b.url, b.content)
            else:
                same = plain.capture_history(request.key) == cached.capture_history(request.key)
            mismatches += not same
        return Check("cached and uncached facades serve identical content",
                     mismatches == 0, f"{mismatches} of {len(sample)} sampled requests differ")

    def check(self, ctx: RunContext) -> List[Check]:
        return [digests_repeat(ctx.reference + ctx.traced), self.content_check()]

    def extras(self, ctx: RunContext) -> Dict[str, float]:
        p50s, p99s = [], []
        for result in ctx.reference:
            ordered = sorted(result.latencies_s)
            p50s.append(core_workload.percentile(ordered, 50) * 1e6)
            p99s.append(core_workload.percentile(ordered, 99) * 1e6)
        walls = [p.wall_s for p in ctx.reference]
        requests = len(self.trace)
        overheads = [
            (p.wall_s - p.parts["handler_s"]) / requests * 1e6 for p in ctx.reference
        ]
        extras = {
            "workload.requests": float(requests),
            "workload.replay_overhead_us": median(overheads),
            "serve.requests_per_s": requests / median(walls),
            "serve.latency_p50_us": median(p50s),
            "serve.latency_p99_us": median(p99s),
            "weblab.pages_per_s": self.build.pages_loaded / self.build_s,
        }
        for key in ("hit_ratio", "hits", "misses", "negative_hits", "evictions"):
            extras[f"readcache.{key}"] = ctx.last_count(key)
        extras["readcache.admission_rejects"] = ctx.last_count("admission_rejected")
        return extras

    def close(self) -> None:
        if self.weblab is not None:
            self.weblab.close()
            self.weblab = None


class ServeHot(Serving):
    name = "serve-hot"
    tenant = "researchers"
    zipf = HOT_ZIPF
    mix = HOT_MIX
    storm = True

    def n_requests(self) -> int:
        return HOT_REQUESTS

    def prime(self) -> None:
        # One cache for the whole run, filled by a warming pass: steady state.
        self.cache = ReadCache(capacity=HOT_CACHE)
        self.replay(self.trace)

    def facade(self, bus: Telemetry):
        # No bus on the cache: the hit path emits nothing.
        return weblab_services.WebLabServices(self.weblab, telemetry=bus, cache=self.cache)


class ServeScan(Serving):
    name = "serve-scan"
    tenant = "crawler"
    zipf = SCAN_ZIPF
    mix = SCAN_MIX

    def n_requests(self) -> int:
        return SCAN_REQUESTS

    def prime(self) -> None:
        self.replay(self._trace(WARMUP_REQUESTS))

    def facade(self, bus: Telemetry):
        # Fresh cache per pass: its bus is fixed at construction.
        return weblab_services.WebLabServices(
            self.weblab, telemetry=bus, cache=ReadCache(capacity=SCAN_CACHE, telemetry=bus)
        )

    def check(self, ctx: RunContext) -> List[Check]:
        return super().check(ctx) + self.ops_phase()

    def ops_phase(self) -> List[Check]:
        """Persisted log -> cold rollup -> +10 % -> incremental -> content hit -> report."""
        events = self.last_bus.events()
        ops_dir = self.fresh_dir("ops")
        log = ops_dir / "telemetry.jsonl"
        store = DiskCacheStore(ops_dir / "rollups")
        head = int(len(events) * (1.0 - OPS_TAIL_SHARE))
        clock = time.perf_counter
        marks = [clock()]
        core_telemetry.write_event_log(log, events[:head])
        marks.append(clock())
        cold = ops_rollup.build_rollup(log, store=store)
        marks.append(clock())
        with log.open("a", encoding="utf-8") as handle:
            for event in events[head:]:
                handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        marks.append(clock())
        incremental = ops_rollup.build_rollup(log, store=store)
        marks.append(clock())
        warm = ops_rollup.build_rollup(log, store=store)
        marks.append(clock())
        board = ops_dashboard.build_dashboard(warm, default_quality_specs())
        marks.append(clock())
        page = ops_report.render_report(board, title="perfbench serve-scan")
        marks.append(clock())
        total = marks[-1] - marks[0]
        # Outside the user-visible sequence: the from-scratch reference.
        scanned = ops_rollup.scan_log(log)
        marks.append(clock())
        reread = core_telemetry.read_event_log(log)
        marks.append(clock())
        steps = [b - a for a, b in zip(marks, marks[1:])]
        self.ops = {
            "telemetry.log_bytes": float(log.stat().st_size),
            "telemetry.write_log_s": steps[0] + steps[2],
            "telemetry.read_log_s": steps[8],
            "ops.rollup_cold_s": steps[1],
            "ops.rollup_incremental_s": steps[3],
            "ops.rollup_warm_s": steps[4],
            "ops.dashboard_s": steps[5],
            "ops.report_s": steps[6],
            "ops.report_total_s": total,
            "ops.scan_s": steps[7],
            "ops.events_per_s": len(events) / steps[7],
        }
        shutil.rmtree(ops_dir)

        def body(projection):
            # build_rollup adds a log.truncated_lines counter scan_log does not.
            rendered = projection.to_dict()
            rendered.pop("counters")
            return rendered

        return [
            Check("rollup sources are cold, incremental, cache",
                  (cold.source, incremental.source, warm.source)
                  == ("cold", "incremental", "cache"),
                  f"{cold.source}, {incremental.source}, {warm.source}"),
            Check("cold scan, incremental and content-hit projections are equal",
                  body(scanned) == body(incremental) == body(warm)),
            Check("persisted log reads back whole",
                  len(reread) == len(events) and reread.truncated_lines == 0),
            Check("report rendered", page.startswith("<!DOCTYPE html>")),
        ]

    def extras(self, ctx: RunContext) -> Dict[str, float]:
        return {**super().extras(ctx), **self.ops}


WORKLOADS = {
    cls.name: cls
    for cls in (Fig1Cold, Fig1Farm, Fig1Nightly, EngineLanes, Fig2Cold, ServeHot, ServeScan)
}
