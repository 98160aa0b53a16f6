"""Figure 1, executable: the Arecibo data flow end to end.

Acquisition at the telescope (with local quality monitoring), physical
disk shipment to the CTC, archiving to robotic tape, per-beam RFI excision
/ dedispersion / Fourier search at the processing sites, consolidation of
candidates into the SQL database, and the cross-pointing meta-analysis —
each step a stage of one core dataflow, so the volumes, reduction factors,
and processor requirements the paper quotes come out of the run report.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arecibo.accelsearch import acceleration_trials, resample_for_acceleration
from repro.arecibo.candidates import SiftedCandidate, match_to_truth, sift
from repro.arecibo.dedisperse import DMGrid, dedisperse_all, dedispersed_size
from repro.arecibo.dedisperse import dedisperse
from repro.arecibo.filterbank import StagedBeam
from repro.arecibo.folding import refine_period
from repro.arecibo.fourier import search_dm_block, search_spectrum
from repro.arecibo.metaanalysis import CandidateDatabase, MetaAnalysisReport
from repro.arecibo.rfi import clean_filterbank, multibeam_coincidence
from repro.arecibo.singlepulse import SinglePulseEvent, search_single_pulses
from repro.arecibo.sky import N_BEAMS, Pointing, SkyModel
from repro.arecibo.telescope import ObservationConfig, ObservationSimulator
from repro.core.dataflow import DataFlow, StageFn, StageReplay, structural_stub
from repro.core.dataset import Dataset
from repro.core.deltas import WindowLedger, run_windows
from repro.core.engine import Engine, FlowReport
from repro.core.errors import SearchError
from repro.core.faults import FaultInjector, FaultPlan
from repro.core.recovery import RetryPolicy
from repro.core.stagecache import StageCache
from repro.core.telemetry import Telemetry, write_event_log
from repro.core.units import DataSize, Duration
from repro.storage.media import LTO3_TAPE
from repro.storage.tape import RoboticTapeLibrary
from repro.transport.sneakernet import ARECIBO_TO_CTC, ShipmentResult, ShippingLane


@dataclass
class AreciboPipelineConfig:
    """Laptop-scale survey parameters."""

    n_pointings: int = 4
    observation: ObservationConfig = field(default_factory=ObservationConfig)
    sky: SkyModel = field(default_factory=lambda: SkyModel(seed=42))
    dm_max: float = 100.0
    snr_threshold: float = 7.0
    multibeam_max: int = 3
    meta_max_pointings: int = 2
    fold_threshold: float = 6.5
    # Acceleration search: number of trial accelerations (1 disables the
    # binary search — "another level of complexity" the paper flags) and
    # the stride through the DM grid it samples.
    accel_trials: int = 1
    accel_max_ms2: float = 25.0
    accel_dm_stride: int = 4
    # Single-pulse (transient) search over the dedispersed block.
    single_pulse_threshold: float = 7.0
    single_pulse_dm_stride: int = 4
    transient_max_beams: int = 3
    # Parallelism: the per-pointing fan-out inside the dominant `process`
    # stage.  Results are identical for any value; every pointing draws
    # from its own deterministic RNG and the merge happens in pointing
    # order.  ``executor`` picks where the fan-out runs: ``"thread"``
    # (default), inline on the calling thread, or ``"process"`` —
    # ``workers`` worker processes that map the beams from their staging
    # files, the paper's farm model.
    workers: int = 1
    executor: str = "thread"
    seed: int = 7

    def __post_init__(self) -> None:
        for name in ("accel_trials", "accel_dm_stride", "single_pulse_dm_stride"):
            if getattr(self, name) < 1:
                raise SearchError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class DetectionScore:
    """Recovered vs injected sources, plus surviving false candidates."""

    injected: int
    recovered: int
    missed: List[str] = field(default_factory=list)
    false_candidates: int = 0
    transients_injected: int = 0
    transients_recovered: int = 0

    @property
    def recall(self) -> float:
        return self.recovered / self.injected if self.injected else 1.0


@dataclass
class AreciboPipelineReport:
    """Everything the Figure-1 run produced."""

    config: AreciboPipelineConfig
    flow_report: FlowReport
    pointings: List[Pointing]
    shipment: ShipmentResult
    tape_cartridges: int
    raw_size: DataSize
    dedispersed_size: DataSize
    candidate_count_presift: int
    candidate_count_sifted: int
    transient_count: int
    multibeam_rejected: int
    meta_report: MetaAnalysisReport
    score: DetectionScore
    confirmed: List[dict]
    #: Beams dropped by injected ``"beam"``-scope faults, as
    #: ``(pointing_id, beam)`` pairs — the survey's recorded culls.
    beam_culls: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def products_fraction(self) -> float:
        """Data products as a fraction of raw (paper: one to a few percent)."""
        products = self.flow_report.stage("consolidate").output_size
        return products.bytes / self.raw_size.bytes if self.raw_size.bytes else 0.0

    def processors_needed(self, acquisition_window: Duration) -> float:
        return self.flow_report.processors_needed(acquisition_window)


def _cache_fingerprint(config: AreciboPipelineConfig) -> Dict[str, object]:
    """Stage ``cache_params`` for the Figure-1 flow.

    The whole config is folded in — any parameter change invalidates every
    stage — except ``workers`` and ``executor``: stage outputs are
    byte-identical across worker counts and executors (the determinism
    contract ``tests/test_process_figures.py`` pins), so a cache primed
    inline must service process-sharded reruns alike.
    """
    return {"pipeline": repr(replace(config, workers=1, executor="thread"))}


def _shard_fingerprint(config: AreciboPipelineConfig) -> Dict[str, object]:
    """Shard-level ``cache_params``: the config minus the survey length.

    Per-pointing shard results are independent of how many pointings the
    run covers (pointing generation is prefix-stable: pointing *i* is the
    same object in a 2-pointing and a 200-pointing survey), so excluding
    ``n_pointings`` lets an incremental window replay every shard an
    earlier, shorter window already computed and pay only for the new
    arrivals.
    """
    return {
        "pipeline": repr(
            replace(config, workers=1, executor="thread", n_pointings=0)
        )
    }


def figure1_flow(
    transforms: Optional[Mapping[str, StageFn]] = None,
    cache_params: Optional[Mapping[str, object]] = None,
    replays: Optional[Mapping[str, StageReplay]] = None,
) -> DataFlow:
    """Build the Figure-1 flow graph: the single construction site.

    :func:`run_arecibo_pipeline` passes its transform closures and the
    ``replays`` of the stages that write ``candidates.db``; static
    tooling (:mod:`repro.analysis.flowcheck`, figure rendering, tests)
    calls it bare and gets the identical topology with
    :func:`~repro.core.dataflow.structural_stub` transforms that raise
    if executed.  One builder means the checked graph can never drift
    from the executed one.
    """
    transforms = dict(transforms or {})

    def fn(name: str) -> StageFn:
        return transforms.get(name) or structural_stub(name)

    flow = DataFlow("arecibo-figure1")
    flow.stage("acquire", fn("acquire"), site="Arecibo",
               description="dynamic spectra to local disks + QA",
               cache_params=cache_params)
    flow.stage("ship", fn("ship"), site="Arecibo->CTC",
               description="physical ATA-disk transport",
               cache_params=cache_params)
    flow.stage("archive", fn("archive"), site="CTC",
               description="robotic tape archive",
               cache_params=cache_params)
    flow.stage("process", fn("process"), site="CTC/PALFA",
               cpu_seconds_per_gb=3600,
               description="RFI excision, dedispersion, Fourier search",
               cache_params=cache_params)
    flow.stage("consolidate", fn("consolidate"), site="CTC",
               description="load data products into SQL database",
               cache_params=cache_params)
    flow.stage("meta-analysis", fn("meta-analysis"), site="CTC/Web",
               description="cross-pointing coincidence cull",
               cache_params=cache_params)
    flow.chain("acquire", "ship", "archive", "process", "consolidate",
               "meta-analysis")
    for name, replay in (replays or {}).items():
        flow.stages[name].replay = replay
    return flow


def _staging_tag(config: AreciboPipelineConfig) -> str:
    """The part of a staging file's name that stands for the config.

    A hash of exactly what the observe shards' ``cache_params`` hold
    (:func:`_shard_fingerprint`): together with the pointing id and the
    beam it fixes what the file contains, so one name never holds two
    contents — and a shard hit's handles name what an earlier run wrote.
    """
    fingerprint = _shard_fingerprint(config)["pipeline"]
    return hashlib.sha256(str(fingerprint).encode("utf-8")).hexdigest()[:16]


# -- the per-pointing shards ----------------------------------------------
# Module-level (not closures) so they can cross a process boundary under
# ``executor="process"``; everything they need travels in the task tuple,
# and raw data travels as StagedBeam handles, never as arrays.
# Fault evaluation does NOT happen here — the parent evaluates beam-scope
# faults in canonical (pointing-major, beam-minor) order before dispatch
# and passes the culled beam ids in, so injector state never has to cross
# into (or back out of) a worker process.


def _observe_pointing_shard(
    task: Tuple[ObservationConfig, Pointing, int, Path, str],
) -> List[StagedBeam]:
    """Observe one pointing's beams into staging; returns their handles.

    Each beam goes to ``<staging>/<tag>_p<id>_b<beam>.fb`` and is
    released once written, so the shard never holds more than the
    simulator's own arrays.  The simulator is stateless per observation
    and the RNG derives from the passed seed alone, so one pointing's
    files are identical whether observed inline, on a worker, or by an
    earlier (shorter) survey window whose shard-cache entry a later run
    replays — the handles then name that run's files.
    """
    observation, pointing, seed, staging, tag = task
    filterbanks = ObservationSimulator(observation).observe(pointing, seed=seed)
    handles: List[StagedBeam] = []
    while filterbanks:
        filterbank = filterbanks.pop(0)  # released once the next one is popped
        name = f"{tag}_p{pointing.pointing_id:04d}_b{filterbank.beam}.fb"
        handles.append(StagedBeam.stage(staging / name, filterbank))
    return handles


def _search_pointing_shard(
    task: Tuple[AreciboPipelineConfig, Pointing, Sequence[StagedBeam], FrozenSet[int]],
):
    """Search one pointing: all seven beams plus the multibeam culls.

    Self-contained and deterministic: the RNG is derived from the run
    seed and the pointing id, never shared across pointings, so the
    per-pointing results are identical whether pointings run inline or
    in worker processes.  ``culled`` beams (decided
    by the parent's fault evaluation) keep their slot in the multibeam
    grid as an empty candidate list — they can neither detect nor veto —
    and consume no RNG draws, exactly as under in-line execution.

    Beams are mapped from their staging files one at a time, and every
    array derived from a beam is dropped before the next is opened.
    """
    config, pointing, beams, culled = task
    rng = np.random.default_rng((config.seed + 1, pointing.pointing_id))
    presift = 0
    dedispersed_total = DataSize.zero()
    per_beam_sifted: List[List] = []
    per_beam_transients: List[Tuple[int, List[SinglePulseEvent]]] = []
    grid: Optional[DMGrid] = None
    for staged in beams:
        if staged.beam in culled:
            # Graceful degradation, the survey's real procedure: a beam
            # whose data are unusable (bad disk, bad tape) is culled from
            # the pointing and recorded; the other six beams still get
            # searched.
            per_beam_sifted.append([])
            per_beam_transients.append((staged.beam, []))
            continue
        filterbank = staged.open()
        cleaned, _ = clean_filterbank(filterbank, rng=rng)
        del filterbank
        if grid is None:
            grid = DMGrid.matched(cleaned, config.dm_max)
        block = dedisperse_all(cleaned, grid)
        dedispersed_total += dedispersed_size(cleaned, grid)
        raw_candidates = search_dm_block(
            block,
            grid.trials,
            cleaned.tsamp_s,
            snr_threshold=config.snr_threshold,
            pointing_id=pointing.pointing_id,
            beam=staged.beam,
        )
        presift += len(raw_candidates)
        if config.accel_trials > 1:
            trials = acceleration_trials(config.accel_max_ms2, config.accel_trials)
            for row_index in range(0, len(grid.trials), config.accel_dm_stride):
                for trial in trials:
                    if trial == 0.0:
                        continue  # already searched above
                    resampled = resample_for_acceleration(
                        block[row_index], cleaned.tsamp_s, trial
                    )
                    accel_candidates = search_spectrum(
                        resampled,
                        cleaned.tsamp_s,
                        grid.trials[row_index],
                        snr_threshold=config.snr_threshold,
                        accel_ms2=trial,
                        pointing_id=pointing.pointing_id,
                        beam=staged.beam,
                    )
                    presift += len(accel_candidates)
                    raw_candidates.extend(accel_candidates)
        per_beam_sifted.append(sift(raw_candidates))
        # Transient search: boxcar ladder over a DM-grid subset,
        # keeping each beam's best detection per time cluster.
        beam_events: dict = {}
        for row_events in search_single_pulses(
            block[:: config.single_pulse_dm_stride],
            cleaned.tsamp_s,
            grid.trials[:: config.single_pulse_dm_stride],
            snr_threshold=config.single_pulse_threshold,
        ):
            for event in row_events:
                key = round(event.time_s, 2)
                current = beam_events.get(key)
                if current is None or event.snr > current.snr:
                    beam_events[key] = event
        per_beam_transients.append((staged.beam, list(beam_events.values())))
        del cleaned, block
    multibeam = multibeam_coincidence(
        per_beam_sifted, max_beams=config.multibeam_max
    )
    # Transient multibeam cull: an impulse seen simultaneously in more
    # than `transient_max_beams` *other* beams is broadband local RFI.
    # Survivors record the telescope beam id carried by the staged beam,
    # matching how sifted candidates record theirs.
    transient_survivors: List[Tuple[int, int, SinglePulseEvent]] = []
    for beam, events in per_beam_transients:
        for event in events:
            other_beams_seen = sum(
                1
                for other_beam, other_events in per_beam_transients
                if other_beam != beam
                and any(
                    abs(other_event.time_s - event.time_s)
                    <= max(other_event.width_s, event.width_s)
                    for other_event in other_events
                )
            )
            if other_beams_seen <= config.transient_max_beams:
                transient_survivors.append((pointing.pointing_id, beam, event))
    return presift, dedispersed_total, multibeam, transient_survivors


def run_arecibo_pipeline(
    workdir: Union[str, Path],
    config: Optional[AreciboPipelineConfig] = None,
    cache: Optional[StageCache] = None,
    faults: Optional[Union[FaultPlan, FaultInjector]] = None,
    retry: Optional[RetryPolicy] = None,
) -> AreciboPipelineReport:
    """Run Figure 1 into ``workdir``; returns the full report.

    Pass a shared :class:`~repro.core.stagecache.StageCache` to let reruns
    of an unchanged configuration skip stage compute: stage results
    (outputs, stashes, CPU charges) replay from the cache, the FlowReport
    and telemetry come out accounting-identical, and ``consolidate``'s
    row load and ``meta-analysis``'s cull are their stages' ``replay``,
    so any hit leaves the cold run's ``candidates.db``.  Raw data lives
    only in staging files (``workdir/arecibo-staging``), named by the
    survey config, the pointing and the beam; stashes and cache entries
    hold :class:`~repro.arecibo.filterbank.StagedBeam` handles to them,
    so a hit names the files the run that computed it wrote, and writes
    none.  A staging file is never deleted: a cache that outlives a run
    needs that run's ``workdir`` kept with it, and an on-disk entry
    naming a lost or torn file loads as a miss.  Each run replaces
    ``candidates.db`` and closes it even when it raises, so a crashed
    run resumed in the same ``workdir`` ends on the cold database too.

    ``faults`` aims one :class:`~repro.core.faults.FaultPlan` (or an
    already-armed injector, the resume idiom) at every injection site the
    flow owns: engine stage attempts (scope ``"stage"``, targets
    ``"arecibo-figure1/<stage>"``), the shipping lane (scope ``"lane"``),
    the tape robot (scope ``"storage"``, targets ``"ctc-robot/*"``), and
    per-beam culls (scope ``"beam"``, targets
    ``"arecibo-figure1/p<id>/b<beam>"``, kind ``"drop"`` — the survey
    drops the beam and records the cull).  ``retry`` is the engine-wide
    :class:`~repro.core.recovery.RetryPolicy` for crashed stage attempts.
    """
    config = config if config is not None else AreciboPipelineConfig()
    workdir = Path(workdir)
    staging = workdir / "arecibo-staging"
    staging.mkdir(parents=True, exist_ok=True)

    # The engine arms a FaultPlan against its own simulated clock; the
    # resulting injector is shared with the lane/library/beam shims so
    # one plan covers every injection site.  That clock moves only in the
    # engine's accounting replay, after every stage has run, so an
    # `after_sim_time` predicate sees the clock as the run found it, not
    # the sim time earlier stages charged (an open defect).  Passing an
    # already-armed FaultInjector instead is the crash/resume idiom:
    # exhausted fire budgets carry over, so transient faults do not
    # restrike the rerun.
    engine = Engine(
        seed=config.seed,
        max_workers=config.workers,
        cache=cache,
        retry=retry,
        faults=faults,
        executor=config.executor,
    )
    injector: Optional[FaultInjector] = engine.faults

    pointings = config.sky.generate_pointings(config.n_pointings)
    lane = ShippingLane(
        ARECIBO_TO_CTC, rng=random.Random(config.seed), faults=injector
    )
    library = RoboticTapeLibrary("ctc-robot", LTO3_TAPE, faults=injector)
    # A run replaces the candidate database an earlier attempt (a crashed
    # run resumed in this workdir) may have left, rather than appending.
    (workdir / "candidates.db").unlink(missing_ok=True)
    database = CandidateDatabase(workdir / "candidates.db")

    def load_rows(ctx):
        """``consolidate``'s write: the process stage's rows into the DB."""
        process_stash = ctx.dep_stash("process")
        database.add_candidates(process_stash["sifted"])
        for pointing_id, beam, event in process_stash["transients"]:
            database.add_transients([event], pointing_id, beam)

    def cull(ctx):
        """``meta-analysis``'s write: classify every row — a pure function
        of the rows, so a replay classifies exactly as the run did."""
        return database.cull_widespread(max_pointings=config.meta_max_pointings)

    def acquire(inputs, ctx):
        """Record dynamic spectra to local disks; basic quality monitoring.

        Pointings observe independently on the shard pool, keyed per
        pointing in the shard cache: a window that extends the survey by
        one night recomputes only the new arrivals.  Each shard writes
        its beams to staging and returns their handles; the stash keeps
        the handles, and the volume is the staged files' bytes.
        """
        tag = _staging_tag(config)
        observed = ctx.map_shards(
            _observe_pointing_shard,
            [
                (
                    config.observation,
                    pointing,
                    config.seed + pointing.pointing_id,
                    staging,
                    tag,
                )
                for pointing in pointings
            ],
            cache_keys=[
                f"observe|p{pointing.pointing_id:04d}" for pointing in pointings
            ],
            cache_params=_shard_fingerprint(config),
        )
        observations: Dict[int, List[StagedBeam]] = {}
        total = DataSize.zero()
        for pointing, beams in zip(pointings, observed):
            observations[pointing.pointing_id] = beams
            for beam in beams:
                total += beam.file_size
        ctx.stash["observations"] = observations
        ctx.stash["raw_size"] = total
        return Dataset(
            "raw-spectra",
            total,
            version="survey_v1",
            attrs={"pointings": config.n_pointings, "beams": N_BEAMS},
        )

    def ship(inputs, ctx):
        """Physical ATA-disk transport to the CTC."""
        raw = inputs["acquire"]
        result = lane.ship(raw.size)
        ctx.stash["shipment"] = result
        ctx.charge_cpu(Duration.zero())
        return raw.derive("shipped-raw", raw.size, attrs={"media": result.media_used})

    def archive(inputs, ctx):
        """Archive raw data to the robotic tape system."""
        shipped = inputs["ship"]
        observations = ctx.dep_stash("acquire")["observations"]
        for pointing_id, beams in observations.items():
            for beam in beams:
                library.archive(f"p{pointing_id:04d}_b{beam.beam}", beam.size)
        ctx.stash["cartridges"] = library.cartridge_count
        return shipped.derive("archived-raw", shipped.size)

    def process(inputs, ctx):
        """Per-beam excision, dedispersion, Fourier search; multibeam cull.

        Pointings are independent, so they go through the engine's shard
        pool — inline, or on worker processes with ``config.workers > 1``
        and ``executor="process"`` — and results merge in pointing order
        either way, keeping the stage output byte-identical for any worker
        count and executor.  Beam-scope faults are evaluated *here*, in
        canonical pointing-major/beam-minor order (identical to sequential
        execution), so injector state never crosses a process boundary;
        shards receive only the resulting culled-beam sets.  The task is
        the same for every executor and carries the beams' handles, so no
        raw data crosses to a worker: each shard maps its beams' files.
        """
        observations = ctx.dep_stash("acquire")["observations"]

        beam_culls: List[Tuple[int, int]] = []
        culled_by_pointing: Dict[int, FrozenSet[int]] = {}
        for pointing in pointings:
            culled: List[int] = []
            for beam in observations[pointing.pointing_id]:
                if injector is None:
                    continue
                records = injector.fire(
                    "beam",
                    f"arecibo-figure1/p{pointing.pointing_id:04d}/b{beam.beam}",
                    site="CTC/PALFA",
                )
                ctx.record_faults(records)
                if any(record.kind == "drop" for record in records):
                    culled.append(beam.beam)
                    beam_culls.append((pointing.pointing_id, beam.beam))
            culled_by_pointing[pointing.pointing_id] = frozenset(culled)

        pointing_results = ctx.map_shards(
            _search_pointing_shard,
            [
                (
                    config,
                    pointing,
                    observations[pointing.pointing_id],
                    culled_by_pointing[pointing.pointing_id],
                )
                for pointing in pointings
            ],
            cache_keys=[
                f"search|p{pointing.pointing_id:04d}"
                f"|culled={sorted(culled_by_pointing[pointing.pointing_id])}"
                for pointing in pointings
            ],
            cache_params=_shard_fingerprint(config),
        )

        presift = 0
        dedispersed_total = DataSize.zero()
        all_sifted: List[SiftedCandidate] = []
        rejected = 0
        transient_survivors: List[Tuple[int, int, SinglePulseEvent]] = []
        for (
            pointing_presift,
            pointing_dedisp,
            multibeam,
            survivors,
        ) in pointing_results:
            presift += pointing_presift
            dedispersed_total += pointing_dedisp
            rejected += multibeam.rejection_count
            all_sifted.extend(multibeam.accepted)
            transient_survivors.extend(survivors)
        ctx.stash["presift"] = presift
        ctx.stash["sifted"] = all_sifted
        ctx.stash["dedispersed"] = dedispersed_total
        ctx.stash["multibeam_rejected"] = rejected
        ctx.stash["transients"] = transient_survivors
        ctx.stash["beam_culls"] = beam_culls
        # Candidate volume: one compact record per sifted candidate.
        return Dataset(
            "candidates",
            DataSize.from_bytes(float(len(all_sifted) * 64)),
            version="search_v1",
            attrs={"presift": presift},
        )

    def consolidate(inputs, ctx):
        """Load candidate data products into the CTC database."""
        load_rows(ctx)
        return inputs["process"].derive(
            "candidate-db",
            inputs["process"].size,
            attrs={"rows": len(ctx.dep_stash("process")["sifted"])},
        )

    def meta_analyze(inputs, ctx):
        """Cross-pointing coincidence cull + fold confirmation.

        Surviving candidates are fold-confirmed: "reprocessing of
        dedispersed time series to signal average at the spin period of a
        candidate signal".  Fourier noise excursions do not fold up.
        """
        observations = ctx.dep_stash("acquire")["observations"]
        ctx.stash["meta"] = cull(ctx)
        survivors = database.confirmed_pulsars(min_snr=config.snr_threshold)
        confirmed = []
        fold_rng = np.random.default_rng(config.seed + 2)
        # Candidate rows carry telescope beam ids, not list positions, so
        # resolve the staged beam by its own beam attribute.
        beam_lookup = {
            (pointing_id, beam.beam): beam
            for pointing_id, beams in observations.items()
            for beam in beams
        }
        for row in survivors:
            # One beam mapped at a time, dropped once its series exists.
            filterbank = beam_lookup[(row["pointing_id"], row["beam"])].open()
            cleaned, _ = clean_filterbank(filterbank, rng=fold_rng)
            base_series = dedisperse(cleaned, row["dm"])
            tsamp_s = filterbank.tsamp_s
            del filterbank, cleaned
            # Fold at the recorded trial acceleration and at zero, keeping
            # the better: the Fourier leader sometimes rides a nonzero
            # trial by chance even for an unaccelerated source.
            fold_snr = 0.0
            accels = {0.0}
            recorded = float(row["accel_ms2"])
            if recorded:
                # Refine around the coarse trial: the residual drift between
                # the true acceleration and the nearest grid trial smears the
                # fold, so confirmation scans the gap the search grid left.
                half_step = config.accel_max_ms2 / max(config.accel_trials - 1, 1)
                for offset in (-half_step, -half_step / 2, 0.0, half_step / 2, half_step):
                    accels.add(recorded + offset)
            for accel in accels:
                series = base_series
                if accel:
                    series = resample_for_acceleration(base_series, tsamp_s, accel)
                _, snr = refine_period(series, tsamp_s, row["period_s"], n_trials=11)
                fold_snr = max(fold_snr, snr)
            if fold_snr >= config.fold_threshold:
                confirmed.append({**row, "fold_snr": fold_snr})
        ctx.stash["confirmed"] = confirmed
        return Dataset(
            "confirmed-candidates",
            DataSize.from_bytes(float(len(confirmed) * 64)),
            version="meta_v1",
            attrs={"confirmed": len(confirmed)},
        )

    flow = figure1_flow(
        transforms={
            "acquire": acquire,
            "ship": ship,
            "archive": archive,
            "process": process,
            "consolidate": consolidate,
            "meta-analysis": meta_analyze,
        },
        cache_params=_cache_fingerprint(config),
        replays={"consolidate": load_rows, "meta-analysis": cull},
    )

    with database:
        flow_report = engine.run(flow)
    write_event_log(workdir / "telemetry.jsonl", flow_report.events)
    stashes = flow_report.stashes

    # Score detections against ground truth.
    injected = [p for pointing in pointings for p in pointing.all_pulsars()]
    sifted: List[SiftedCandidate] = stashes["process"]["sifted"]  # type: ignore[assignment]
    confirmed: List[dict] = stashes["meta-analysis"]["confirmed"]  # type: ignore[assignment]
    confirmed_sifted = [
        SiftedCandidate(
            period_s=row["period_s"],
            freq_hz=row["freq_hz"],
            snr=row["snr"],
            dm=row["dm"],
            n_harmonics=row["n_harmonics"],
            n_dm_hits=row["n_dm_hits"],
            pointing_id=row["pointing_id"],
            beam=row["beam"],
        )
        for row in confirmed
    ]
    recovered = 0
    missed: List[str] = []
    matched_ids = set()
    observation_time = config.observation.duration_s
    for pulsar in injected:
        # Match tolerance is the search's own frequency resolution: one
        # Fourier bin, expressed as a fraction of the true frequency.
        bin_fraction = 1.0 / (observation_time / pulsar.period_s)
        match = match_to_truth(
            confirmed_sifted,
            pulsar.period_s,
            freq_tolerance=max(0.02, bin_fraction),
        )
        if match is not None:
            recovered += 1
            matched_ids.add(id(match))
        else:
            missed.append(pulsar.name)
    false_candidates = sum(
        1 for candidate in confirmed_sifted if id(candidate) not in matched_ids
    )
    injected_transients = [
        (pointing.pointing_id, transient)
        for pointing in pointings
        for beam in pointing.transients_by_beam
        for transient in beam
    ]
    transient_rows: List[Tuple[int, int, object]] = stashes["process"][
        "transients"
    ]  # type: ignore[assignment]
    transients_recovered = 0
    for pointing_id, truth in injected_transients:
        expected_time = truth.time_s * config.observation.duration_s
        if any(
            row_pointing == pointing_id
            and abs(event.time_s - expected_time) <= 0.05 * config.observation.duration_s
            for row_pointing, _, event in transient_rows
        ):
            transients_recovered += 1
    score = DetectionScore(
        injected=len(injected),
        recovered=recovered,
        missed=missed,
        false_candidates=false_candidates,
        transients_injected=len(injected_transients),
        transients_recovered=transients_recovered,
    )

    report = AreciboPipelineReport(
        config=config,
        flow_report=flow_report,
        pointings=pointings,
        shipment=stashes["ship"]["shipment"],  # type: ignore[arg-type]
        tape_cartridges=stashes["archive"]["cartridges"],  # type: ignore[arg-type]
        raw_size=stashes["acquire"]["raw_size"],  # type: ignore[arg-type]
        dedispersed_size=stashes["process"]["dedispersed"],  # type: ignore[arg-type]
        candidate_count_presift=stashes["process"]["presift"],  # type: ignore[arg-type]
        candidate_count_sifted=len(sifted),
        transient_count=len(transient_rows),
        multibeam_rejected=stashes["process"]["multibeam_rejected"],  # type: ignore[arg-type]
        meta_report=stashes["meta-analysis"]["meta"],  # type: ignore[arg-type]
        score=score,
        confirmed=confirmed,
        beam_culls=list(stashes["process"].get("beam_culls", [])),  # type: ignore[union-attr]
    )
    return report


# -- incremental (windowed) execution --------------------------------------
@dataclass
class AreciboWindowReport:
    """One arrival window of an incremental Figure-1 run."""

    index: int
    watermark: float
    new_pointings: int
    pointings_seen: int
    report: AreciboPipelineReport
    #: Stage-cache traffic this window generated (deltas of the shared
    #: cache's counters) — the recompute pin: only never-seen pointings
    #: may miss at the shard level.
    stage_hits: int = 0
    stage_misses: int = 0
    shard_hits: int = 0
    shard_misses: int = 0


@dataclass
class AreciboIncrementalReport:
    """A Figure-1 survey run as a sequence of pointing-arrival windows."""

    config: AreciboPipelineConfig
    windows: List[AreciboWindowReport]
    ledger: WindowLedger
    telemetry: Telemetry

    @property
    def final(self) -> AreciboPipelineReport:
        """The last window's report — covers the whole survey, and is
        byte-identical (canonical accounting) to one cold batch run."""
        return self.windows[-1].report


def run_arecibo_incremental(
    workdir: Union[str, Path],
    config: Optional[AreciboPipelineConfig] = None,
    arrivals: Optional[Sequence[int]] = None,
    cache: Optional[StageCache] = None,
    telemetry: Optional[Telemetry] = None,
) -> AreciboIncrementalReport:
    """Run Figure 1 incrementally: pointings arrive night by night.

    ``arrivals`` lists how many new pointings land in each window
    (default: one per window); they must sum to ``config.n_pointings``.
    Each window re-runs the flow over every pointing seen so far against
    the shared stage cache — the incremental identity *warm rerun + new
    inputs*: whole stages whose inputs did not change replay as stage
    hits, and the delta-capable ``acquire``/``process`` stages recompute
    only the newly arrived pointings' shards.  A zero-arrival window runs
    no new compute (all-hit) but is still accounted on the ledger; only
    the first window may not be empty (:func:`~repro.core.deltas.run_windows`
    owns the loop and refuses a malformed schedule before anything runs).

    The last window covers the whole survey, so its report and canonical
    telemetry are byte-identical to one cold batch run of
    :func:`run_arecibo_pipeline` with the same ``config``.
    """
    config = config if config is not None else AreciboPipelineConfig()
    cache = cache if cache is not None else StageCache()
    ledger, rows = run_windows(
        "arecibo-figure1",
        "pointings",
        config.n_pointings,
        arrivals,
        run=lambda index, seen: run_arecibo_pipeline(
            Path(workdir) / f"window{index:02d}",
            replace(config, n_pointings=seen),
            cache=cache,
        ),
        close_attrs=lambda report: {
            "candidates": report.candidate_count_sifted,
            "confirmed": len(report.confirmed),
        },
        cache=cache,
        telemetry=telemetry,
    )
    windows = [
        AreciboWindowReport(
            new_pointings=row.pop("arrived"),
            pointings_seen=row.pop("seen"),
            **row,
        )
        for row in rows
    ]
    return AreciboIncrementalReport(
        config=config, windows=windows, ledger=ledger, telemetry=ledger.telemetry
    )
