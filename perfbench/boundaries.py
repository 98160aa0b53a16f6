"""The single list of functions the tracer wraps, one layer each.

Layers are the repository's own modules.  A target names the class that
*defines* the attribute (``Database.query``, not ``SqliteBackend.query``).
Most targets are public; the three ``_…_shard`` functions are the farm's
unit of work and are passed to the shard pool by global name, so wrapping
them is what keeps a pointing's or run's glue in its own layer instead of
the engine's.  Code a span calls that is *not* listed here stays in that
span's self time — a gap shows as a fat parent, not as lost time.
"""

from __future__ import annotations

from perfbench.trace import Boundary as B


def _shift_sum_bytes(args, kwargs, result) -> float:
    data, shifts = args[0], args[1]
    # Computed, not measured: every trial reads the whole block once.
    return float(len(shifts) * data.nbytes + result.nbytes)


def _entry_bytes(args, kwargs, result) -> float:
    store, key = args[0], args[1]
    if result is None or result is False:
        return 0.0
    try:
        return float(store.path_for(key).stat().st_size)
    except OSError:
        return 0.0


BOUNDARIES = (
    # -- Figure 1 ------------------------------------------------------------
    B("arecibo", "arecibo.pipeline", "repro.arecibo.pipeline:run_arecibo_pipeline"),
    B("arecibo", "arecibo.observe_shard", "repro.arecibo.pipeline:_observe_pointing_shard"),
    B("arecibo", "arecibo.search_shard", "repro.arecibo.pipeline:_search_pointing_shard"),
    B("arecibo", "arecibo.observe", "repro.arecibo.telescope:ObservationSimulator.observe"),
    B("arecibo", "arecibo.observe", "repro.arecibo.filterbank:write_filterbank"),
    B("arecibo", "arecibo.rfi", "repro.arecibo.rfi:clean_filterbank"),
    B("arecibo", "arecibo.rfi", "repro.arecibo.rfi:multibeam_coincidence"),
    B("arecibo", "arecibo.dedisperse", "repro.arecibo.dedisperse:dedisperse_all"),
    B("arecibo", "arecibo.dedisperse", "repro.arecibo.dedisperse:dedisperse"),
    B("arecibo", "arecibo.fourier", "repro.arecibo.fourier:search_dm_block"),
    B("arecibo", "arecibo.fourier", "repro.arecibo.fourier:search_spectrum"),
    B("arecibo", "arecibo.singlepulse", "repro.arecibo.singlepulse:search_single_pulses"),
    B("arecibo", "arecibo.sift_fold", "repro.arecibo.candidates:sift"),
    B("arecibo", "arecibo.sift_fold", "repro.arecibo.folding:refine_period"),
    B("arecibo", "arecibo.meta", "repro.arecibo.metaanalysis:CandidateDatabase.add_candidates"),
    B("arecibo", "arecibo.meta", "repro.arecibo.metaanalysis:CandidateDatabase.add_transients"),
    B("arecibo", "arecibo.meta", "repro.arecibo.metaanalysis:CandidateDatabase.cull_widespread"),
    B("arecibo", "arecibo.meta", "repro.arecibo.metaanalysis:CandidateDatabase.confirmed_pulsars"),
    B("kernels", "kernels.shift_sum", "repro.core.kernels:shift_sum", _shift_sum_bytes),
    B("kernels", "kernels.power_spectra", "repro.core.kernels:batched_power_spectra"),
    B("kernels", "kernels.harmonic_snr", "repro.core.kernels:harmonic_snr_block"),
    B("kernels", "kernels.threshold_hits", "repro.core.kernels:threshold_hits"),
    B("kernels", "kernels.fold_block", "repro.core.kernels:fold_block"),
    B("kernels", "kernels.index_postings", "repro.core.kernels:index_postings"),
    # -- engine, caches, farm ---------------------------------------------------
    B("engine", "engine.run", "repro.core.engine:Engine.run"),
    B("engine", "provenance.record", "repro.core.provenance:ProvenanceStore.record"),
    B("engine", "provenance.record", "repro.core.provenance:ProvenanceStamp.merged"),
    B("engine", "provenance.record", "repro.core.provenance:ProvenanceStamp.extend"),
    B("stagecache", "stagecache.key", "repro.core.stagecache:stage_key"),
    B("stagecache", "stagecache.key", "repro.core.stagecache:shard_key"),
    B("stagecache", "stagecache.lookup", "repro.core.stagecache:StageCache.lookup"),
    B("stagecache", "stagecache.lookup", "repro.core.stagecache:StageCache.lookup_shard"),
    B("stagecache", "stagecache.store", "repro.core.stagecache:StageCache.store"),
    B("stagecache", "stagecache.store", "repro.core.stagecache:StageCache.store_shard"),
    B("cachestore", "cachestore.read", "repro.core.cachestore:DiskCacheStore.read", _entry_bytes),
    B("cachestore", "cachestore.write", "repro.core.cachestore:DiskCacheStore.write", _entry_bytes),
    B("cachestore", "cachestore.gc", "repro.core.cachestore:DiskCacheStore.gc"),
    B("deltas", "deltas.incremental", "repro.arecibo.pipeline:run_arecibo_incremental"),
    B("deltas", "deltas.ledger", "repro.core.deltas:WindowLedger.open"),
    B("deltas", "deltas.ledger", "repro.core.deltas:WindowLedger.close"),
    B("shards", "shards.map", "repro.core.shards:ShardPool.map"),
    B("shards", "shards.shared_copy", "repro.core.shards:SharedArray.copy_from",
      lambda args, kwargs, result: float(result.nbytes)),
    B("shards", "shards.forward", "repro.core.telemetry:forward_events",
      lambda args, kwargs, result: float(len(result))),
    B("telemetry", "telemetry.emit", "repro.core.telemetry:Telemetry.emit"),
    B("telemetry", "telemetry.write_log", "repro.core.telemetry:write_event_log"),
    B("telemetry", "telemetry.read_log", "repro.core.telemetry:read_event_log"),
    # -- serving ---------------------------------------------------------------------
    B("workload", "workload.generate", "repro.core.workload:generate_trace"),
    B("workload", "workload.replay", "repro.core.workload:TraceReplayer.replay"),
    B("readcache", "readcache.get_or_load", "repro.core.readcache:ReadCache.get_or_load"),
    B("weblab", "weblab.build", "repro.weblab.services:build_weblab"),
    B("weblab", "weblab.synth", "repro.weblab.synthweb:SyntheticWeb.generate_crawls"),
    B("weblab", "weblab.pack", "repro.weblab.arcformat:pack_crawl"),
    B("weblab", "weblab.preload", "repro.weblab.preload:PreloadSubsystem.run"),
    B("weblab", "weblab.text_index", "repro.weblab.services:WebLabServices.build_text_index"),
    B("weblab", "weblab.browse", "repro.weblab.services:WebLabServices.browse"),
    B("weblab", "weblab.navigate", "repro.weblab.services:WebLabServices.navigate"),
    B("weblab", "weblab.history", "repro.weblab.services:WebLabServices.capture_history"),
    B("weblab", "weblab.pagestore_get", "repro.weblab.pagestore:PageStore.get"),
    B("db", "db.query", "repro.db.connection:Database.query"),
    B("db", "db.query", "repro.db.connection:Database.query_one"),
    B("db", "db.query", "repro.db.connection:Database.query_value"),
    B("db", "db.execute", "repro.db.connection:Database.execute"),
    B("db", "db.execute", "repro.db.connection:Database.executemany"),
    B("db", "db.execute", "repro.db.connection:Database.insert"),
    B("db", "db.transaction", "repro.db.connection:SqliteBackend.transaction"),
    # -- Figure 2 ---------------------------------------------------------------------
    B("cleo", "cleo.pipeline", "repro.cleo.pipeline:run_cleo_pipeline"),
    B("cleo", "cleo.reconstruct", "repro.cleo.pipeline:_reconstruct_run_shard"),
    B("cleo", "cleo.generate", "repro.cleo.detector:Detector.generate_run"),
    B("cleo", "cleo.generate", "repro.cleo.montecarlo:produce_offsite_mc"),
    B("cleo", "cleo.reconstruct", "repro.cleo.reconstruction:Reconstructor.reconstruct_run"),
    B("cleo", "cleo.postrecon", "repro.cleo.postrecon:PostReconstructor.process_run"),
    B("cleo", "cleo.analysis", "repro.cleo.analysis:AnalysisJob.run"),
    B("eventstore", "eventstore.inject", "repro.eventstore.store:EventStore.inject"),
    B("eventstore", "eventstore.write_file", "repro.eventstore.fileformat:write_event_file",
      lambda args, kwargs, result: float(result)),
    B("eventstore", "eventstore.read_events", "repro.eventstore.fileformat:EventFile.events"),
    B("eventstore", "eventstore.read_events", "repro.eventstore.fileformat:open_event_file"),
    B("eventstore", "eventstore.resolve", "repro.eventstore.store:EventStore.resolve_runs"),
    B("eventstore", "eventstore.resolve", "repro.eventstore.store:EventStore.assign_grade"),
    # -- sim-time models: expected ~0, listed so a real cost is seen -----------------------
    B("storage", "storage.tape", "repro.storage.tape:RoboticTapeLibrary.archive"),
    B("storage", "storage.tape", "repro.storage.tape:RoboticTapeLibrary.recall"),
    B("storage", "storage.hsm", "repro.storage.hsm:HierarchicalStore.store"),
    B("storage", "storage.hsm", "repro.storage.hsm:HierarchicalStore.read"),
    B("transport", "transport.lane", "repro.transport.sneakernet:ShippingLane.ship"),
    B("transport", "transport.link", "repro.transport.network:NetworkLink.transfer_time"),
    # -- operations console ---------------------------------------------------------------
    B("ops", "ops.scan", "repro.ops.rollup:scan_log"),
    B("ops", "ops.rollup", "repro.ops.rollup:build_rollup"),
    B("ops", "ops.dashboard", "repro.ops.dashboard:build_dashboard"),
    B("ops", "ops.report", "repro.ops.report:render_report"),
)

LAYERS = tuple(dict.fromkeys(b.layer for b in BOUNDARIES))
