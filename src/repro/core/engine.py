"""Dataflow execution with resource and lineage accounting.

The engine runs a :class:`~repro.core.dataflow.DataFlow` in topological
order, threading :class:`~repro.core.dataset.Dataset` objects along the
edges.  While doing so it keeps the books the paper's operators keep by
hand: bytes produced per stage, simulated CPU time per site, the
instantaneous storage high-water mark (the "minimum of 30 Terabytes of
storage required instantaneously" argument for Arecibo), and a provenance
record per stage output.

One thread runs every flow: the calling thread walks the topological
order and, for each stage, does the cache lookup, runs the transform on a
miss (or the stage's ``replay`` on a hit), commits provenance and stores
the result before the next stage starts.  Parallelism lives below the
stage, in two places only:

* the kernels' row tiles (:func:`repro.core.kernels.run_tiles`) spread one
  stage's array work over every core;
* ``executor`` decides where the data-parallel inner loop of a transform
  — the shards a stage routes through ``StageContext.map_shards`` — runs.
  ``"thread"`` (the default) runs them inline on the calling thread;
  ``"process"`` moves them onto ``max_workers`` worker processes, the
  paper's farm model (a central store feeding independent
  reconstruction/search workers).  Transforms stay on the calling thread;
  large arrays cross the process boundary via shared memory and child
  telemetry is forwarded home in shard order.  ``max_workers`` sizes
  that process pool and decides nothing else.

Every worker count and shard executor gives the same bytes:

* every stage draws randomness from its own ``random.Random`` seeded from
  ``(run seed, stage name)`` when the transform first reads ``ctx.rng``,
  so no stage's stream depends on which other stages the flow holds;
* provenance record ids are reserved per stage in topological order
  before execution, so the lineage graph (ids, parent chains, stamps) is
  numbered the same whichever stages hit the cache;
* storage and CPU accounting are replayed over the completed stages in
  topological order, so ``peak_live_storage`` and every
  :class:`StageReport` row are views over one canonical event stream.

Accounting itself lives on the :mod:`repro.core.telemetry` substrate: the
replay emits a typed event stream (``flow.start``, ``stage.start/finish``,
``bytes.produced``, ``provenance.record``, ``flow.finish``, wrapped in
nested trace spans) and the :class:`FlowReport` is a *view* rebuilt from
that stream.  Because emission happens during the topological replay, a
process-farm or warm run's event log is byte-identical to a cold inline
run's — an event holds no host-clock reading — and a persisted JSONL log can
regenerate the report offline (see :func:`repro.core.telemetry.flow_summary_from_log`).

Passing a :class:`~repro.core.stagecache.StageCache` lets the engine skip
stages whose content address — flow, stage identity, per-stage seed,
declared ``cache_params``, and input provenance digests — matches a prior
execution.  A hit restores the recorded output, CPU charge, and stage
stash, then commits provenance and replays accounting exactly as if the
stage had run, so cached and uncached runs produce identical reports and
event logs.  Because the same byte-identical contract holds across shard
executors, a cache primed by an inline run services a process-farm rerun.

A stage's writes outside the flow (a database, an event store) are its
``Stage.replay``, which its transform calls where it writes.  For a hit
the scheduler calls it, without consulting the fault injector, after
publishing the stash and before the next stage starts: where a cold run
writes.  A raising replay fails the run naming the stage.

Failure handling rides the same determinism contract.  An armed
:class:`~repro.core.faults.FaultInjector` is consulted before every stage
attempt (``"crash"`` faults abort the attempt, ``"delay"`` faults charge
simulated stall); a :class:`~repro.core.recovery.RetryPolicy` — engine
default or per-stage override — bounds re-attempts with exponential
backoff charged to the simulated clock.  Exhausted retries produce a
:class:`~repro.core.recovery.DeadLetter` and either invoke the policy's
graceful-degradation fallback or abort the run.  All of it is recorded in
the per-stage result and *replayed* in topological order (``fault.injected``,
``stage.retry``, ``stage.degraded``, ``stage.dead_letter`` events), so
fault-injected runs are as replayable as clean ones.  The active fault
plan's digest salts every stage-cache key: results computed under
injection never service a clean run, and a crashed run's completed prefix
(already committed to the cache) replays byte-identically when the flow
is resumed — see :func:`repro.core.recovery.run_to_completion`.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple, Union

from repro.core.dataflow import DataFlow, Stage
from repro.core.dataset import Dataset
from repro.core.errors import (
    ExecutionError,
    InjectedFault,
    ProvenanceError,
    UnverifiableInputError,
)
from repro.core.faults import FaultInjector, FaultPlan, FaultRecord, delay_seconds
from repro.core.provenance import ProcessingStep, ProvenanceStore
from repro.core.recovery import NO_RETRY, DeadLetter, RetryPolicy
from repro.core.shards import ShardPool
from repro.core.stagecache import CachedStage, StageCache, shard_key, stage_key
from repro.core.telemetry import (
    Telemetry,
    TelemetryEvent,
    availability_from_log,
    peak_storage_from_log,
    stage_rows_from_log,
)
from repro.core.units import DataSize, Duration


def _stage_seed(run_seed: int, stage_name: str) -> int:
    """Stable per-stage RNG seed derived from the run seed and stage name.

    Uses SHA-256 rather than ``hash()`` so the derivation survives
    interpreter restarts (``PYTHONHASHSEED``) and is identical in every
    process that runs the stage.
    """
    digest = hashlib.sha256(f"{run_seed}\x1f{stage_name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _input_descriptor(dataset: Dataset) -> str:
    """Stable provenance description of one input dataset."""
    return f"{dataset.name}@{dataset.version}"


@dataclass
class StageReport:
    """Accounting for one executed stage."""

    name: str
    site: str
    input_size: DataSize
    output_size: DataSize
    cpu_time: Duration
    provenance_id: str
    #: Availability columns: how many attempts the stage took, the
    #: simulated backoff charged between them, and whether the output
    #: came from a graceful-degradation fallback.
    attempts: int = 1
    retry_wait: Duration = field(default_factory=Duration.zero)
    degraded: bool = False


@dataclass
class FlowReport:
    """Accounting for a whole flow run."""

    flow_name: str
    stages: List[StageReport] = field(default_factory=list)
    outputs: Dict[str, Dataset] = field(default_factory=dict)
    peak_live_storage: DataSize = field(default_factory=DataSize.zero)
    provenance: Optional[ProvenanceStore] = field(default=None, repr=False)
    #: The substrate this run emitted into, and the run's own event slice.
    #: ``summary_rows()`` and friends are views over ``events`` — a
    #: persisted copy of the slice regenerates the report offline.
    telemetry: Optional[Telemetry] = field(default=None, repr=False)
    events: List[TelemetryEvent] = field(default_factory=list, repr=False)
    #: Per-stage out-of-band results: ``{stage name: ctx.stash mapping}``.
    #: Pipelines publish side-channel state (ground truth, domain objects)
    #: here instead of into closures, which is what lets a cache hit
    #: restore everything a warm rerun's post-processing needs.
    stashes: Dict[str, Mapping[str, object]] = field(
        default_factory=dict, repr=False
    )
    #: Which stages actually ran vs. replayed from the stage cache, in
    #: topological order.  Deliberately *not* part of the telemetry event
    #: slice: the cache contract is that warm and cold runs emit
    #: byte-identical logs, so cache provenance lives on the
    #: report object only (incremental runs use it to pin what recomputed).
    executed_stages: List[str] = field(default_factory=list, repr=False)
    cached_stages: List[str] = field(default_factory=list, repr=False)

    @property
    def total_cpu_time(self) -> Duration:
        return Duration(sum(stage.cpu_time.seconds for stage in self.stages))

    @property
    def total_output(self) -> DataSize:
        return DataSize(sum(stage.output_size.bytes for stage in self.stages))

    def stage(self, name: str) -> StageReport:
        for report in self.stages:
            if report.name == name:
                return report
        raise KeyError(f"no stage report named {name!r}")

    def processors_needed(self, realtime: Duration) -> float:
        """How many CPUs keep up with this flow arriving every ``realtime``.

        This reproduces the paper's "about 50 to 200 processors would be
        needed to keep up with the flow of data" style of estimate: total
        simulated CPU time divided by the wall-clock window in which the
        next batch of data arrives.
        """
        if realtime.seconds == 0:
            return float("inf")
        return self.total_cpu_time.seconds / realtime.seconds

    def summary_rows(self) -> List[Dict[str, object]]:
        """Tabular stage summary (used by benchmarks and EXPERIMENTS.md)."""
        return [
            {
                "stage": report.name,
                "site": report.site,
                "in": str(report.input_size),
                "out": str(report.output_size),
                "cpu": str(report.cpu_time),
                "attempts": report.attempts,
                "wait": str(report.retry_wait),
                "degraded": report.degraded,
            }
            for report in self.stages
        ]

    def availability(self) -> Dict[str, object]:
        """Flow availability accounting, regenerated from this run's log."""
        return availability_from_log(self.events)


class StageContext:
    """Facilities the engine hands to each stage transform."""

    def __init__(
        self,
        stage: Stage,
        engine: "Engine",
        provenance: ProvenanceStore,
        stashes: Optional[Mapping[str, Mapping[str, object]]] = None,
        faults: Optional[FaultInjector] = None,
        flow_name: str = "",
    ):
        self.stage = stage
        self.engine = engine
        self.provenance = provenance
        self._rng: Optional[random.Random] = None
        #: Name of the flow this stage runs in; namespaces shard-cache keys.
        self.flow_name = flow_name
        #: The run's armed fault injector, or None.  Transforms fire it and
        #: :meth:`record_faults` for fine-grained degradation decisions
        #: (drop a beam, serve stale data) below stage granularity.
        self.faults = faults
        #: Out-of-band results this stage publishes for ancestors-agnostic
        #: consumers: downstream stages (via :meth:`dep_stash`), the final
        #: FlowReport (``report.stashes``), and the stage cache.  Treat the
        #: mapping as frozen once the transform returns.
        self.stash: Dict[str, object] = {}
        self._stashes = stashes if stashes is not None else {}
        self._extra_cpu_seconds = 0.0
        self._fault_records: List[FaultRecord] = []

    @property
    def rng(self) -> random.Random:
        """This attempt's ``random.Random``, seeded from ``(run seed, stage
        name)`` on first read: a transform that draws nothing pays for no
        seeding, and every attempt starts from the same stream."""
        if self._rng is None:
            self._rng = random.Random(_stage_seed(self.engine._seed, self.stage.name))
        return self._rng

    def charge_cpu(self, duration: Duration) -> None:
        """Let a stage report extra simulated CPU work beyond the size model."""
        self._extra_cpu_seconds += duration.seconds

    def map_shards(self, fn, items, cache_keys=None, cache_params=None):
        """Fan ``fn`` out over ``items`` on the run's shard pool.

        The engine opens one :class:`~repro.core.shards.ShardPool` at the
        start of each run and builds every context inside that run, so
        this calls the pool directly; ``ShardPool(1)`` is the inline path.
        The transform itself stays on the calling thread (it closes over
        live pipeline state): what ``executor="process"`` with
        ``max_workers > 1`` moves to worker processes is this call, the
        data-parallel inner loop.  Results return in item order either
        way, so a transform that merges positionally stays byte-identical
        across inline and process runs.  Under ``executor="process"``,
        ``fn`` and each item must be picklable (module-level functions,
        plain data); how an item crosses — large arrays through shared
        memory — is the pool's business, and telemetry the shards emit is
        forwarded home in item order.

        With ``cache_keys`` (one stable descriptor string per item) and an
        attached engine stage cache, each shard result is memoized under a
        :func:`~repro.core.stagecache.shard_key` content address: items
        seen in a prior run (or a prior incremental window) replay from the
        cache and only never-seen items are computed.  The descriptor must
        cover everything the shard's result depends on beyond
        ``cache_params`` (which should pin the pipeline configuration) —
        seeds, item identity, neighbour-dependent inputs.  Shard traffic is
        counted in ``stage_cache.shard_hits``/``shard_misses``, apart from
        whole-stage hits.

        A memoized result must not be mutated once this returns: the cache
        keeps the object itself, and a later run's (or window's) shard hit
        hands out the same one.
        """
        if cache_keys is not None:
            items, cache_keys = list(items), list(cache_keys)
            if len(cache_keys) != len(items):
                raise ExecutionError(
                    self.stage.name,
                    f"map_shards: {len(items)} items but {len(cache_keys)} cache keys",
                )
        if cache_keys is None or self.engine.cache is None:
            return self.engine._shard_pool.map(fn, items)
        # A shard key is only as stable as the function's name: lambdas and
        # nested functions share one ``<locals>`` qualname per transform, and
        # a ``functools.partial`` has none (its repr embeds an address).
        qualname = getattr(fn, "__qualname__", "")
        if not qualname or "<lambda>" in qualname or "<locals>" in qualname:
            raise ExecutionError(
                self.stage.name,
                f"map_shards: cache_keys needs a module-level function, got {fn!r}",
            )
        fault_digest = (
            self.engine.faults.digest if self.engine.faults is not None else ""
        )
        keys = [
            shard_key(
                flow_name=self.flow_name,
                stage_name=self.stage.name,
                fn_name=f"{fn.__module__}.{qualname}",
                item_descriptor=descriptor,
                cache_params=cache_params,
                fault_digest=fault_digest,
            )
            for descriptor in cache_keys
        ]
        cache = self.engine.cache
        results: List[object] = []
        missing: List[int] = []
        for index, key in enumerate(keys):
            entry = cache.lookup_shard(key)
            if entry is None:
                missing.append(index)
                results.append(None)
            else:
                results.append(entry.value)
        if missing:
            computed = self.engine._shard_pool.map(fn, [items[i] for i in missing])
            for index, value in zip(missing, computed):
                cache.store_shard(keys[index], value)
                results[index] = value
        return results

    def record_faults(self, records: List[FaultRecord]) -> None:
        """Fold already-fired records into this stage's accounting.

        For transforms that evaluate injection points below stage
        granularity (per beam, per item): fire via ``ctx.faults.fire(...)``
        in the transform, before any fan-out, then record the results here
        in deterministic (input) order.
        """
        self._fault_records.extend(records)

    def dep_stash(self, stage_name: str) -> Mapping[str, object]:
        """The stash a completed ancestor stage published.

        Available for any stage earlier in topological order (the engine
        registers a stage's stash before the next stage starts); cached
        stages restore their recorded stash, so hits and real executions
        are indistinguishable here.
        """
        try:
            return self._stashes[stage_name]
        except KeyError:
            raise ExecutionError(
                self.stage.name, f"no stash published by stage {stage_name!r}"
            ) from None

    @property
    def extra_cpu(self) -> Duration:
        return Duration(self._extra_cpu_seconds)


class Engine:
    """Topological executor with accounting: one thread runs every stage.

    Parameters
    ----------
    provenance:
        Shared provenance store; one is created if not supplied.
    seed:
        Run seed.  Each stage gets its own ``random.Random`` (``ctx.rng``)
        seeded from ``(seed, stage name)``, keeping stochastic pipelines
        reproducible under any execution order.
    max_workers:
        How many worker processes run a stage's shards under
        ``executor="process"``; it decides nothing else.  Stages always
        run one at a time on the calling thread.
    executor:
        Where ``StageContext.map_shards`` runs a transform's shards: on
        the run's :class:`~repro.core.shards.ShardPool`, which ``run``
        opens before the first stage and closes at its end — with
        ``"thread"`` inline on the calling thread, with ``"process"`` on
        ``max_workers`` worker processes (inline when ``max_workers`` is
        1).
    telemetry:
        The substrate runs emit into.  Each engine owns a private
        :class:`~repro.core.telemetry.Telemetry` by default, so a run's
        event log starts at sequence 0 and is reproducible — pass a shared
        instance to interleave several flows into one stream.
    cache:
        Optional :class:`~repro.core.stagecache.StageCache`.  When
        supplied, each stage is looked up by its content address before
        execution; hits restore the recorded result (output, CPU charge,
        stash) and run the stage's ``replay`` instead of its transform,
        while provenance, accounting, and telemetry replay identically to
        a real execution.
        Share one cache across engines to make whole reruns warm.
    retry:
        Run-wide default :class:`~repro.core.recovery.RetryPolicy`;
        per-stage ``Stage.retry`` overrides it.  ``None`` means no
        retry: a stage failure aborts the run on the first attempt.
    faults:
        A :class:`~repro.core.faults.FaultPlan` (armed privately) or an
        already-armed :class:`~repro.core.faults.FaultInjector` (shared —
        the resume idiom, and how pipelines aim one plan at their
        storage/transport shims too).  The plan digest salts every
        stage-cache key.
    """

    def __init__(
        self,
        provenance: Optional[ProvenanceStore] = None,
        seed: int = 0,
        max_workers: int = 1,
        telemetry: Optional[Telemetry] = None,
        cache: Optional[StageCache] = None,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[Union[FaultPlan, FaultInjector]] = None,
        executor: str = "thread",
    ):
        if max_workers < 1:
            raise ExecutionError("engine", f"max_workers must be >= 1, got {max_workers}")
        if executor not in ("thread", "process"):
            raise ExecutionError(
                "engine",
                f"executor must be 'thread' or 'process', got {executor!r}",
            )
        self.provenance = provenance if provenance is not None else ProvenanceStore()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.cache = cache
        self.retry = retry if retry is not None else NO_RETRY
        if isinstance(faults, FaultPlan):
            faults = faults.arm()
        self.faults: Optional[FaultInjector] = faults
        #: Dead letters this engine produced, in topological order: a
        #: degraded stage appends its letter when it completes, hit or
        #: miss; an aborting run appends the letter of the failure it
        #: raises.
        self.dead_letters: List[DeadLetter] = []
        self._seed = seed
        self._max_workers = int(max_workers)
        self._executor = executor
        #: The run's shard pool: open from the start of ``run`` to its end,
        #: the one place ``StageContext.map_shards`` fans out.
        self._shard_pool: Optional[ShardPool] = None

    def run(
        self,
        flow: DataFlow,
        inputs: Optional[Mapping[str, Dataset]] = None,
    ) -> FlowReport:
        """Execute ``flow`` and return its :class:`FlowReport`.

        ``inputs`` optionally maps *source stage names* to seed datasets;
        source stages receive them under the key ``"input"``.  Seed
        datasets count toward live storage from the start of the run until
        their consumer stage completes (externally-fed data occupies disk
        just as stage outputs do).  A key that is not a source stage of
        ``flow`` raises :class:`ExecutionError` before any stage runs.
        """
        flow.validate()
        order = flow.topological_order()
        seeds = self._seed_datasets(flow, order, inputs)
        # Reserve every stage's provenance id up front, in topological
        # order: the lineage graph is numbered the same whichever stages
        # hit the cache, run, or never start.
        reserved = {name: self.provenance.reserve_id() for name in order}
        # The adjacency, copied once per run: the scheduler, the commits and
        # the replay read these lists instead of asking the flow per stage.
        predecessors = {name: flow.predecessors(name) for name in order}
        successors = {name: flow.successors(name) for name in order}
        stashes: Dict[str, Mapping[str, object]] = {}
        outputs, records, input_bytes, cached = self._execute(
            flow, order, seeds, reserved, stashes, predecessors
        )
        return self._build_report(
            flow, order, seeds, reserved, outputs, records, input_bytes, cached,
            stashes, predecessors, successors,
        )

    # -- execution ---------------------------------------------------------
    @staticmethod
    def _seed_datasets(
        flow: DataFlow,
        order: List[str],
        inputs: Optional[Mapping[str, Dataset]],
    ) -> Dict[str, Dataset]:
        """Seed datasets keyed by the source stage that consumes them; a key
        that names no source stage is refused before anything runs."""
        if not inputs:
            return {}
        sources = flow.sources()
        misplaced = sorted(set(inputs) - set(sources))
        if misplaced:
            raise ExecutionError(
                "engine",
                f"inputs {misplaced} name no source stage of flow {flow.name!r} "
                f"(its sources: {sources})",
            )
        return {name: inputs[name] for name in order if name in inputs}

    def _attempt_stage(
        self,
        flow: DataFlow,
        stage: Stage,
        stage_inputs: Mapping[str, Dataset],
        stashes: Mapping[str, Mapping[str, object]],
        faults: List[FaultRecord],
        fallback=None,
    ) -> Tuple[Dataset, StageContext]:
        """One attempt: consult the injector, then run the transform.

        Injected faults fire *before* the transform executes (a scheduler
        or environment failure, not a mid-write one), so a failed attempt
        leaves no partial side effects behind for the retry to trip over.
        ``"delay"`` faults are recorded and charged by the caller.

        ``fallback`` (called like a transform) stands in for the stage on
        the degraded last attempt, which is not a scheduled attempt: the
        injector is not consulted for it.
        """
        name = stage.name
        context = StageContext(
            stage, self, self.provenance, stashes, faults=self.faults,
            flow_name=flow.name,
        )
        if self.faults is not None and fallback is None:
            try:
                faults.extend(
                    self.faults.check("stage", f"{flow.name}/{name}", stage.site)
                )
            except InjectedFault as exc:
                if exc.record is not None:
                    faults.append(exc.record)
                raise
        output = (fallback or stage.fn)(stage_inputs, context)
        faults.extend(context._fault_records)
        if not isinstance(output, Dataset):
            raise ExecutionError(
                name,
                f"{'fallback' if fallback else 'stage'} returned "
                f"{type(output).__name__}, expected Dataset",
            )
        return output, context

    def _run_stage(
        self,
        flow: DataFlow,
        stage: Stage,
        stage_inputs: Mapping[str, Dataset],
        stashes: Mapping[str, Mapping[str, object]],
    ) -> Tuple[Dataset, CachedStage]:
        """Run one stage under its retry policy; account every attempt.

        Each attempt gets a fresh context and the *same* per-stage RNG
        seed, so the attempt that finally succeeds is byte-identical to
        a first-try success.  Backoff accumulates into the record as
        simulated stall, replayed onto the clock during accounting.  A
        fatal exhaustion appends its dead letter to ``dead_letters`` and
        raises, which ends the run.
        """
        name = stage.name
        policy = stage.retry if stage.retry is not None else self.retry
        faults: List[FaultRecord] = []
        wait_seconds = 0.0
        attempt = 0
        letter: Optional[DeadLetter] = None
        while True:
            attempt += 1
            try:
                output, context = self._attempt_stage(
                    flow, stage, stage_inputs, stashes, faults
                )
                break
            except Exception as exc:  # noqa: BLE001 - classified below
                error = exc
            if attempt < policy.max_attempts:
                wait_seconds += policy.delay_for(attempt)
                continue
            # Retries exhausted: dead-letter, then degrade or abort.
            letter = DeadLetter(
                flow=flow.name,
                stage=name,
                site=stage.site,
                attempts=attempt,
                error=str(error),
                retry_wait_s=wait_seconds,
                degraded=policy.fallback is not None,
            )

            def degrade(inputs: Mapping[str, Dataset], context: StageContext):
                try:
                    return policy.fallback(inputs, context, error)
                except Exception as exc:  # noqa: BLE001 - wrap with stage identity
                    raise ExecutionError(
                        name, f"fallback failed after {attempt} attempts: {exc}"
                    ) from exc

            try:
                if policy.fallback is None:
                    if isinstance(error, ExecutionError):
                        raise error
                    after = "" if attempt == 1 else f" (after {attempt} attempts)"
                    raise ExecutionError(name, f"{error}{after}") from error
                output, context = self._attempt_stage(
                    flow, stage, stage_inputs, stashes, faults, fallback=degrade
                )
                break
            except ExecutionError:
                self.dead_letters.append(letter)
                raise
        return output, CachedStage.capture(
            output,
            context.extra_cpu.seconds,
            context.stash,
            attempts=attempt,
            retry_wait_seconds=wait_seconds + delay_seconds(faults),
            degraded=letter is not None,
            fault_attrs=[record.as_attrs() for record in faults],
            dead_letter_attrs=letter.as_attrs() if letter is not None else None,
        )

    # -- stage cache -------------------------------------------------------
    def _cache_descriptor(self, slot: str, dataset: Dataset) -> str:
        """Content description of one stage input for cache keying.

        Extends the provenance descriptor (name@version) with the input's
        stamp digest and exact byte size: the digest covers the entire
        upstream derivation history (the paper's MD5-comparison test), and
        the size catches seed datasets fed from outside the flow, which
        carry no stamp.

        Two different cases must not be conflated: a dataset with *no*
        provenance id is a legitimate seed fed from outside the flow
        (keyed ``"unstamped"``); a dataset that *claims* an id whose
        digest cannot be resolved has a broken lineage, and keying it
        ``"unstamped"`` too would let two different datasets collide onto
        one cache key.  The latter raises
        :class:`~repro.core.errors.UnverifiableInputError` — the lookup
        path treats the stage as uncacheable and counts the event.
        """
        if dataset.provenance_id is None:
            digest = "unstamped"
        else:
            try:
                digest = self.provenance.digest_of(dataset.provenance_id)
            except ProvenanceError as exc:
                raise UnverifiableInputError(
                    f"input {slot!r} ({_input_descriptor(dataset)}) claims "
                    f"provenance id {dataset.provenance_id!r} but its stamp "
                    f"digest cannot be resolved: {exc}"
                ) from exc
        return f"{slot}={_input_descriptor(dataset)}#{digest}:{dataset.size.bytes!r}"

    def _cache_lookup(
        self,
        flow: DataFlow,
        stage: Stage,
        stage_inputs: Mapping[str, Dataset],
    ) -> Tuple[Optional[str], Optional[CachedStage]]:
        """Try to service a stage from the cache.

        Returns ``(key, entry)``: key is None when no cache is attached
        or the stage is uncacheable (an input's stamp digest cannot be
        resolved — such stages always execute and are never stored);
        entry is None on a miss.
        """
        if self.cache is None:
            return None, None
        try:
            descriptors = [
                self._cache_descriptor(slot, dataset)
                for slot, dataset in stage_inputs.items()
            ]
        except UnverifiableInputError:
            self.cache.registry.counter("stage_cache.unverified_inputs").inc()
            return None, None
        key = stage_key(
            flow_name=flow.name,
            stage_name=stage.name,
            site=stage.site,
            cpu_seconds_per_gb=stage.cpu_seconds_per_gb,
            stage_seed=_stage_seed(self._seed, stage.name),
            input_descriptors=descriptors,
            cache_params=stage.cache_params,
            fault_digest=self.faults.digest if self.faults is not None else "",
        )
        return key, self.cache.lookup(key)

    def _commit(
        self,
        stage: Stage,
        stage_inputs: Mapping[str, Dataset],
        output: Dataset,
        reserved: Mapping[str, str],
        predecessors: List[str],
    ) -> None:
        """Record provenance for a completed stage.

        Runs before the next stage starts, so downstream transforms see
        their inputs' ``provenance_id``.
        """
        name = stage.name
        step = ProcessingStep.create(
            module=name,
            version=output.version,
            params={"site": stage.site},
            inputs=sorted(_input_descriptor(ds) for ds in stage_inputs.values()),
        )
        parents = [reserved[pred] for pred in predecessors]
        record = self.provenance.record(
            artifact=output.name,
            step=step,
            parents=parents,
            record_id=reserved[name],
        )
        output.provenance_id = record.record_id

    def _execute(
        self,
        flow: DataFlow,
        order: List[str],
        seeds: Mapping[str, Dataset],
        reserved: Mapping[str, str],
        stashes: Dict[str, Mapping[str, object]],
        predecessors: Mapping[str, List[str]],
    ) -> Tuple[
        Dict[str, Dataset], Dict[str, CachedStage], Dict[str, float], Set[str]
    ]:
        """The scheduler: returns live outputs, per-stage records, each
        stage's input bytes, and the names serviced from the cache.

        Stages run one at a time on the calling thread, in topological
        order, so every predecessor has committed before its successor
        starts.  A hit completes here, its replay included; a miss runs its
        transform here.  The first failure — a stage's, or a hit's raising
        replay — ends the run: the stages before it stay committed (and
        stored), and nothing after it starts.  The shard pool is closed
        before this returns or raises.
        """
        stages = flow.stages
        outputs: Dict[str, Dataset] = {}
        records: Dict[str, CachedStage] = {}
        input_bytes: Dict[str, float] = {}
        cached: Set[str] = set()
        self._shard_pool = ShardPool(
            self._max_workers if self._executor == "process" else 1
        )
        try:
            for name in order:
                stage = stages[name]
                stage_inputs = {pred: outputs[pred] for pred in predecessors[name]}
                if not stage_inputs and name in seeds:
                    stage_inputs = {"input": seeds[name]}
                key, entry = self._cache_lookup(flow, stage, stage_inputs)
                if entry is not None:
                    cached.add(name)
                    output, record = entry.rebuild_output(), entry
                else:
                    output, record = self._run_stage(flow, stage, stage_inputs, stashes)
                self._commit(stage, stage_inputs, output, reserved, predecessors[name])
                outputs[name] = output
                records[name] = record
                input_bytes[name] = sum(ds.size.bytes for ds in stage_inputs.values())
                # The record is shared with the cache (and through it with
                # later runs); each run hands out its own copy of the stash.
                stashes[name] = dict(record.stash)
                if entry is None:
                    if key is not None:
                        self.cache.store(key, record)
                elif stage.replay is not None:
                    context = StageContext(
                        stage, self, self.provenance, stashes, flow_name=flow.name
                    )
                    context.stash = stashes[name]
                    try:
                        stage.replay(context)
                    except Exception as exc:  # noqa: BLE001 - wrap with stage identity
                        raise ExecutionError(name, f"replay failed: {exc}") from exc
                if record.degraded:
                    self.dead_letters.append(DeadLetter(**record.dead_letter_attrs))  # type: ignore[arg-type]
        finally:
            shards, self._shard_pool = self._shard_pool, None
            shards.close()
        return outputs, records, input_bytes, cached

    # -- accounting --------------------------------------------------------
    def _build_report(
        self,
        flow: DataFlow,
        order: List[str],
        seeds: Mapping[str, Dataset],
        reserved: Mapping[str, str],
        outputs: Mapping[str, Dataset],
        records: Mapping[str, CachedStage],
        input_bytes: Mapping[str, float],
        cached: Set[str],
        stashes: Mapping[str, Mapping[str, object]],
        predecessors: Mapping[str, List[str]],
        successors: Mapping[str, List[str]],
    ) -> FlowReport:
        """Replay accounting over completed stages in topological order,
        emitting the telemetry event stream, then rebuild the report as a
        view over that stream — identical output for any shard executor."""
        telemetry = self.telemetry
        metrics = telemetry.registry
        stages_run = metrics.counter("engine.stages")
        bytes_produced = metrics.counter("engine.bytes_produced")
        cpu_charged = metrics.counter("engine.cpu_seconds")
        peak_live = metrics.highwater("engine.peak_live_bytes")
        stages = flow.stages
        start_index = len(telemetry)
        # Reference counts drive the live-storage high-water accounting: a
        # stage output stays "on disk" until every consumer has run, and a
        # seed dataset is live from the start until its consumer completes.
        remaining_consumers = {name: len(successors[name]) for name in order}
        live_bytes = sum(dataset.size.bytes for dataset in seeds.values())
        peak_bytes = live_bytes
        total_cpu_seconds = 0.0
        with telemetry.span(flow.name):
            telemetry.emit(
                "flow.start", flow.name, stages=len(order), seed_bytes=live_bytes
            )
            for name in order:
                stage = stages[name]
                record = records[name]
                artifact = outputs[name].name
                output_bytes = outputs[name].size.bytes
                input_size = DataSize(input_bytes[name])
                cpu_seconds = (
                    stage.cpu_seconds_per_gb * input_size.gb + record.extra_cpu_seconds
                )
                total_cpu_seconds += cpu_seconds

                with telemetry.span(name, site=stage.site):
                    telemetry.emit(
                        "stage.start",
                        name,
                        site=stage.site,
                        input_bytes=input_size.bytes,
                    )
                    for attrs in record.fault_attrs:
                        # ``kind`` is the event kind's parameter name, so
                        # the fault's own kind travels as ``fault_kind``.
                        fault_attrs = dict(attrs)
                        fault_attrs["fault_kind"] = fault_attrs.pop("kind")
                        telemetry.emit("fault.injected", name, **fault_attrs)
                        metrics.counter("engine.faults_injected").inc()
                    if record.attempts > 1:
                        telemetry.emit(
                            "stage.retry",
                            name,
                            site=stage.site,
                            attempts=record.attempts,
                            retries=record.attempts - 1,
                            retry_wait_s=record.retry_wait_seconds,
                        )
                        metrics.counter("engine.retries").inc(record.attempts - 1)
                    if record.retry_wait_seconds:
                        # Backoff and injected delays are simulated stall:
                        # they advance the clock without charging CPU.
                        telemetry.clock.advance(record.retry_wait_seconds)
                    telemetry.clock.advance(cpu_seconds)
                    live_bytes += output_bytes
                    peak_bytes = max(peak_bytes, live_bytes)
                    if name in seeds:
                        live_bytes -= seeds[name].size.bytes
                    for pred in predecessors[name]:
                        remaining_consumers[pred] -= 1
                        if remaining_consumers[pred] == 0:
                            live_bytes -= outputs[pred].size.bytes
                    telemetry.emit(
                        "bytes.produced",
                        name,
                        bytes=output_bytes,
                        artifact=artifact,
                    )
                    telemetry.emit(
                        "provenance.record",
                        name,
                        record_id=reserved[name],
                        artifact=artifact,
                        parents=[reserved[pred] for pred in predecessors[name]],
                    )
                    if record.degraded:
                        metrics.counter("engine.dead_letters").inc()
                        telemetry.emit(
                            "stage.degraded", name, site=stage.site,
                            attempts=record.attempts,
                        )
                        telemetry.emit("stage.dead_letter", name, **record.dead_letter_attrs)
                    telemetry.emit(
                        "stage.finish",
                        name,
                        site=stage.site,
                        input_bytes=input_size.bytes,
                        output_bytes=output_bytes,
                        cpu_seconds=cpu_seconds,
                        provenance_id=reserved[name],
                        live_bytes=live_bytes,
                        attempts=record.attempts,
                        retry_wait_s=record.retry_wait_seconds,
                        degraded=record.degraded,
                    )
                stages_run.inc()
                bytes_produced.inc(output_bytes)
                cpu_charged.inc(cpu_seconds)
                peak_live.observe(peak_bytes)
            telemetry.emit(
                "flow.finish",
                flow.name,
                stages=len(order),
                peak_bytes=peak_bytes,
                total_cpu_seconds=total_cpu_seconds,
            )

        # The report is a *view* over the event slice this run emitted:
        # every StageReport row and the high-water mark are read back from
        # the log, so a persisted copy regenerates the report exactly.
        run_events = telemetry.events(start_index)
        report = FlowReport(
            flow_name=flow.name,
            provenance=self.provenance,
            telemetry=telemetry,
            events=run_events,
        )
        for row in stage_rows_from_log(run_events):
            report.stages.append(
                StageReport(
                    name=str(row["name"]),
                    site=str(row["site"]),
                    input_size=DataSize(float(row["input_bytes"])),
                    output_size=DataSize(float(row["output_bytes"])),
                    cpu_time=Duration(float(row["cpu_seconds"])),
                    provenance_id=str(row["provenance_id"]),
                    attempts=int(row["attempts"]),  # type: ignore[arg-type]
                    retry_wait=Duration(float(row["retry_wait_s"])),  # type: ignore[arg-type]
                    degraded=bool(row["degraded"]),
                )
            )
        report.outputs = {name: outputs[name] for name in flow.sinks()}
        report.stashes = dict(stashes)
        report.peak_live_storage = peak_storage_from_log(run_events)
        report.executed_stages = [name for name in order if name not in cached]
        report.cached_stages = [name for name in order if name in cached]
        return report
