"""Exception hierarchy shared across the library.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch a single base class at pipeline boundaries while still
being able to discriminate failures precisely.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class UnitError(ReproError, ValueError):
    """Invalid unit arithmetic or an unparseable quantity string."""


class DataflowError(ReproError):
    """Structural problem in a dataflow graph (cycle, unknown stage, ...)."""


class ExecutionError(ReproError):
    """A dataflow stage failed while the engine was running it."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage!r}: {message}")
        self.stage = stage


class ProvenanceError(ReproError):
    """Missing or inconsistent provenance information."""


class VersioningError(ReproError):
    """Invalid version identifier, grade, or snapshot request."""


class StorageError(ReproError):
    """Storage substrate failure (capacity exhausted, unknown file, ...)."""


class CapacityError(StorageError):
    """A storage medium or pool does not have room for a write."""


class IntegrityError(ReproError):
    """Checksum or fixity verification failed."""


class TelemetryError(ReproError):
    """Telemetry misuse: unknown event kind, malformed log, bad instrument."""


class KernelError(ReproError):
    """Batched numeric kernel misuse (bad shapes, degenerate inputs, ...)."""


class CacheError(ReproError):
    """Stage-result cache misuse (bad capacity, malformed entry, ...)."""


class UnverifiableInputError(CacheError):
    """A cache key cannot be computed because an input's stamp digest
    cannot be resolved.

    Raised when a dataset *claims* a provenance id but the provenance
    store cannot produce its digest: caching such a result would key two
    different datasets to the same ``"unstamped"`` descriptor.  The
    engine treats the stage as uncacheable and carries on.
    """


class ShardError(ReproError):
    """Shard-pool misuse (closed pool, bad worker count)."""


class FaultError(ReproError):
    """Fault-plan or retry-policy misuse (bad spec, invalid bounds, ...)."""


class InjectedFault(ReproError):
    """A deliberately injected failure fired at an injection site.

    Raised by fault-injector shims (engine stage attempts, storage and
    transport operations) when a ``"crash"`` fault fires.  Carries the
    spec name, the scope/target it struck, and the full
    :class:`~repro.core.faults.FaultRecord` for accounting.
    """

    def __init__(self, spec: str, scope: str, target: str, record: object = None):
        super().__init__(f"injected fault {spec!r} at {scope}:{target}")
        self.spec = spec
        self.scope = scope
        self.target = target
        self.record = record


class TransportError(ReproError):
    """Transfer planning or execution failure."""


class DatabaseError(ReproError):
    """Relational layer failure."""


class EventStoreError(ReproError):
    """EventStore API misuse or internal inconsistency."""


class MergeConflictError(EventStoreError):
    """A personal-store merge collided with existing collaboration data."""


class SearchError(ReproError):
    """Pulsar search pipeline failure (bad data shapes, empty input, ...)."""


class WebLabError(ReproError):
    """WebLab subsystem failure (malformed ARC/DAT records, ...)."""


class DuplicateCrawlError(WebLabError):
    """A crawl index was registered twice with conflicting metadata."""


class IncrementalError(ReproError):
    """Incremental-execution misuse: a malformed arrival schedule, a
    non-monotone watermark, or a window opened or closed out of turn."""


class WorkloadError(ReproError):
    """Workload-engine misuse: malformed spec or trace, unknown replay op,
    or non-monotone arrivals fed to admission control."""


class OpsError(ReproError):
    """Operations-console misuse: a corrupt interior log line, a malformed
    quality spec or alert rule, or a projection the store cannot serve."""
