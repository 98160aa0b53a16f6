"""Recovery: per-stage retry policies, dead letters, checkpoint/resume.

The paper's flows survive their environments by retrying (reshipped
disks, re-derived CLEO products) and by degrading gracefully (a dropped
beam, a stale WebLab preload) rather than aborting a survey over one bad
component.  This module holds the policy side of that story; the engine
(:mod:`repro.core.engine`) enforces it around every stage attempt.

* :class:`RetryPolicy` — bounded attempts with exponential backoff.
  Backoff is charged to the *simulated* clock (the telemetry
  ``SimClock``), so retry overhead shows up in flow accounting exactly
  like CPU time does, and runs stay wall-clock-free and replayable.
* A policy may carry a ``fallback``: a graceful-degradation hook invoked
  when attempts are exhausted.  The stage's report row is then marked
  ``degraded`` and a :class:`DeadLetter` records the original failure.
* :class:`DeadLetter` — the record of exhausted retries, one per
  abandoned stage, listed on the engine (``dead_letters``) and emitted
  as ``stage.dead_letter`` telemetry.
* :func:`run_to_completion` — the checkpoint/resume driver: make a run,
  and on a crash make it again against the same :class:`StageCache` and the
  same armed :class:`~repro.core.faults.FaultInjector`.  Completed
  stages replay from cache with byte-identical accounting (the replayed
  prefix), exhausted transient faults do not re-fire, and the flow makes
  forward progress each restart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple, TypeVar

from repro.core.errors import ExecutionError, FaultError

#: Signature of a graceful-degradation hook: ``(stage_inputs, context,
#: error) -> Dataset``.  Runs in a fresh StageContext after the last
#: failed attempt; whatever it returns flows downstream as the stage
#: output, flagged ``degraded`` in every report row.
FallbackFn = Callable[[Mapping[str, object], object, Exception], object]

Report = TypeVar("Report")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff on the simulated clock.

    ``delay_for(attempt)`` is the backoff charged *after* failed attempt
    ``attempt`` (1-based): ``backoff_base_s * backoff_factor**(attempt-1)``
    capped at ``max_backoff_s``.  ``max_attempts=1`` disables retry
    entirely (the engine default).
    """

    max_attempts: int = 3
    backoff_base_s: float = 30.0
    backoff_factor: float = 2.0
    max_backoff_s: float = 3600.0
    fallback: Optional[FallbackFn] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FaultError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base_s < 0:
            raise FaultError("backoff_base_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise FaultError("backoff_factor must be >= 1")
        if self.max_backoff_s < 0:
            raise FaultError("max_backoff_s must be >= 0")

    def delay_for(self, attempt: int) -> float:
        """Simulated backoff seconds after failed attempt ``attempt``."""
        if attempt < 1:
            raise FaultError(f"attempt numbers are 1-based, got {attempt}")
        return min(
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
            self.max_backoff_s,
        )

    def __repr__(self) -> str:
        # Stable across processes: the fallback is rendered by name, not
        # by object identity, because this repr feeds stage-cache keys
        # through pipeline config fingerprints.
        fallback = getattr(self.fallback, "__qualname__", None) if self.fallback else None
        return (
            "RetryPolicy("
            f"max_attempts={self.max_attempts}, "
            f"backoff_base_s={self.backoff_base_s!r}, "
            f"backoff_factor={self.backoff_factor!r}, "
            f"max_backoff_s={self.max_backoff_s!r}, "
            f"fallback={fallback!r})"
        )


#: Policy preset that never retries (and never falls back).
NO_RETRY = RetryPolicy(max_attempts=1, backoff_base_s=0.0)


@dataclass(frozen=True)
class DeadLetter:
    """One abandoned stage: retries exhausted, failure preserved."""

    flow: str
    stage: str
    site: str
    attempts: int
    error: str
    retry_wait_s: float = 0.0
    degraded: bool = False

    def as_attrs(self) -> Dict[str, object]:
        """Telemetry-attribute form of the record."""
        return {
            "flow": self.flow,
            "stage": self.stage,
            "site": self.site,
            "attempts": self.attempts,
            "error": self.error,
            "retry_wait_s": self.retry_wait_s,
            "degraded": self.degraded,
        }


def run_to_completion(
    attempt: Callable[[], Report], max_restarts: int = 3
) -> Tuple[Report, int]:
    """Drive a flow to completion across engine crashes: the resume loop.

    ``attempt`` makes one run — ``Engine.run`` on a fresh engine, or a
    whole ``run_*_pipeline`` call; to get checkpoint/resume semantics
    every attempt must be handed the *same*
    :class:`~repro.core.stagecache.StageCache` and the same armed
    :class:`~repro.core.faults.FaultInjector` (same fault digest, same
    exhausted fire budgets).  Stages the crashed run completed were
    committed to the cache as they finished, so the resumed run replays
    that prefix — byte-identical accounting — and first executes the
    stage that failed.

    Returns ``(report, restarts)`` where ``restarts`` counts the crashed
    runs before the one that completed.  Raises the final
    :class:`ExecutionError` once ``max_restarts`` is exhausted.
    """
    if max_restarts < 0:
        raise FaultError(f"max_restarts must be >= 0, got {max_restarts}")
    restarts = 0
    while True:
        try:
            return attempt(), restarts
        except ExecutionError:
            if restarts >= max_restarts:
                raise
            restarts += 1


@dataclass
class AvailabilitySummary:
    """Flow-level availability accounting (the C17 experiment's columns)."""

    stages: int = 0
    completed: int = 0
    degraded: int = 0
    dead_letters: int = 0
    attempts: int = 0
    faults_injected: int = 0
    retry_wait_s: float = 0.0

    @property
    def completion_rate(self) -> float:
        """Fraction of stages that produced a non-degraded result."""
        if self.stages == 0:
            return 1.0
        return (self.completed - self.degraded) / self.stages

    @property
    def retries(self) -> int:
        """Attempts beyond the first, summed over stages."""
        return self.attempts - self.completed

    def rows(self) -> List[Dict[str, object]]:
        return [
            {"metric": "availability.stages", "value": self.stages},
            {"metric": "availability.completed", "value": self.completed},
            {"metric": "availability.degraded", "value": self.degraded},
            {"metric": "availability.dead_letters", "value": self.dead_letters},
            {"metric": "availability.attempts", "value": self.attempts},
            {"metric": "availability.retries", "value": self.retries},
            {"metric": "availability.faults_injected", "value": self.faults_injected},
            {"metric": "availability.retry_wait_s", "value": self.retry_wait_s},
            {"metric": "availability.completion_rate", "value": self.completion_rate},
        ]
