"""Deterministic fault injection: declarative plans, seeded triggers, shims.

The paper's three flows are defined as much by how they fail as by how
they move bytes: Arecibo loses tapes and disk drives in the mail, CLEO
re-derives corrupted products from provenance, and the WebLab must ride
out crawler and preload stalls.  This module gives the reproduction one
declarative failure model instead of scattered ad-hoc damage knobs:

* a :class:`FaultSpec` names a *scope* (``"stage"``, ``"storage"``,
  ``"lane"``, ``"beam"``, ``"preload"``), a target pattern, a *kind*
  (``"crash"``, ``"delay"``, ``"corrupt"``, ``"drop"``, ``"stale"``),
  and trigger predicates over invocation count, site, simulated time,
  and a seeded per-target probability;
* a :class:`FaultPlan` is an ordered, digestable set of specs — the
  digest is folded into stage-cache keys so faulted runs never poison a
  warm cache primed without faults (or under a different plan);
* a :class:`FaultInjector` is one *armed* plan: it owns all mutable
  trigger state (per-target invocation counters, fire counts, RNG
  streams) so that two runs armed from the same plan fire identically,
  and a shared injector carried across a crash/resume boundary does not
  re-fire exhausted faults.

Determinism contract: every piece of injector state is keyed by
``(spec, target)``, and per-target RNG streams are seeded from
``(plan seed, spec name, target)`` with SHA-256.  However calls for
different targets interleave, each target sees the same sequence of
decisions, so fault-injected runs replay byte-identically.

Injection *sites* (the shims) live with the subsystems they wrap: the
engine consults the injector before each stage attempt (see
:mod:`repro.core.engine`), :class:`~repro.storage.tape.RoboticTapeLibrary`
and :class:`~repro.transport.sneakernet.ShippingLane` check their
operations, and pipelines make fine-grained checks with
``ctx.faults.fire`` + ``StageContext.record_faults`` (the Arecibo beam
cull, the WebLab stale preload).
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import FaultError, InjectedFault
from repro.core.telemetry import SimClock

#: Fault kinds with engine/shim interpretations.  The vocabulary is open
#: (shims interpret kinds they understand and ignore others), but these
#: are the ones wired in this library.
KNOWN_KINDS = ("crash", "delay", "corrupt", "drop", "stale")


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: where it strikes and when it triggers.

    Parameters
    ----------
    name:
        Unique name within a plan; seeds the spec's RNG streams and
        labels every record the fault leaves behind.
    scope:
        The class of injection site: ``"stage"`` (engine stage attempts,
        target ``"<flow>/<stage>"``), ``"storage"`` (tape/HSM operations,
        target = store name), ``"lane"`` (shipping/network lanes, target
        = lane/link name), or pipeline-defined scopes such as ``"beam"``
        and ``"preload"``.
    target:
        ``fnmatch`` pattern over the site's target string
        (``"arecibo-figure1/process"``, ``"*/ship"``, ``"ctc-*"``).
    kind:
        What happens on fire.  ``"crash"`` raises :class:`InjectedFault`
        at the site; ``"delay"`` charges ``param`` simulated seconds;
        ``"corrupt"``/``"drop"``/``"stale"`` are interpreted by the shim
        (corrupt media in transit, drop a beam, serve a stale preload).
    site:
        Optional ``fnmatch`` pattern over the site's declared location
        (stage sites like ``"CTC"``); ``""`` matches everywhere.
    first_invocation:
        The fault arms from this 1-based invocation of each matching
        target onward.
    max_fires:
        Per-target budget of fires; ``None`` means unlimited (a
        *permanent* fault — pair it with a fallback or expect a
        dead-letter).  The default of 1 models a transient glitch that a
        retry gets past.
    probability:
        Chance of firing per armed invocation, drawn from the spec's
        per-target seeded stream; 1.0 is deterministic.
    after_sim_time:
        Only fire once the injector's clock has reached this many
        simulated seconds (0.0 disables the predicate).
    param:
        Kind-specific magnitude: seconds for ``"delay"``, a fraction for
        ``"corrupt"``.
    """

    name: str
    scope: str
    target: str
    kind: str = "crash"
    site: str = ""
    first_invocation: int = 1
    max_fires: Optional[int] = 1
    probability: float = 1.0
    after_sim_time: float = 0.0
    param: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise FaultError("fault spec name must be non-empty")
        if not self.scope:
            raise FaultError(f"fault {self.name!r}: scope must be non-empty")
        if not self.target:
            raise FaultError(f"fault {self.name!r}: target pattern must be non-empty")
        if not self.kind:
            raise FaultError(f"fault {self.name!r}: kind must be non-empty")
        if self.first_invocation < 1:
            raise FaultError(
                f"fault {self.name!r}: first_invocation must be >= 1, "
                f"got {self.first_invocation}"
            )
        if self.max_fires is not None and self.max_fires < 1:
            raise FaultError(
                f"fault {self.name!r}: max_fires must be >= 1 or None, "
                f"got {self.max_fires}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise FaultError(
                f"fault {self.name!r}: probability must be within [0, 1], "
                f"got {self.probability}"
            )
        if self.after_sim_time < 0.0:
            raise FaultError(
                f"fault {self.name!r}: after_sim_time must be >= 0"
            )
        if self.param < 0.0:
            raise FaultError(f"fault {self.name!r}: param must be >= 0")

    def matches(self, scope: str, target: str, site: str = "") -> bool:
        """Structural match (scope, target pattern, site pattern)."""
        if scope != self.scope:
            return False
        if not fnmatch.fnmatchcase(target, self.target):
            return False
        if self.site and not fnmatch.fnmatchcase(site, self.site):
            return False
        return True

    def canonical(self) -> Dict[str, object]:
        """JSON-stable form, the unit of the plan digest."""
        return {
            "name": self.name,
            "scope": self.scope,
            "target": self.target,
            "kind": self.kind,
            "site": self.site,
            "first_invocation": self.first_invocation,
            "max_fires": self.max_fires,
            "probability": repr(self.probability),
            "after_sim_time": repr(self.after_sim_time),
            "param": repr(self.param),
        }


@dataclass(frozen=True)
class FaultRecord:
    """One fired fault: what struck, where, on which invocation."""

    spec: str
    scope: str
    target: str
    kind: str
    invocation: int
    param: float = 0.0

    def as_attrs(self) -> Dict[str, object]:
        """Telemetry-attribute form (also the cache snapshot form)."""
        return {
            "spec": self.spec,
            "scope": self.scope,
            "target": self.target,
            "kind": self.kind,
            "invocation": self.invocation,
            "param": self.param,
        }


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, seeded, digestable set of fault specs.

    Plans are immutable values: arm one (:meth:`arm`) to get the mutable
    runtime state.  The :meth:`digest` is the plan's content address —
    the engine folds it into every stage-cache key so results computed
    under one failure model are never replayed under another.
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        names = [spec.name for spec in self.specs]
        if len(set(names)) != len(names):
            duplicates = sorted({name for name in names if names.count(name) > 1})
            raise FaultError(f"duplicate fault spec names in plan: {duplicates}")

    def __len__(self) -> int:
        return len(self.specs)

    def digest(self) -> str:
        """SHA-256 over the canonical JSON form of seed + every spec."""
        payload = {
            "seed": self.seed,
            "specs": [spec.canonical() for spec in self.specs],
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def arm(self, clock: Optional[SimClock] = None) -> "FaultInjector":
        """Create the runtime injector for this plan."""
        return FaultInjector(self, clock=clock)


def _target_seed(plan_seed: int, spec_name: str, target: str) -> int:
    """Per-(spec, target) RNG seed; SHA-256 so it survives restarts."""
    blob = f"{plan_seed}\x1f{spec_name}\x1f{target}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


class FaultInjector:
    """One armed :class:`FaultPlan`: all mutable trigger state lives here.

    Every counter and RNG stream is keyed by ``(spec, target)``, so the
    decision sequence each target observes is independent of how calls
    for other targets interleave with its own.  Reusing one
    injector across a crash/resume boundary preserves fire budgets:
    a transient fault that already struck does not strike the resumed
    run again, which is exactly how checkpoint/resume makes progress.
    """

    def __init__(self, plan: FaultPlan, clock: Optional[SimClock] = None):
        self.plan = plan
        self.clock = clock
        self._invocations: Dict[Tuple[str, str], int] = {}
        self._fires: Dict[Tuple[str, str], int] = {}
        self._rngs: Dict[Tuple[str, str], random.Random] = {}
        #: Every record this injector ever produced, in fire order.  Used
        #: for operator-facing counts only — replayable streams take the
        #: records from the call sites, which own deterministic ordering.
        self.fired: List[FaultRecord] = []

    def __len__(self) -> int:
        return len(self.fired)

    @property
    def digest(self) -> str:
        return self.plan.digest()

    def _rng_for(self, key: Tuple[str, str]) -> random.Random:
        rng = self._rngs.get(key)
        if rng is None:
            rng = random.Random(_target_seed(self.plan.seed, key[0], key[1]))
            self._rngs[key] = rng
        return rng

    def fire(self, scope: str, target: str, site: str = "") -> List[FaultRecord]:
        """Evaluate one invocation of ``target``; return the faults that fire.

        Bumps the per-``(spec, target)`` invocation counter of every
        matching spec whether or not it fires, so triggers phrased as
        "the first N invocations" mean real invocations, not prior
        near-misses.
        """
        records: List[FaultRecord] = []
        now = self.clock.now if self.clock is not None else 0.0
        for spec in self.plan.specs:
            if not spec.matches(scope, target, site):
                continue
            key = (spec.name, target)
            invocation = self._invocations.get(key, 0) + 1
            self._invocations[key] = invocation
            if invocation < spec.first_invocation:
                continue
            if spec.max_fires is not None and self._fires.get(key, 0) >= spec.max_fires:
                continue
            if spec.after_sim_time and now < spec.after_sim_time:
                continue
            if spec.probability < 1.0 and not (
                self._rng_for(key).random() < spec.probability
            ):
                continue
            self._fires[key] = self._fires.get(key, 0) + 1
            record = FaultRecord(
                spec=spec.name,
                scope=scope,
                target=target,
                kind=spec.kind,
                invocation=invocation,
                param=spec.param,
            )
            records.append(record)
            self.fired.append(record)
        return records

    def check(self, scope: str, target: str, site: str = "") -> List[FaultRecord]:
        """Like :meth:`fire`, but raises on any ``"crash"`` fault.

        Non-crash records (delays, corruption directives) are returned to
        the caller for interpretation; the first crash wins and carries
        its record so handlers can account for it.
        """
        records = self.fire(scope, target, site)
        for record in records:
            if record.kind == "crash":
                raise InjectedFault(record.spec, scope, target, record=record)
        return records


def delay_seconds(records: Sequence[FaultRecord]) -> float:
    """Total simulated stall the ``"delay"`` faults in ``records`` demand."""
    return sum(record.param for record in records if record.kind == "delay")
