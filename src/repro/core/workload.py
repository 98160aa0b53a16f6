"""Trace-driven workload engine: seeded heavy traffic for the access surfaces.

The paper's three flows all end at an access surface — WebLab's retro
browser and subset views, the EventStore's mixed-grade reads, the
archive's recalls — and each of those surfaces lives or dies under *load*,
not under single calls.  This module generates that load the same way the
rest of the reproduction generates everything: seeded, simulated, and
replayable.

The pieces:

* a :class:`Trace` — a frozen, content-addressed stream of
  :class:`TraceRequest` arrivals on the sim clock, serializable to JSONL
  so the exact same traffic can be replayed against any policy or
  backend ("every new policy gets judged under the same replayable
  traffic", ROADMAP item 5);
* :func:`generate_trace` over a :class:`WorkloadSpec` — per-tenant
  Poisson arrival streams with **Zipfian key popularity**
  (:class:`ZipfianSampler`), **diurnal cycles** (:class:`DiurnalCycle`),
  and **burst storms** (:class:`BurstStorm`, the traffic-side sibling of
  the C13 content bursts), merged deterministically into one
  multi-tenant stream;
* a :class:`TraceReplayer` that drives a trace against handler callables
  (the service facades), advancing its telemetry bus's
  :class:`~repro.core.telemetry.SimClock` to each arrival and emitting
  one ``workload.request`` event per request — so two replays of the
  same trace produce byte-identical canonical telemetry;
* an :class:`AdmissionController` — a sim-time token bucket providing
  backpressure: requests beyond the configured service rate are turned
  away with a ``serve.rejected`` event and accounted, never silently
  dropped.

Determinism contract: everything observable — the trace bytes, the
telemetry stream, the accounting counters — is a pure function of the
:class:`WorkloadSpec` (including its seed).  Wall-clock only appears in
the replayer's *latency measurements*, which live in the
:class:`ReplayReport` (benchmark material) and never enter the event log.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.errors import WorkloadError
from repro.core.telemetry import Counter, Telemetry

_Param = Tuple[str, Union[str, int, float, bool, None]]


def _require_finite(what: str, value: float) -> None:
    """Refuse NaN and infinity before any range check: a NaN passes every
    ``<=`` test, and an infinite rate or duration never ends a trace."""
    if not math.isfinite(value):
        raise WorkloadError(f"{what} must be finite, got {value!r}")


# -- the trace ------------------------------------------------------------
@dataclass(frozen=True)
class TraceRequest:
    """One request arrival in a workload trace.

    ``arrival_s`` is simulated seconds from trace start; ``op`` names the
    access path being exercised (``browse``, ``events_for``, ``recall``,
    ...); ``key`` is the hot object the request asks for (a URL, a grade,
    a file name).  ``params`` carries any extra call arguments, frozen
    as sorted pairs so the request hashes stably.
    """

    seq: int
    arrival_s: float
    tenant: str
    op: str
    key: str
    params: Tuple[_Param, ...] = ()

    def param(self, name: str, default: object = None) -> object:
        for key, value in self.params:
            if key == name:
                return value
        return default

    def to_dict(self) -> Dict[str, object]:
        return {
            "seq": self.seq,
            "arrival_s": self.arrival_s,
            "tenant": self.tenant,
            "op": self.op,
            "key": self.key,
            "params": {key: value for key, value in self.params},
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, object]) -> "TraceRequest":
        """The request a parsed trace line describes; :class:`WorkloadError`
        unless ``seq`` is an integer, ``arrival_s`` a finite number,
        ``tenant``, ``op`` and ``key`` strings and ``params`` an object of
        scalars.  Nothing is coerced: :meth:`Trace.save` writes no other
        shape, so a coerced line would replay a request no trace held."""
        try:
            if not isinstance(record, Mapping):
                raise TypeError(f"expected an object, got {type(record).__name__}")
            params = record.get("params", {})
            if not isinstance(params, Mapping):
                raise TypeError(f"params is {type(params).__name__}, not an object")
            seq, arrival_s = record["seq"], record["arrival_s"]
            tenant, op, key = record["tenant"], record["op"], record["key"]
            if type(seq) is not int:  # a bool is an int to isinstance
                raise TypeError(f"seq is {type(seq).__name__}, not an integer")
            if type(arrival_s) not in (int, float) or not math.isfinite(arrival_s):
                raise TypeError(f"arrival_s is {arrival_s!r}, not a finite number")
            for name, value in (("tenant", tenant), ("op", op), ("key", key)):
                if type(value) is not str:
                    raise TypeError(f"{name} is {type(value).__name__}, not a string")
            for name, value in params.items():
                if type(value) not in (str, int, float, bool, type(None)):
                    raise TypeError(f"param {name!r} is {type(value).__name__}, not a scalar")
        except (KeyError, TypeError) as exc:
            raise WorkloadError(f"malformed trace record: {exc}") from exc
        return cls(seq=seq, arrival_s=float(arrival_s), tenant=tenant, op=op, key=key,
                   params=tuple(sorted(params.items())))


class Trace:
    """An ordered, replayable request stream with a content digest.

    Two generations from the same :class:`WorkloadSpec` produce traces
    whose :meth:`digest` — and whose :meth:`save`\\ d bytes — are
    identical; that identity is what makes policy comparisons fair.
    """

    def __init__(self, requests: Sequence[TraceRequest], name: str = "trace",
                 seed: int = 0, duration_s: float = 0.0):
        self.requests: Tuple[TraceRequest, ...] = tuple(requests)
        self.name = name
        self.seed = seed
        self.duration_s = float(duration_s)

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[TraceRequest]:
        return iter(self.requests)

    def ops(self) -> List[str]:
        """The distinct ops exercised, sorted."""
        return sorted({request.op for request in self.requests})

    def header(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "requests": len(self.requests),
        }

    def digest(self) -> str:
        """SHA-256 over the canonical JSON stream (header + requests)."""
        hasher = hashlib.sha256()
        hasher.update(json.dumps(self.header(), sort_keys=True).encode("utf-8"))
        for request in self.requests:
            hasher.update(b"\n")
            hasher.update(json.dumps(request.to_dict(), sort_keys=True).encode("utf-8"))
        return hasher.hexdigest()

    def save(self, path: Union[str, Path]) -> int:
        """Persist as JSONL (one header line, one line per request)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(self.header(), sort_keys=True) + "\n")
            for request in self.requests:
                handle.write(json.dumps(request.to_dict(), sort_keys=True) + "\n")
        return len(self.requests)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        path = Path(path)
        with path.open("r", encoding="utf-8") as handle:
            lines = ((number, line) for number, line in enumerate(handle, start=1)
                     if line.strip())
            first = next(lines, None)
            if first is None:
                raise WorkloadError(f"{path} holds no trace header")
            try:
                header = json.loads(first[1])
                if not isinstance(header, dict):
                    raise ValueError(f"expected an object, got {type(header).__name__}")
                # Refused, not coerced, like a request line: a coerced header
                # would name, seed or time a trace the file never held.
                name = header.get("name", "trace")
                seed = header.get("seed", 0)
                duration_s = header.get("duration_s", 0.0)
                if type(name) is not str:
                    raise ValueError(f"name is {type(name).__name__}, not a string")
                if type(seed) is not int:  # a bool is an int to isinstance
                    raise ValueError(f"seed is {type(seed).__name__}, not an integer")
                if type(duration_s) not in (int, float) or not math.isfinite(duration_s):
                    raise ValueError(f"duration_s is {duration_s!r}, not a finite number")
            except ValueError as exc:
                raise WorkloadError(f"{path}: bad trace header: {exc}") from exc
            requests = []
            for number, line in lines:
                try:
                    requests.append(TraceRequest.from_dict(json.loads(line)))
                except (ValueError, WorkloadError) as exc:
                    raise WorkloadError(f"{path}: line {number}: {exc}") from exc
        declared = header.get("requests")
        if declared is not None and (type(declared) is not int or declared != len(requests)):
            raise WorkloadError(
                f"{path}: header declares {declared!r} requests, file holds "
                f"{len(requests)}"
            )
        return cls(requests, name=name, seed=seed, duration_s=duration_s)


# -- popularity, cycles, storms -------------------------------------------
class ZipfianSampler:
    """Rank-based Zipfian key popularity: P(rank r) ∝ 1 / r**s.

    The key universe's order *is* the popularity ranking (first key is
    hottest).  Sampling is inverse-CDF over precomputed cumulative
    weights, so one draw costs one RNG call and a bisect.
    """

    def __init__(self, keys: Sequence[str], s: float = 1.1):
        if not keys:
            raise WorkloadError("Zipfian sampler needs at least one key")
        _require_finite("Zipf exponent", s)
        if s < 0:
            raise WorkloadError(f"Zipf exponent must be >= 0, got {s}")
        self.keys: Tuple[str, ...] = tuple(keys)
        self.s = float(s)
        weights = [1.0 / (rank ** self.s) for rank in range(1, len(self.keys) + 1)]
        total = sum(weights)
        cumulative: List[float] = []
        running = 0.0
        for weight in weights:
            running += weight / total
            cumulative.append(running)
        cumulative[-1] = 1.0  # guard against float drift at the tail
        self._cumulative = cumulative

    def sample(self, rng: Random) -> str:
        return self.keys[bisect.bisect_left(self._cumulative, rng.random())]


@dataclass(frozen=True)
class DiurnalCycle:
    """Day/night rate modulation on the sim clock.

    The multiplier follows a raised cosine between ``trough`` (quietest)
    and 1.0 (peak), peaking at ``peak_s`` into each ``period_s`` cycle.
    """

    period_s: float = 86_400.0
    trough: float = 0.25
    peak_s: float = 43_200.0

    def __post_init__(self) -> None:
        _require_finite("diurnal period", self.period_s)
        _require_finite("diurnal peak", self.peak_s)
        if self.period_s <= 0:
            raise WorkloadError(f"diurnal period must be positive, got {self.period_s}")
        if not 0.0 < self.trough <= 1.0:
            raise WorkloadError(f"diurnal trough must be in (0, 1], got {self.trough}")

    def multiplier(self, t: float) -> float:
        phase = 2.0 * math.pi * ((t - self.peak_s) % self.period_s) / self.period_s
        # cos(0) = 1 at the peak instant, -1 half a period away.
        shape = (1.0 + math.cos(phase)) / 2.0
        return self.trough + (1.0 - self.trough) * shape


@dataclass(frozen=True)
class BurstStorm:
    """A traffic storm: the arrival rate is multiplied inside a window.

    The load-side sibling of the C13 *content* bursts — there, terms
    spike inside crawls; here, requests spike inside a sim-time window
    (a hot news story hammering the retro browser, a conference deadline
    hammering the EventStore).
    """

    start_s: float
    end_s: float
    multiplier: float = 5.0

    def __post_init__(self) -> None:
        _require_finite("storm start", self.start_s)
        _require_finite("storm end", self.end_s)
        _require_finite("storm multiplier", self.multiplier)
        if self.end_s <= self.start_s:
            raise WorkloadError(
                f"storm window [{self.start_s}, {self.end_s}) is empty"
            )
        if self.multiplier <= 0:
            raise WorkloadError(f"storm multiplier must be positive, got {self.multiplier}")

    def active(self, t: float) -> bool:
        return self.start_s <= t < self.end_s


# -- the spec --------------------------------------------------------------
@dataclass(frozen=True)
class OpSpec:
    """One access path in a tenant's mix: weight, key universe, skew."""

    op: str
    weight: float
    keys: Tuple[str, ...]
    zipf_s: float = 1.1
    params: Tuple[_Param, ...] = ()

    def __post_init__(self) -> None:
        _require_finite(f"op {self.op!r} weight", self.weight)
        _require_finite(f"op {self.op!r} Zipf exponent", self.zipf_s)
        if self.weight <= 0:
            raise WorkloadError(f"op {self.op!r} needs a positive weight")
        if not self.keys:
            raise WorkloadError(f"op {self.op!r} needs a non-empty key universe")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's arrival stream: rate, mix, and temporal shape."""

    name: str
    rate_per_s: float
    ops: Tuple[OpSpec, ...]
    diurnal: Optional[DiurnalCycle] = None
    storms: Tuple[BurstStorm, ...] = ()

    def __post_init__(self) -> None:
        _require_finite(f"tenant {self.name!r} rate", self.rate_per_s)
        if self.rate_per_s <= 0:
            raise WorkloadError(f"tenant {self.name!r} needs a positive rate")
        if not self.ops:
            raise WorkloadError(f"tenant {self.name!r} has no ops in its mix")

    def rate_at(self, t: float) -> float:
        rate = self.rate_per_s
        if self.diurnal is not None:
            rate *= self.diurnal.multiplier(t)
        for storm in self.storms:
            if storm.active(t):
                rate *= storm.multiplier
        return rate

    def peak_rate(self) -> float:
        """An upper bound on :meth:`rate_at` (for thinning).  Active storms
        multiply, so the bound is the largest product of multipliers active
        together, read at each storm edge (where it changes), never below 1."""
        edges = sorted({edge for storm in self.storms for edge in (storm.start_s, storm.end_s)})
        together = [
            math.prod(storm.multiplier for storm in self.storms if storm.active(t))
            for t in edges
        ]
        return self.rate_per_s * max([1.0, *together])


@dataclass(frozen=True)
class WorkloadSpec:
    """The full multi-tenant workload: generate once, replay everywhere."""

    tenants: Tuple[TenantSpec, ...]
    duration_s: float
    seed: int = 0
    name: str = "workload"

    def __post_init__(self) -> None:
        if not self.tenants:
            raise WorkloadError("workload needs at least one tenant")
        _require_finite("duration", self.duration_s)
        if self.duration_s <= 0:
            raise WorkloadError(f"duration must be positive, got {self.duration_s}")
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise WorkloadError(f"duplicate tenant names: {sorted(names)}")


def _tenant_rng(seed: int, tenant: str) -> Random:
    """An independent, reproducible stream per (workload seed, tenant)."""
    material = f"workload:{seed}:{tenant}".encode("utf-8")
    return Random(int.from_bytes(hashlib.sha256(material).digest()[:8], "big"))


def generate_trace(spec: WorkloadSpec) -> Trace:
    """Deterministically expand a :class:`WorkloadSpec` into a :class:`Trace`.

    Each tenant gets an independent seeded RNG stream; arrivals are a
    thinned Poisson process (candidates at the tenant's peak rate, kept
    with probability ``rate_at(t) / peak``), so diurnal troughs and storm
    windows shape the stream without breaking determinism.  Tenant
    streams merge sorted by ``(arrival time, tenant name, tenant seq)``
    — a total order, so the merged trace is unique.
    """
    merged: List[Tuple[float, str, int, OpSpec, str]] = []
    for tenant in spec.tenants:
        rng = _tenant_rng(spec.seed, tenant.name)
        samplers = [ZipfianSampler(op.keys, op.zipf_s) for op in tenant.ops]
        weights = [op.weight for op in tenant.ops]
        total_weight = sum(weights)
        cumulative: List[float] = []
        running = 0.0
        for weight in weights:
            running += weight / total_weight
            cumulative.append(running)
        cumulative[-1] = 1.0
        peak = tenant.peak_rate()
        t = 0.0
        tenant_seq = 0
        while True:
            t += rng.expovariate(peak)
            if t >= spec.duration_s:
                break
            if rng.random() >= tenant.rate_at(t) / peak:
                continue  # thinned away (trough / outside a storm)
            choice = bisect.bisect_left(cumulative, rng.random())
            op = tenant.ops[choice]
            key = samplers[choice].sample(rng)
            merged.append((t, tenant.name, tenant_seq, op, key))
            tenant_seq += 1
    merged.sort(key=lambda item: (item[0], item[1], item[2]))
    requests = [
        TraceRequest(
            seq=seq,
            arrival_s=round(t, 9),
            tenant=tenant_name,
            op=op.op,
            key=key,
            params=op.params,
        )
        for seq, (t, tenant_name, _, op, key) in enumerate(merged)
    ]
    return Trace(requests, name=spec.name, seed=spec.seed, duration_s=spec.duration_s)


# -- admission control ----------------------------------------------------
class AdmissionController:
    """Sim-time token bucket: the serving layer's backpressure valve.

    Tokens replenish at ``rate_per_s`` simulated seconds up to ``burst``;
    each admitted request spends one.  A request arriving to an empty
    bucket is rejected — the caller accounts it as ``serve.rejected``
    rather than queueing unboundedly (the paper's services survive by
    shedding, not by buffering forever).  Deterministic: admission
    depends only on the arrival times, never on wall-clock service time.
    """

    def __init__(self, rate_per_s: float, burst: float = 1.0):
        _require_finite("admission rate", rate_per_s)
        _require_finite("burst", burst)
        if rate_per_s <= 0:
            raise WorkloadError(f"admission rate must be positive, got {rate_per_s}")
        if burst < 1:
            raise WorkloadError(f"burst must allow at least one token, got {burst}")
        self.rate_per_s = float(rate_per_s)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last_arrival = 0.0
        self.admitted = 0
        self.rejected = 0

    def admit(self, arrival_s: float) -> bool:
        if arrival_s < self._last_arrival:
            raise WorkloadError(
                f"arrivals must be non-decreasing ({arrival_s} after "
                f"{self._last_arrival})"
            )
        elapsed = arrival_s - self._last_arrival
        self._last_arrival = arrival_s
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate_per_s)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.admitted += 1
            return True
        self.rejected += 1
        return False


# -- replay ----------------------------------------------------------------
@dataclass
class RequestOutcome:
    """What one replayed request did (latency is wall-clock, benchmark-only)."""

    request: TraceRequest
    ok: bool
    rejected: bool = False
    latency_s: float = 0.0
    error: str = ""


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over pre-sorted values (q in [0, 100])."""
    if not sorted_values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise WorkloadError(f"percentile must be in [0, 100], got {q}")
    rank = max(1, -(-len(sorted_values) * q // 100))  # ceil without math
    return sorted_values[int(rank) - 1]


@dataclass
class LatencySummary:
    """Throughput and tail latency for one op (or the whole replay)."""

    op: str
    count: int
    wall_s: float
    p50_ms: float
    p95_ms: float
    p99_ms: float

    @property
    def throughput_rps(self) -> float:
        return self.count / self.wall_s if self.wall_s > 0 else 0.0

    def row(self) -> Dict[str, object]:
        return {
            "path": self.op,
            "requests": self.count,
            "throughput rps": f"{self.throughput_rps:.0f}",
            "p50 ms": f"{self.p50_ms:.3f}",
            "p95 ms": f"{self.p95_ms:.3f}",
            "p99 ms": f"{self.p99_ms:.3f}",
        }


class ReplayReport:
    """Everything a replay produced: outcomes, accounting, percentiles."""

    def __init__(self, trace: Trace, outcomes: List[RequestOutcome], wall_s: float):
        self.trace = trace
        self.outcomes = outcomes
        self.wall_s = wall_s

    @property
    def served(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.ok)

    @property
    def rejected(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.rejected)

    @property
    def failed(self) -> int:
        return sum(
            1
            for outcome in self.outcomes
            if not outcome.ok and not outcome.rejected
        )

    def latency_summary(self, op: Optional[str] = None) -> LatencySummary:
        latencies = sorted(
            outcome.latency_s
            for outcome in self.outcomes
            if outcome.ok and (op is None or outcome.request.op == op)
        )
        return LatencySummary(
            op=op if op is not None else "all",
            count=len(latencies),
            wall_s=self.wall_s,
            p50_ms=percentile(latencies, 50) * 1e3,
            p95_ms=percentile(latencies, 95) * 1e3,
            p99_ms=percentile(latencies, 99) * 1e3,
        )

    def summary_rows(self) -> List[Dict[str, object]]:
        return [self.latency_summary(op).row() for op in self.trace.ops()]


Handler = Callable[[TraceRequest], object]


class TraceReplayer:
    """Drive a trace against handler callables, one op name each.

    The replayer owns the mapping from trace ops to service calls; the
    telemetry side effects (``workload.request`` per arrival,
    ``serve.rejected`` on backpressure, plus whatever the handlers emit)
    land on the given bus with the bus's :class:`SimClock` advanced to
    each arrival — so canonical logs of two replays of one trace are
    byte-identical, while wall-clock latencies stay confined to the
    returned :class:`ReplayReport`.
    """

    def __init__(
        self,
        handlers: Mapping[str, Handler],
        telemetry: Optional[Telemetry] = None,
        admission: Optional[AdmissionController] = None,
    ):
        if not handlers:
            raise WorkloadError("replayer needs at least one op handler")
        self.handlers = dict(handlers)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.admission = admission

    def replay(self, trace: Trace) -> ReplayReport:
        bus = self.telemetry
        registry = bus.registry
        handlers = self.handlers
        ops = trace.ops()
        # Before the first request: a trace this replayer cannot finish
        # must not leave a half-replayed log behind.
        for op in ops:
            if op not in handlers:
                raise WorkloadError(
                    f"trace op {op!r} has no handler; "
                    f"replayer knows {sorted(handlers)}"
                )
        # Instruments are bound once per replay, not looked up per request.
        per_op = {
            op: (handlers[op], registry.counter(f"workload.requests.{op}"))
            for op in ops
        }
        bound: Dict[str, Counter] = {}

        def count(name: str) -> None:
            # Bound on first use, so a name this replay never counts (no
            # rejection, no failure, an empty trace) stays out of the registry.
            counter = bound.get(name)
            if counter is None:
                counter = bound[name] = registry.counter(name)
            counter.inc()

        outcomes: List[RequestOutcome] = []
        replay_start = time.perf_counter()  # repro: noqa[RPR002] benchmark latency only
        for request in trace:
            handler, op_requests = per_op[request.op]
            ahead = request.arrival_s - bus.clock.now
            if ahead > 0:
                bus.clock.advance(ahead)
            count("workload.requests")
            op_requests.inc()
            bus.emit(
                "workload.request",
                request.op,
                seq=request.seq,
                tenant=request.tenant,
                key=request.key,
            )
            if self.admission is not None and not self.admission.admit(
                request.arrival_s
            ):
                count("workload.rejected")
                bus.emit(
                    "serve.rejected",
                    request.op,
                    seq=request.seq,
                    tenant=request.tenant,
                    key=request.key,
                )
                outcomes.append(
                    RequestOutcome(request=request, ok=False, rejected=True)
                )
                continue
            started = time.perf_counter()  # repro: noqa[RPR002] benchmark latency only
            try:
                handler(request)
            except Exception as exc:  # noqa: BLE001 - a failed request is data
                count("workload.failed")
                outcomes.append(
                    RequestOutcome(
                        request=request,
                        ok=False,
                        latency_s=time.perf_counter() - started,  # repro: noqa[RPR002]
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
            count("workload.served")
            outcomes.append(
                RequestOutcome(
                    request=request,
                    ok=True,
                    latency_s=time.perf_counter() - started,  # repro: noqa[RPR002]
                )
            )
        wall_s = time.perf_counter() - replay_start  # repro: noqa[RPR002]
        return ReplayReport(trace, outcomes, wall_s)
