"""The shipped rule pack.

Importing this package registers every rule with the framework registry
(:func:`repro.analysis.linter.registered_rules` imports it lazily).
Rule codes are stable and append-only: a retired code is never reused.
Every rule runs in the one pass over one analysis
(:class:`repro.analysis.linter.Linter`); RPR0xx rules look at one module
at a time, RPR1xx rules at the call graph and effect summaries:

========  ==========================  ==============================================
code      name                        fires on
========  ==========================  ==============================================
RPR001    unseeded-rng                unseeded RNG construction / global RNG draws
RPR002    wall-clock                  host-clock reads outside the telemetry site
RPR003    unregistered-telemetry-kind literal emit() kinds missing from EVENT_KINDS
RPR004    unordered-iteration         set iteration feeding order-sensitive code
RPR005    (retired)                   undeclared cache_params — now RPR101's undeclared case
RPR101    deep-cache-key              transitive config reads missing from cache_params
RPR102    shard-safety                shard callables mutating shared state
RPR103    process-boundary            unpicklable/unsafe captures crossing processes
RPR104    deep-determinism            RNG/wall-clock reach into cached transforms
========  ==========================  ==============================================
"""

from repro.analysis.rules.ordering import UnorderedIterationRule
from repro.analysis.rules.rng import UnseededRngRule
from repro.analysis.rules.telemetry_kinds import TelemetryKindRule
from repro.analysis.rules.wallclock import WallClockRule
from repro.analysis.rules.deepcache import InterproceduralCacheKeyRule
from repro.analysis.rules.shardsafety import ShardSafetyRule
from repro.analysis.rules.picklesafety import ProcessBoundaryRule
from repro.analysis.rules.deepdeterminism import TransitiveDeterminismRule

__all__ = [
    "InterproceduralCacheKeyRule",
    "ProcessBoundaryRule",
    "ShardSafetyRule",
    "TelemetryKindRule",
    "TransitiveDeterminismRule",
    "UnorderedIterationRule",
    "UnseededRngRule",
    "WallClockRule",
]
