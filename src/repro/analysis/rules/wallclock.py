"""RPR002: no wall-clock reads.

Every timestamp in the system is :class:`~repro.core.telemetry.SimClock`
simulated seconds; a telemetry event carries no host-clock field at all.
A ``time.time()`` / ``time.monotonic()`` / ``time.perf_counter()`` or
argless ``datetime.now()`` / ``datetime.today()`` call smuggles the
host's clock into state that must be reproducible run to run, so every
one is flagged, the telemetry module's included.  Code that
*intentionally* measures real elapsed time (operational counters that
never enter an event log) must carry an inline ``# repro: noqa[RPR002]``
so the exception is visible and accounted.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.linter import Finding, ModuleSource, Rule, register, resolved_calls
from repro.analysis.sites import classify_call


@register
class WallClockRule(Rule):
    code = "RPR002"
    name = "wall-clock"
    description = "wall-clock read; use the run's SimClock"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node, name in resolved_calls(module):
            hazard = classify_call(name, bool(node.args or node.keywords))
            if hazard is not None and hazard[0] == "wall_clock":
                yield self.finding(
                    module,
                    node,
                    f"{hazard[1]}; thread an explicit timestamp or read the "
                    "telemetry SimClock instead",
                )
