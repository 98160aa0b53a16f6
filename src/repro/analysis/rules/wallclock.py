"""RPR002: wall-clock reads are confined to the telemetry substrate.

Every telemetry event carries exactly one wall-clock field
(``wall_time``, stamped inside :meth:`repro.core.telemetry.Telemetry.emit`
and stripped by ``canonical()``), and all other timestamps in the system
are :class:`~repro.core.telemetry.SimClock` simulated seconds.  Any
other ``time.time()`` / ``time.monotonic()`` / ``time.perf_counter()``
or argless ``datetime.now()`` / ``datetime.today()`` call smuggles the
host's clock into state that must be reproducible run to run.

The sanctioned emit site is allowlisted (:mod:`repro.analysis.sites`) by
(file, call) rather than line number so the rule survives edits to
``telemetry.py``.  Code that *intentionally* measures real elapsed time
(operational counters that never enter a canonical event log) must carry
an inline ``# repro: noqa[RPR002]`` so the exception is visible and
accounted.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.linter import Finding, ModuleSource, Rule, register, resolved_calls
from repro.analysis.sites import classify_call, is_sanctioned_site


@register
class WallClockRule(Rule):
    code = "RPR002"
    name = "wall-clock"
    description = (
        "wall-clock read outside the sanctioned telemetry emit site; "
        "use the run's SimClock"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node, name in resolved_calls(module):
            hazard = classify_call(name, bool(node.args or node.keywords))
            if hazard is None or hazard[0] != "wall_clock":
                continue
            if is_sanctioned_site(module.path, name):
                yield self.finding(
                    module,
                    node,
                    f"{name}() (sanctioned telemetry wall_time site)",
                    suppressed=True,
                    suppression="allowlist",
                )
            else:
                yield self.finding(
                    module,
                    node,
                    f"{hazard[1]}; thread an explicit timestamp or read the "
                    "telemetry SimClock instead",
                )
