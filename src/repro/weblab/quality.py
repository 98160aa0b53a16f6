"""Quality thresholds for the WebLab crawl-and-serve channel.

What "healthy" means for a serving tier: the read cache absorbs most
lookups (a cold cache pushes every request to the slow store and the
latency tail explodes), admission control rejects almost nothing, and
injected faults stay within the chaos budget.  The serving flows get
their channel attribution from running trace replay under
``bus.span("weblab-serving")`` — see ``examples/ops_console.py``.
"""

from __future__ import annotations

from repro.ops.dashboard import MetricSpec, QualitySpec

#: Threshold bands for ``weblab*`` flows.
WEBLAB_QUALITY = QualitySpec(
    channel="weblab",
    flow_pattern="weblab*",
    metrics=(
        MetricSpec(
            metric="cache_hit_rate",
            label="read-cache hit rate",
            unit="%",
            higher_is_better=True,
            green=0.90,
            yellow=0.50,
        ),
        MetricSpec(
            metric="rejected_rate",
            label="admission-reject rate",
            unit="%",
            higher_is_better=False,
            green=0.01,
            yellow=0.10,
        ),
        MetricSpec(
            metric="faults",
            label="injected faults",
            higher_is_better=False,
            green=0.0,
            yellow=5.0,
        ),
    ),
)


def quality_spec() -> QualitySpec:
    """The channel spec :func:`repro.ops.default_quality_specs` mounts."""
    return WEBLAB_QUALITY
