"""Quality thresholds for the Arecibo pulsar-search channel.

What "healthy" means for a tape-fed batch search: every expected stage
of the nightly processing finished (completeness), few of those finishes
were degraded fallbacks, nothing dead-lettered, and tape recalls came
back within operational patience.  Retries are tolerated in small
numbers — the drives and the WAN both hiccup — but a climbing retry
count is the early signal of a failing batch.
"""

from __future__ import annotations

from repro.ops.dashboard import MetricSpec, QualitySpec

#: Threshold bands for ``arecibo*`` flows.
ARECIBO_QUALITY = QualitySpec(
    channel="arecibo",
    flow_pattern="arecibo*",
    metrics=(
        MetricSpec(
            metric="completeness",
            label="stage completeness",
            unit="%",
            higher_is_better=True,
            green=0.95,
            yellow=0.90,
        ),
        MetricSpec(
            metric="degraded_rate",
            label="degraded-finish rate",
            unit="%",
            higher_is_better=False,
            green=0.05,
            yellow=0.15,
        ),
        MetricSpec(
            metric="dead_letters",
            label="dead-lettered stages",
            higher_is_better=False,
            green=0.0,
            yellow=2.0,
        ),
        MetricSpec(
            metric="recall_lag_s",
            label="worst tape-recall lag",
            unit="s",
            higher_is_better=False,
            green=600.0,
            yellow=3600.0,
        ),
        MetricSpec(
            metric="retries",
            label="stage retries",
            higher_is_better=False,
            green=0.0,
            yellow=5.0,
        ),
    ),
)


def quality_spec() -> QualitySpec:
    """The channel spec :func:`repro.ops.default_quality_specs` mounts."""
    return ARECIBO_QUALITY
