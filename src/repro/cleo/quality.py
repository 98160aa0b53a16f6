"""Quality thresholds for the CLEO event-reconstruction channel.

What "healthy" means for detector-data reconstruction: the pass
completed, essentially nothing was served from a degraded fallback
(physics results must not silently come from fallback calibrations,
hence the tighter degraded band than Arecibo's), and uploads into the
archive landed promptly so downstream skims see fresh runs.
"""

from __future__ import annotations

from repro.ops.dashboard import MetricSpec, QualitySpec

#: Threshold bands for ``cleo*`` flows.
CLEO_QUALITY = QualitySpec(
    channel="cleo",
    flow_pattern="cleo*",
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
            green=0.02,
            yellow=0.10,
        ),
        MetricSpec(
            metric="upload_lag_s",
            label="worst archive-upload lag",
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
    return CLEO_QUALITY
