"""Operations console: rollups, quality dashboard, reports, alerting.

The read side of the telemetry substrate.  Pipelines append typed JSONL
event logs; this package turns them into an operations surface:

* :mod:`repro.ops.rollup` — fold raw events into cached, content-digested,
  incrementally-updatable quality projections;
* :mod:`repro.ops.dashboard` — grade projections against per-channel
  green/yellow/red threshold specs;
* :mod:`repro.ops.report` — render the byte-reproducible nightly HTML
  report with trend deltas against the previous night;
* :mod:`repro.ops.alerts` — deterministic threshold / rate-of-change /
  staleness alerting with exact dedup and flap accounting;
* ``python -m repro.ops`` — the ``report`` / ``status`` / ``alerts`` CLI.
"""

from typing import Tuple

from repro.ops.dashboard import QualitySpec


def default_quality_specs() -> Tuple[QualitySpec, ...]:
    """The stock per-pipeline channel specs, in dashboard order.

    Imported lazily: each pipeline's ``quality`` module imports
    :mod:`repro.ops.dashboard`, which runs this ``__init__`` first, so a
    top-level import here would be a cycle.
    """
    from repro.arecibo.quality import quality_spec as arecibo_spec
    from repro.cleo.quality import quality_spec as cleo_spec
    from repro.weblab.quality import quality_spec as weblab_spec

    return (arecibo_spec(), cleo_spec(), weblab_spec())
