"""Deep static checks over :class:`~repro.core.dataflow.DataFlow` graphs.

``DataFlow.validate()`` rejects graphs that cannot *execute* (cycles,
dangling edges).  This checker goes further and rejects graphs that
execute fine but describe a physically or logistically wrong pipeline —
the failure mode the paper's case studies kept hitting at design time:

* **FLW001 cycle** — a directed cycle, reported as the actual stage path
  (``a -> b -> a``), not just the residual node set;
* **FLW002 dangling dataset** — a stage whose output dataset nobody
  consumes and that is not a declared terminal product, or a stage
  connected to nothing at all;
* **FLW003 volume conservation** — a stage whose declared output volume
  exceeds its declared inputs times its maximum expansion factor
  (processing *melds and reduces*; only generative stages like Monte
  Carlo may expand, and they must say by how much);
* **FLW004 site consistency** — a transport stage (site ``"A->B"``)
  whose upstream stages are not at ``A`` or whose downstream stages are
  not at ``B``: data teleportation;
* **FLW005 unit consistency** — declared volumes that fail to parse as
  :class:`~repro.core.units.DataSize` quantities, or non-positive
  expansion factors.

Volumes are *declarations* (a :class:`FlowSpec`), not measurements: the
point is to catch a figure whose arrows claim "14 TB in, 200 TB of
candidates out" before anyone runs it.  :func:`figure_flows` returns the
repo's two real figure graphs with their paper-quoted specs, and CI
checks both on every push.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.dataflow import DataFlow
from repro.core.errors import UnitError
from repro.core.units import DataSize

#: Issue codes, stable and append-only (mirrors the lint rule registry).
CYCLE = "FLW001"
DANGLING = "FLW002"
VOLUME = "FLW003"
SITE = "FLW004"
UNITS = "FLW005"


@dataclass(frozen=True)
class FlowIssue:
    """One structural problem found in one flow."""

    code: str
    flow: str
    message: str
    stage: str = ""

    def render(self) -> str:
        where = f"{self.flow}/{self.stage}" if self.stage else self.flow
        return f"{where}: {self.code} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "flow": self.flow,
            "stage": self.stage,
            "message": self.message,
        }


@dataclass(frozen=True)
class StageVolume:
    """Declared output volume for one stage.

    ``output`` is a human-readable quantity (``"14 TB"``, ``"250 GB"``)
    parsed with :meth:`repro.core.units.DataSize.parse`, so the spec
    reads like the paper's figures.  ``max_expansion`` bounds how much
    larger the output may be than the sum of the stage's declared
    inputs; the default ``1.0`` says "processing never grows data",
    which holds for every stage in both figures except Monte Carlo
    production (generative: small run conditions in, a simulation sample
    out) — such stages declare an explicit factor.
    """

    output: str
    max_expansion: float = 1.0


@dataclass(frozen=True)
class FlowSpec:
    """Static declarations checked against a flow's structure.

    ``expected_sinks`` names the stages whose outputs are the pipeline's
    terminal data products; any other sink is a dangling dataset.
    ``volumes`` maps stage names to :class:`StageVolume` declarations
    (stages without one are skipped by the volume check).
    """

    expected_sinks: Tuple[str, ...] = ()
    volumes: Mapping[str, StageVolume] = field(default_factory=dict)


def _site_base(site: str) -> str:
    """The site's facility: ``"CTC/PALFA"`` -> ``"CTC"``."""
    return site.split("/", 1)[0].strip()


def _transport_endpoints(site: str) -> Optional[Tuple[str, str]]:
    """``("A", "B")`` for a transport site ``"A->B"``, else ``None``."""
    if "->" not in site:
        return None
    left, _, right = site.partition("->")
    return left.strip(), right.strip()


def _check_cycle(flow: DataFlow) -> List[FlowIssue]:
    cycle = flow.find_cycle()
    if cycle is None:
        return []
    return [
        FlowIssue(
            code=CYCLE,
            flow=flow.name,
            stage=cycle[0],
            message=f"cycle: {' -> '.join(cycle)}",
        )
    ]


def _check_dangling(flow: DataFlow, spec: Optional[FlowSpec]) -> List[FlowIssue]:
    issues: List[FlowIssue] = []
    stages = flow.stages
    for name in stages:
        isolated = (
            len(stages) > 1
            and not flow.predecessors(name)
            and not flow.successors(name)
        )
        if isolated:
            issues.append(
                FlowIssue(
                    code=DANGLING,
                    flow=flow.name,
                    stage=name,
                    message="stage is connected to nothing (no edges in or out)",
                )
            )
            continue
        if spec is not None and spec.expected_sinks:
            if not flow.successors(name) and name not in spec.expected_sinks:
                issues.append(
                    FlowIssue(
                        code=DANGLING,
                        flow=flow.name,
                        stage=name,
                        message=(
                            "output dataset is never consumed and the stage "
                            "is not a declared terminal product "
                            f"(expected sinks: {list(spec.expected_sinks)})"
                        ),
                    )
                )
    return issues


def _parse_volumes(
    flow: DataFlow, spec: FlowSpec
) -> Tuple[Dict[str, DataSize], List[FlowIssue]]:
    sizes: Dict[str, DataSize] = {}
    issues: List[FlowIssue] = []
    for name in sorted(spec.volumes):
        volume = spec.volumes[name]
        if name not in flow.stages:
            issues.append(
                FlowIssue(
                    code=VOLUME,
                    flow=flow.name,
                    stage=name,
                    message="volume declared for a stage the flow does not have",
                )
            )
            continue
        try:
            sizes[name] = DataSize.parse(volume.output)
        except UnitError as exc:
            issues.append(
                FlowIssue(
                    code=UNITS,
                    flow=flow.name,
                    stage=name,
                    message=f"declared output {volume.output!r} is not a data size: {exc}",
                )
            )
        if not volume.max_expansion > 0:
            issues.append(
                FlowIssue(
                    code=UNITS,
                    flow=flow.name,
                    stage=name,
                    message=f"max_expansion must be positive, got {volume.max_expansion!r}",
                )
            )
    return sizes, issues


def _check_volumes(flow: DataFlow, spec: Optional[FlowSpec]) -> List[FlowIssue]:
    if spec is None or not spec.volumes:
        return []
    sizes, issues = _parse_volumes(flow, spec)
    for name in sorted(sizes):
        predecessors = [p for p in flow.predecessors(name) if p in sizes]
        if not predecessors:
            continue  # sources (and stages with undeclared inputs) are unbounded
        inputs = DataSize(sum(sizes[p].bytes for p in predecessors))
        bound = DataSize(inputs.bytes * spec.volumes[name].max_expansion)
        if sizes[name].bytes > bound.bytes:
            issues.append(
                FlowIssue(
                    code=VOLUME,
                    flow=flow.name,
                    stage=name,
                    message=(
                        f"declared output {sizes[name]} exceeds inputs {inputs} "
                        f"x max_expansion {spec.volumes[name].max_expansion:g} "
                        f"= {bound}"
                    ),
                )
            )
    return issues


def _check_sites(flow: DataFlow) -> List[FlowIssue]:
    issues: List[FlowIssue] = []
    stages = flow.stages
    for name, stage in stages.items():
        endpoints = _transport_endpoints(stage.site)
        if endpoints is None:
            continue
        origin, destination = endpoints
        for pred in flow.predecessors(name):
            pred_site = stages[pred].site
            pred_end = _transport_endpoints(pred_site)
            # A transport feeding a transport hands over at its arrival end.
            arrives_at = pred_end[1] if pred_end else _site_base(pred_site)
            if arrives_at != origin:
                issues.append(
                    FlowIssue(
                        code=SITE,
                        flow=flow.name,
                        stage=name,
                        message=(
                            f"transport departs {origin!r} but upstream stage "
                            f"{pred!r} is at {pred_site!r}"
                        ),
                    )
                )
        for succ in flow.successors(name):
            succ_site = stages[succ].site
            succ_end = _transport_endpoints(succ_site)
            departs_from = succ_end[0] if succ_end else _site_base(succ_site)
            if departs_from != destination:
                issues.append(
                    FlowIssue(
                        code=SITE,
                        flow=flow.name,
                        stage=name,
                        message=(
                            f"transport arrives at {destination!r} but downstream "
                            f"stage {succ!r} is at {succ_site!r}"
                        ),
                    )
                )
    return issues


def check_flow(flow: DataFlow, spec: Optional[FlowSpec] = None) -> List[FlowIssue]:
    """All structural issues in ``flow``, deterministic order, never raises."""
    issues = _check_cycle(flow)
    if issues:
        # Downstream checks walk predecessors/successors; on a cyclic
        # graph their verdicts would be half-meaningless noise.
        return issues
    issues.extend(_check_dangling(flow, spec))
    issues.extend(_check_volumes(flow, spec))
    issues.extend(_check_sites(flow))
    return issues


def issues_dict(
    checked: Sequence[Tuple[DataFlow, Sequence[FlowIssue]]]
) -> Dict[str, object]:
    """Machine-readable report (the CI artifact's flowcheck half)."""
    return {
        "flows": [
            {
                "flow": flow.name,
                "stages": len(flow.stages),
                "edges": len(flow.edges),
                "issues": [issue.to_dict() for issue in issues],
            }
            for flow, issues in checked
        ],
        "ok": not any(issues for _, issues in checked),
    }


# -- the repo's real figures ----------------------------------------------
#: Paper-quoted volume declarations for Figure 1: 14 TB of raw spectra
#: move unreduced through shipment and archive; the search reduces them
#: to candidate lists; the meta-analysis culls further.
FIGURE1_SPEC = FlowSpec(
    expected_sinks=("meta-analysis",),
    volumes={
        "acquire": StageVolume("14 TB"),
        "ship": StageVolume("14 TB"),
        "archive": StageVolume("14 TB"),
        "process": StageVolume("200 GB"),
        "consolidate": StageVolume("200 GB"),
        "meta-analysis": StageVolume("1 GB"),
    },
)

#: Figure 2: ~5 TB of raw collision data; reconstruction roughly doubles
#: the stored volume (hits plus tracks), post-reconstruction summarizes,
#: and Monte Carlo is generative — run conditions in, a simulation
#: sample about twice the data out — so it declares an expansion factor.
FIGURE2_SPEC = FlowSpec(
    expected_sinks=("physics-analysis",),
    volumes={
        "acquisition": StageVolume("5 TB"),
        "reconstruction": StageVolume("10 TB", max_expansion=2.0),
        "post-reconstruction": StageVolume("1 TB"),
        "monte-carlo": StageVolume("10 TB", max_expansion=2.0),
        "physics-analysis": StageVolume("1 GB"),
    },
)


def figure_flows() -> List[Tuple[DataFlow, FlowSpec]]:
    """The repo's two figure graphs (structural builds) with their specs."""
    from repro.arecibo.pipeline import figure1_flow
    from repro.cleo.pipeline import figure2_flow

    return [
        (figure1_flow(), FIGURE1_SPEC),
        (figure2_flow(), FIGURE2_SPEC),
    ]
