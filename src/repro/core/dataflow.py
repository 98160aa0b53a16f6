"""Dataflow graphs: the unifying abstraction of the paper.

All three case studies are "sophisticated data processing pipelines that
meld raw data through expensive processing steps into finished data
products".  This module gives those pipelines a common shape: a directed
acyclic graph of named :class:`Stage` objects connected by labelled edges,
validated structurally, and renderable as text (our executable stand-in for
the paper's Figure 1 and Figure 2).

Execution and accounting live in :mod:`repro.core.engine`; this module is
purely structural so graphs can be built, inspected, and drawn without
running anything.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.dataset import Dataset
from repro.core.errors import DataflowError
from repro.core.recovery import RetryPolicy

# A stage transform receives {upstream stage name: dataset} and a context
# object supplied by the engine, and returns its output dataset.
StageFn = Callable[[Mapping[str, Dataset], "object"], Dataset]


def structural_stub(name: str) -> StageFn:
    """A placeholder transform for flows built only to be *inspected*.

    Pipeline modules expose their figure topologies through builder
    functions (``figure1_flow``/``figure2_flow``) so static tooling —
    :mod:`repro.analysis.flowcheck` in particular — can construct and
    check the exact graph the runtime executes without running any
    science code.  The stub raises if the engine ever calls it, so a
    structural flow can never silently masquerade as a runnable one.
    """

    def stub(inputs: Mapping[str, Dataset], ctx: object) -> Dataset:
        raise DataflowError(
            f"stage {name!r} was built structurally (no transform bound); "
            "structural flows are for inspection only"
        )

    stub.__name__ = f"structural_stub_{name}"
    return stub


@dataclass
class Stage:
    """One processing step in a dataflow.

    Parameters
    ----------
    name:
        Unique name within the flow (``"dedispersion"``, ``"reconstruction"``).
    fn:
        The transform.  Called by the engine with the mapping of upstream
        outputs and a :class:`~repro.core.engine.StageContext`.
    site:
        Where the step runs (``"Arecibo"``, ``"CTC"``, ``"consortium"``).
        Purely descriptive; used in figure rendering and per-site accounting.
    cpu_seconds_per_gb:
        Cost model: simulated CPU time consumed per GB of input processed.
    description:
        One-line summary shown in rendered figures.
    cache_params:
        Parameters the stage's behaviour depends on beyond its inputs and
        seed (pipeline configuration, release versions, thresholds).
        Folded into the stage-cache key: a stage whose ``cache_params``
        differ never reuses a cached result.  ``None`` disables nothing —
        it simply contributes an empty parameter set to the key.
    retry:
        Per-stage :class:`~repro.core.recovery.RetryPolicy` override.
        ``None`` falls back to the engine's run-wide policy (which
        defaults to no retry).
    """

    name: str
    fn: StageFn
    site: str = "local"
    cpu_seconds_per_gb: float = 0.0
    description: str = ""
    cache_params: Optional[Mapping[str, object]] = None
    retry: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise DataflowError("stage name must be non-empty")
        if not (0 <= self.cpu_seconds_per_gb < math.inf):
            raise DataflowError(
                f"stage {self.name!r}: CPU cost must be finite and >= 0, "
                f"got {self.cpu_seconds_per_gb!r}"
            )


@dataclass(frozen=True)
class Edge:
    """A directed channel between two stages."""

    src: str
    dst: str
    label: str = ""


class DataFlow:
    """A named DAG of stages.

    Stages are added first, then connected; :meth:`validate` (called
    automatically by :meth:`topological_order`) rejects cycles, dangling
    edges, and duplicate stage names at build time rather than mid-run.
    """

    def __init__(self, name: str):
        if not name:
            raise DataflowError("dataflow name must be non-empty")
        self.name = name
        self._stages: Dict[str, Stage] = {}
        self._edges: List[Edge] = []
        self._succ: Dict[str, List[str]] = {}
        self._pred: Dict[str, List[str]] = {}

    # -- construction ------------------------------------------------------
    def add_stage(self, stage: Stage) -> Stage:
        if stage.name in self._stages:
            raise DataflowError(f"duplicate stage name {stage.name!r} in flow {self.name!r}")
        self._stages[stage.name] = stage
        self._succ[stage.name] = []
        self._pred[stage.name] = []
        return stage

    def stage(
        self,
        name: str,
        fn: StageFn,
        site: str = "local",
        cpu_seconds_per_gb: float = 0.0,
        description: str = "",
        cache_params: Optional[Mapping[str, object]] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> Stage:
        """Convenience: build and add a stage in one call."""
        return self.add_stage(
            Stage(
                name=name,
                fn=fn,
                site=site,
                cpu_seconds_per_gb=cpu_seconds_per_gb,
                description=description,
                cache_params=cache_params,
                retry=retry,
            )
        )

    def connect(self, src: str, dst: str, label: str = "") -> Edge:
        for endpoint in (src, dst):
            if endpoint not in self._stages:
                raise DataflowError(
                    f"flow {self.name!r}: cannot connect unknown stage "
                    f"{endpoint!r} (edge {src!r} -> {dst!r})"
                )
        if src == dst:
            raise DataflowError(f"flow {self.name!r}: self-loop on stage {src!r}")
        if dst in self._succ[src]:
            raise DataflowError(
                f"flow {self.name!r}: duplicate edge {src!r} -> {dst!r}"
            )
        edge = Edge(src=src, dst=dst, label=label)
        self._edges.append(edge)
        self._succ[src].append(dst)
        self._pred[dst].append(src)
        return edge

    def chain(self, *names: str, labels: Optional[Sequence[str]] = None) -> None:
        """Connect a linear sequence of already-added stages."""
        if labels is not None and len(labels) != len(names) - 1:
            raise DataflowError(
                f"flow {self.name!r}: chain {list(names)} labels must have one "
                f"entry per edge ({len(names) - 1}), got {len(labels)}"
            )
        for index in range(len(names) - 1):
            label = labels[index] if labels is not None else ""
            self.connect(names[index], names[index + 1], label=label)

    # -- inspection --------------------------------------------------------
    @property
    def stages(self) -> Mapping[str, Stage]:
        """Read-only live view of the stage table, in insertion order.

        A view, not a copy: a lookup costs the same at any flow size, and a
        stage added later shows up in a view taken earlier.  The stages
        themselves stay mutable (``flow.stages["work"].retry = ...``).
        """
        return MappingProxyType(self._stages)

    @property
    def edges(self) -> List[Edge]:
        return list(self._edges)

    def predecessors(self, name: str) -> List[str]:
        self._require(name)
        return list(self._pred[name])

    def successors(self, name: str) -> List[str]:
        self._require(name)
        return list(self._succ[name])

    def sources(self) -> List[str]:
        return [name for name in self._stages if not self._pred[name]]

    def sinks(self) -> List[str]:
        return [name for name in self._stages if not self._succ[name]]

    def _require(self, name: str) -> Stage:
        if name not in self._stages:
            raise DataflowError(f"unknown stage {name!r} in flow {self.name!r}")
        return self._stages[name]

    # -- validation / ordering ---------------------------------------------
    def validate(self) -> None:
        """Raise :class:`DataflowError` if the graph is unusable."""
        if not self._stages:
            raise DataflowError(f"flow {self.name!r} has no stages")
        self.topological_order()

    def find_cycle(self) -> Optional[List[str]]:
        """One directed cycle as a stage path ``[a, b, ..., a]``, or ``None``.

        Iterative colouring DFS in insertion order, so the same graph
        always names the same cycle — error messages and flowcheck
        reports stay deterministic.
        """
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {name: WHITE for name in self._stages}
        for root in self._stages:
            if colour[root] != WHITE:
                continue
            path: List[str] = []
            stack: List[Tuple[str, Iterator[str]]] = [(root, iter(self._succ[root]))]
            colour[root] = GREY
            path.append(root)
            while stack:
                node, successors = stack[-1]
                advanced = False
                for succ in successors:
                    if colour[succ] == GREY:
                        return path[path.index(succ):] + [succ]
                    if colour[succ] == WHITE:
                        colour[succ] = GREY
                        path.append(succ)
                        stack.append((succ, iter(self._succ[succ])))
                        advanced = True
                        break
                if not advanced:
                    colour[node] = BLACK
                    path.pop()
                    stack.pop()
        return None

    def topological_order(self) -> List[str]:
        """Kahn's algorithm; raises on cycles.  Deterministic by insertion order."""
        in_degree = {name: len(self._pred[name]) for name in self._stages}
        ready = deque(name for name in self._stages if in_degree[name] == 0)
        order: List[str] = []
        while ready:
            current = ready.popleft()
            order.append(current)
            for succ in self._succ[current]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._stages):
            cycle = self.find_cycle() or sorted(
                name for name, degree in in_degree.items() if degree > 0
            )
            raise DataflowError(
                f"flow {self.name!r} contains a cycle: {' -> '.join(cycle)}"
            )
        return order

    # -- rendering -----------------------------------------------------------
    def render(self) -> str:
        """ASCII rendering of the flow, grouped by site, in topological order.

        This is the executable counterpart of the paper's data-flow figures:
        one line per stage with its site and incoming channels.
        """
        lines = [f"DataFlow: {self.name}"]
        labels = {(edge.src, edge.dst): edge.label for edge in self._edges}
        for name in self.topological_order():
            stage = self._stages[name]
            incoming = [
                f"{src} ({labels[src, name]})" if labels[src, name] else src
                for src in self._pred[name]
            ]
            arrow = f" <- {', '.join(incoming)}" if incoming else " (source)"
            summary = f"  [{stage.site}] {name}{arrow}"
            if stage.description:
                summary += f"  -- {stage.description}"
            lines.append(summary)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"DataFlow({self.name!r}, stages={len(self._stages)}, edges={len(self._edges)})"
