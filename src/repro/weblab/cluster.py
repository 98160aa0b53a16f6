"""The commodity-cluster counterfactual for web-graph analysis.

"The conventional architecture for providing heavily used services on the
Web distributes the data and processing across a very large number of
small commodity computers. [...] While highly successful for production
services, large clusters of commodity computers are inconvenient for
researchers who carry out Web-scale research [...] because network latency
would be a serious concern."

:class:`PartitionedGraph` holds the same graph hash-partitioned across k
simulated workers.  Every edge whose endpoints live on different workers
costs a network round trip when traversed; local edges cost a memory
access.  Running the identical BFS/PageRank workloads through both models
produces the latency comparison of experiment C11 — same answers,
radically different completion times.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.errors import WebLabError
from repro.core.units import Duration

if TYPE_CHECKING:  # annotations only: serving never pays for the import
    import networkx as nx

# Access-time constants: a main-memory pointer chase vs a cluster-network
# round trip (commodity gigabit + kernel stacks, mid-2000s).
MEMORY_ACCESS = Duration.from_seconds(100e-9)
NETWORK_ROUND_TRIP = Duration.from_seconds(200e-6)


@dataclass
class ClusterCost:
    """Edge-traversal accounting split by locality."""

    local_visits: int = 0
    remote_visits: int = 0

    @property
    def total_visits(self) -> int:
        return self.local_visits + self.remote_visits

    @property
    def remote_fraction(self) -> float:
        return self.remote_visits / self.total_visits if self.total_visits else 0.0

    def elapsed(
        self,
        memory_access: Duration = MEMORY_ACCESS,
        round_trip: Duration = NETWORK_ROUND_TRIP,
    ) -> Duration:
        return Duration(
            self.local_visits * memory_access.seconds
            + self.remote_visits * round_trip.seconds
        )


def single_machine_time(
    edge_visits: int, memory_access: Duration = MEMORY_ACCESS
) -> Duration:
    """Completion time of the same traversal on one shared-memory machine."""
    return Duration(edge_visits * memory_access.seconds)


class PartitionedGraph:
    """A directed graph hash-partitioned across ``n_workers`` machines.

    Partitioning is by a stable content hash of the node id, so runs are
    reproducible across processes.
    """

    def __init__(self, graph: nx.DiGraph, n_workers: int):
        if n_workers < 1:
            raise WebLabError("cluster needs at least one worker")
        self.graph = graph
        self.n_workers = n_workers

    def worker_of(self, node: str) -> int:
        return zlib.crc32(str(node).encode("utf-8")) % self.n_workers

    def is_remote(self, src: str, dst: str) -> bool:
        return self.worker_of(src) != self.worker_of(dst)

    def _charge(self, cost: ClusterCost, src: str, dst: str) -> None:
        if self.is_remote(src, dst):
            cost.remote_visits += 1
        else:
            cost.local_visits += 1

    # -- workloads ---------------------------------------------------------
    def bfs(self, source: str) -> Tuple[Dict[str, int], ClusterCost]:
        """BFS distances plus locality-split traversal cost."""
        if source not in self.graph:
            raise WebLabError(f"no page {source!r} in graph")
        cost = ClusterCost()
        distances = {source: 0}
        frontier = [source]
        while frontier:
            next_frontier: List[str] = []
            for node in frontier:
                for neighbor in self.graph.successors(node):
                    self._charge(cost, node, neighbor)
                    if neighbor not in distances:
                        distances[neighbor] = distances[node] + 1
                        next_frontier.append(neighbor)
            frontier = next_frontier
        return distances, cost

    def pagerank(
        self, iterations: int = 20, damping: float = 0.85
    ) -> Tuple[Dict[str, float], ClusterCost]:
        """Power-iteration PageRank plus locality-split traversal cost."""
        if self.graph.number_of_nodes() == 0:
            raise WebLabError("empty graph")
        cost = ClusterCost()
        nodes = list(self.graph.nodes())
        n = len(nodes)
        rank = {node: 1.0 / n for node in nodes}
        for _ in range(iterations):
            new_rank = {node: (1.0 - damping) / n for node in nodes}
            dangling = 0.0
            for node in nodes:
                out_degree = self.graph.out_degree(node)
                if out_degree == 0:
                    dangling += rank[node]
                    continue
                share = damping * rank[node] / out_degree
                for neighbor in self.graph.successors(node):
                    self._charge(cost, node, neighbor)
                    new_rank[neighbor] += share
            if dangling:
                for node in nodes:
                    new_rank[node] += damping * dangling / n
            rank = new_rank
        return rank, cost


@dataclass
class LocalityComparison:
    """Single-machine vs cluster timing for one workload."""

    workload: str
    n_workers: int
    edge_visits: int
    remote_fraction: float
    single_machine: Duration
    cluster: Duration

    @property
    def slowdown(self) -> float:
        if self.single_machine.seconds == 0:
            return 1.0
        return self.cluster.seconds / self.single_machine.seconds


def compare_locality(
    graph: nx.DiGraph,
    n_workers: int,
    workload: str = "pagerank",
    source: Optional[str] = None,
    iterations: int = 20,
) -> LocalityComparison:
    """Run one workload through the cluster model and price both designs."""
    partitioned = PartitionedGraph(graph, n_workers)
    if workload == "pagerank":
        _, cost = partitioned.pagerank(iterations=iterations)
    elif workload == "bfs":
        if source is None:
            raise WebLabError("BFS needs a source page")
        _, cost = partitioned.bfs(source)
    else:
        raise WebLabError(f"unknown workload {workload!r}")
    return LocalityComparison(
        workload=workload,
        n_workers=n_workers,
        edge_visits=cost.total_visits,
        remote_fraction=cost.remote_fraction,
        single_machine=single_machine_time(cost.total_visits),
        cluster=cost.elapsed(),
    )
