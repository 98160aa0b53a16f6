"""Web-graph extraction and analysis on a single large-memory machine.

"Researchers studying the Web graph typically study the links among
billions of pages.  It is much easier to study the graph if it is loaded
into the memory of a single large computer than distributed across many
smaller ones, because network latency would be a serious concern."

This module is the single-machine side: load a crawl's links into memory
(networkx) and run the standard analyses — degree distributions, component
structure, PageRank, BFS — while counting edge traversals, so the cluster
model in :mod:`repro.weblab.cluster` can price the identical work under
per-hop network latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.errors import WebLabError
from repro.weblab.metadb import WebLabDatabase

if TYPE_CHECKING:  # imported where a graph is built or analysed
    import networkx as nx


@dataclass
class GraphStats:
    """The summary numbers researchers extract from a crawl's graph."""

    nodes: int
    edges: int
    mean_out_degree: float
    max_in_degree: int
    weakly_connected_components: int
    largest_component_fraction: float
    top_pages: List[Tuple[str, float]] = field(default_factory=list)  # by PageRank


def load_web_graph(database: WebLabDatabase, crawl_index: int) -> nx.DiGraph:
    """Build the directed link graph of one crawl in memory."""
    import networkx as nx

    edges = database.links_of_crawl(crawl_index)
    graph = nx.DiGraph()
    graph.add_edges_from(edges)
    # Pages with no links still belong to the graph.
    for row in database.db.query(
        "SELECT url FROM pages WHERE crawl_index = ?", (crawl_index,)
    ):
        graph.add_node(row["url"])
    if graph.number_of_nodes() == 0:
        raise WebLabError(f"crawl {crawl_index} has no pages")
    return graph


def compute_stats(graph: nx.DiGraph, top_n: int = 5) -> GraphStats:
    """Degree structure, components, and PageRank in one pass."""
    import networkx as nx

    nodes = graph.number_of_nodes()
    edges = graph.number_of_edges()
    in_degrees = dict(graph.in_degree())
    components = list(nx.weakly_connected_components(graph))
    largest = max((len(c) for c in components), default=0)
    ranks = nx.pagerank(graph, alpha=0.85)
    top_pages = sorted(ranks.items(), key=lambda kv: -kv[1])[:top_n]
    return GraphStats(
        nodes=nodes,
        edges=edges,
        mean_out_degree=edges / nodes if nodes else 0.0,
        max_in_degree=max(in_degrees.values(), default=0),
        weakly_connected_components=len(components),
        largest_component_fraction=largest / nodes if nodes else 0.0,
        top_pages=[(url, float(rank)) for url, rank in top_pages],
    )


@dataclass
class TraversalCost:
    """Edge-traversal accounting for the latency comparison."""

    edge_visits: int = 0

    def charge(self, count: int = 1) -> None:
        self.edge_visits += count


def bfs_with_cost(
    graph: nx.DiGraph, source: str, cost: Optional[TraversalCost] = None
) -> Dict[str, int]:
    """BFS distances from ``source``, counting every edge traversal."""
    if source not in graph:
        raise WebLabError(f"no page {source!r} in graph")
    cost = cost if cost is not None else TraversalCost()
    distances = {source: 0}
    frontier = [source]
    while frontier:
        next_frontier: List[str] = []
        for node in frontier:
            for neighbor in graph.successors(node):
                cost.charge()
                if neighbor not in distances:
                    distances[neighbor] = distances[node] + 1
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return distances


def pagerank_with_cost(
    graph: nx.DiGraph,
    iterations: int = 20,
    damping: float = 0.85,
    cost: Optional[TraversalCost] = None,
) -> Dict[str, float]:
    """Power-iteration PageRank, counting edge traversals per sweep."""
    if graph.number_of_nodes() == 0:
        raise WebLabError("empty graph")
    cost = cost if cost is not None else TraversalCost()
    nodes = list(graph.nodes())
    n = len(nodes)
    rank = {node: 1.0 / n for node in nodes}
    for _ in range(iterations):
        new_rank = {node: (1.0 - damping) / n for node in nodes}
        dangling = 0.0
        for node in nodes:
            out_degree = graph.out_degree(node)
            if out_degree == 0:
                dangling += rank[node]
                continue
            share = damping * rank[node] / out_degree
            for neighbor in graph.successors(node):
                cost.charge()
                new_rank[neighbor] += share
        if dangling:
            for node in nodes:
                new_rank[node] += damping * dangling / n
        rank = new_rank
    return rank
