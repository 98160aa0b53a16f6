"""C11 — web-graph analysis: one large machine vs a commodity cluster
(Section 4.2).

Paper claim regenerated here: "It is much easier to study the graph if it
is loaded into the memory of a single large computer than distributed
across many smaller ones, because network latency would be a serious
concern [...] the decision was made to [...] store the meta-information in
a relational database on a single high-performance computer."

The harness runs identical PageRank/BFS workloads through an in-memory
graph and through the same graph hash-partitioned over k workers, pricing
local edges at a memory access and cut edges at a network round trip.
"""

import pytest

from repro.weblab.cluster import PartitionedGraph, compare_locality
from repro.weblab.synthweb import SyntheticWeb, SyntheticWebConfig
from repro.weblab.webgraph import TraversalCost, bfs_with_cost, pagerank_with_cost

import networkx as nx


@pytest.fixture(scope="module")
def graph():
    web = SyntheticWeb(SyntheticWebConfig(seed=5, initial_pages=250,
                                          new_pages_per_crawl=80, links_per_page=5))
    crawl = web.generate_crawls(3)[-1]
    g = nx.DiGraph()
    for page in crawl.pages:
        g.add_node(page.url)
        for target in page.outlinks:
            g.add_edge(page.url, target)
    return g


def sweep(graph):
    rows = []
    for workers in (1, 4, 16, 64):
        comparison = compare_locality(graph, workers, workload="pagerank",
                                      iterations=10)
        rows.append(
            {
                "workers": workers,
                "edge visits": comparison.edge_visits,
                "remote fraction": f"{comparison.remote_fraction * 100:.0f} %",
                "single machine": str(comparison.single_machine),
                "cluster": str(comparison.cluster),
                "slowdown": f"{comparison.slowdown:,.0f}x",
                "_slowdown": comparison.slowdown,
            }
        )
    return rows


def test_c11_locality_sweep(graph, report_rows):
    rows = sweep(graph)
    slowdowns = [row["_slowdown"] for row in rows]
    # One worker is the single machine; more workers only add latency.
    assert slowdowns[0] == pytest.approx(1.0)
    assert slowdowns[1] > 100
    assert slowdowns[1] < slowdowns[2] < slowdowns[3]
    for row in rows:
        row.pop("_slowdown")
    report_rows("C11: PageRank, shared memory vs commodity cluster", rows)


def test_c11_answers_identical(graph, report_rows):
    """Distribution changes the clock, never the answer."""
    partitioned = PartitionedGraph(graph, 16)
    ranks_cluster, _ = partitioned.pagerank(iterations=15)
    ranks_single = pagerank_with_cost(graph, iterations=15)
    assert all(
        ranks_cluster[node] == pytest.approx(ranks_single[node])
        for node in graph.nodes()
    )
    source = max(graph.nodes(), key=lambda n: graph.out_degree(n))
    hops_cluster, cluster_cost = partitioned.bfs(source)
    single_cost = TraversalCost()
    assert bfs_with_cost(graph, source, single_cost) == hops_cluster
    assert single_cost.edge_visits == cluster_cost.total_visits
    report_rows("C11c: one machine and 16 workers give the same answers", [
        {"workload": workload, "answers compared": len(answers), "differing": 0}
        for workload, answers in (
            ("PageRank, 15 iterations", ranks_single), ("BFS from the top hub", hops_cluster)
        )
    ])


def test_c11_bfs_workload(graph, report_rows):
    source = max(graph.nodes(), key=lambda n: graph.out_degree(n))
    comparison = compare_locality(graph, 16, workload="bfs", source=source)
    assert comparison.slowdown > 100
    report_rows(
        "C11b: BFS link-chasing",
        [
            {
                "workload": "BFS from the top hub",
                "edge visits": comparison.edge_visits,
                "single machine": str(comparison.single_machine),
                "cluster (16 workers)": str(comparison.cluster),
                "slowdown": f"{comparison.slowdown:,.0f}x",
            }
        ],
    )
