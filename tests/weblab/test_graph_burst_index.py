"""Tests for web-graph analytics, the cluster model, bursts, and the index."""

import networkx as nx
import pytest

from repro.core.errors import WebLabError
from repro.weblab.burst import detect_bursts, term_time_series
from repro.weblab.cluster import (
    ClusterCost,
    PartitionedGraph,
    compare_locality,
    single_machine_time,
)
from repro.weblab.textindex import TextIndex, build_index, tokenize
from repro.weblab.webgraph import (
    TraversalCost,
    bfs_with_cost,
    compute_stats,
    load_web_graph,
    pagerank_with_cost,
)


@pytest.fixture(scope="module")
def crawl_graph(built_weblab):
    weblab, _, _ = built_weblab
    last = weblab.database.crawl_indexes()[-1]
    return load_web_graph(weblab.database, last)


class TestWebGraph:
    def test_load_includes_isolated_pages(self, built_weblab):
        weblab, _, _ = built_weblab
        last = weblab.database.crawl_indexes()[-1]
        graph = load_web_graph(weblab.database, last)
        assert graph.number_of_nodes() >= weblab.database.page_count(last)

    def test_stats_shape(self, crawl_graph):
        stats = compute_stats(crawl_graph)
        assert stats.nodes == crawl_graph.number_of_nodes()
        assert stats.edges == crawl_graph.number_of_edges()
        assert 0 < stats.largest_component_fraction <= 1
        assert len(stats.top_pages) == 5
        assert stats.max_in_degree >= 1

    def test_empty_crawl_rejected(self, built_weblab):
        weblab, _, _ = built_weblab
        with pytest.raises(WebLabError):
            load_web_graph(weblab.database, 999)

    def test_bfs_counts_every_traversal(self):
        graph = nx.DiGraph([("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")])
        cost = TraversalCost()
        distances = bfs_with_cost(graph, "a", cost)
        assert distances == {"a": 0, "b": 1, "c": 1, "d": 2}
        assert cost.edge_visits == 4

    def test_bfs_unknown_source(self):
        with pytest.raises(WebLabError):
            bfs_with_cost(nx.DiGraph([("a", "b")]), "zz")

    def test_pagerank_matches_networkx(self, crawl_graph):
        ours = pagerank_with_cost(crawl_graph, iterations=50)
        reference = nx.pagerank(crawl_graph, alpha=0.85, max_iter=100)
        top_ours = max(ours, key=ours.get)
        top_reference = max(reference, key=reference.get)
        assert top_ours == top_reference
        assert ours[top_ours] == pytest.approx(reference[top_reference], rel=0.05)

    def test_pagerank_sums_to_one(self, crawl_graph):
        ranks = pagerank_with_cost(crawl_graph, iterations=30)
        assert sum(ranks.values()) == pytest.approx(1.0, rel=1e-6)


class TestClusterModel:
    def test_partition_covers_all_workers(self, crawl_graph):
        partitioned = PartitionedGraph(crawl_graph, 8)
        workers = {partitioned.worker_of(node) for node in crawl_graph.nodes()}
        assert workers == set(range(8))

    def test_single_worker_is_all_local(self, crawl_graph):
        partitioned = PartitionedGraph(crawl_graph, 1)
        _, cost = partitioned.pagerank(iterations=1)
        assert cost.remote_visits == 0

    def test_remote_fraction_grows_with_workers(self, crawl_graph):
        fractions = [
            PartitionedGraph(crawl_graph, k).pagerank(iterations=1)[1].remote_fraction
            for k in (2, 8, 64)
        ]
        assert fractions[0] < fractions[1] < fractions[2]
        # Random partitioning: remote fraction approaches (k-1)/k.
        assert fractions[2] > 0.9

    def test_cluster_results_identical_to_single_machine(self, crawl_graph):
        partitioned = PartitionedGraph(crawl_graph, 16)
        ranks_cluster, _ = partitioned.pagerank(iterations=30)
        ranks_single = pagerank_with_cost(crawl_graph, iterations=30)
        for node in crawl_graph.nodes():
            assert ranks_cluster[node] == pytest.approx(ranks_single[node])

    def test_cluster_pays_latency(self, crawl_graph):
        comparison = compare_locality(crawl_graph, 16, workload="pagerank")
        assert comparison.slowdown > 100
        assert comparison.cluster.seconds > comparison.single_machine.seconds

    def test_bfs_workload(self, crawl_graph):
        source = next(iter(crawl_graph.nodes()))
        comparison = compare_locality(crawl_graph, 8, workload="bfs", source=source)
        assert comparison.edge_visits > 0

    def test_validation(self, crawl_graph):
        with pytest.raises(WebLabError):
            PartitionedGraph(crawl_graph, 0)
        with pytest.raises(WebLabError):
            compare_locality(crawl_graph, 4, workload="sorting")
        with pytest.raises(WebLabError):
            compare_locality(crawl_graph, 4, workload="bfs")  # no source

    def test_cost_arithmetic(self):
        cost = ClusterCost(local_visits=1000, remote_visits=1000)
        assert cost.remote_fraction == 0.5
        assert cost.elapsed().seconds > single_machine_time(2000).seconds


class TestBurstDetection:
    def test_clear_burst_detected(self):
        counts = [5, 5, 6, 40, 45, 38, 6, 5]
        totals = [1000] * 8
        intervals = detect_bursts(counts, totals, scaling=3.0)
        assert len(intervals) == 1
        assert intervals[0].start == 3
        assert intervals[0].end == 5
        assert intervals[0].weight > 0

    def test_flat_series_has_no_bursts(self):
        assert detect_bursts([5] * 10, [1000] * 10, scaling=3.0) == []

    def test_two_bursts_decoded_separately(self):
        counts = [5, 50, 5, 5, 50, 5]
        totals = [1000] * 6
        intervals = detect_bursts(counts, totals, scaling=3.0, gamma=0.5)
        assert [(i.start, i.end) for i in intervals] == [(1, 1), (4, 4)]

    def test_validation(self):
        with pytest.raises(WebLabError):
            detect_bursts([1], [10, 20], scaling=3.0)
        with pytest.raises(WebLabError):
            detect_bursts([5], [3], scaling=3.0)  # count > total
        with pytest.raises(WebLabError):
            detect_bursts([1], [10], scaling=1.0)
        with pytest.raises(WebLabError):
            detect_bursts([0], [0], scaling=3.0)
        assert detect_bursts([], [], scaling=3.0) == []

    def test_ground_truth_burst_found_in_weblab(self, built_weblab):
        """The weblog burst injected at crawls 3-5 is recovered."""
        weblab, _, web = built_weblab
        bursts = weblab.services.detect_bursts(["blog"], scaling=1.5, min_weight=3.0)
        assert "blog" in bursts
        truth = web.config.bursts[0]
        assert any(
            interval.start <= truth.end_crawl and truth.start_crawl <= interval.end
            for interval in bursts["blog"]
        )

    def test_term_time_series(self):
        slices = [["a b a", "c"], ["a"], []]
        counts, totals = term_time_series(slices, "a")
        assert counts == [2, 1, 0]
        assert totals == [4, 1, 0]


class TestTextIndex:
    def test_tokenize(self):
        assert tokenize("Hello, World! 42") == ["hello", "world", "42"]

    def test_conjunctive_search(self):
        index = build_index(
            [
                ("u1", "pulsar telescope survey"),
                ("u2", "pulsar data only"),
                ("u3", "telescope optics"),
            ]
        )
        hits = index.search("pulsar telescope")
        assert [hit.url for hit in hits] == ["u1"]

    def test_scoring_prefers_denser_documents(self):
        index = build_index(
            [
                ("dense", "pulsar pulsar pulsar"),
                ("sparse", "pulsar " + "filler " * 50),
            ]
        )
        hits = index.search("pulsar")
        assert hits[0].url == "dense"

    def test_stopwords_ignored(self):
        index = build_index([("u1", "the pulsar of the survey")])
        with pytest.raises(WebLabError):
            index.search("the of")
        assert index.search("pulsar")[0].url == "u1"

    def test_reindex_replaces(self):
        index = TextIndex()
        index.add("u1", "old content words")
        index.add("u1", "new stuff entirely")
        assert index.search("new")[0].url == "u1"
        assert index.search("old") == []
        assert len(index) == 1

    def test_remove(self):
        index = TextIndex()
        index.add("u1", "something here")
        index.remove("u1")
        assert len(index) == 0
        assert index.vocabulary_size == 0
        with pytest.raises(WebLabError):
            index.remove("u1")

    def test_miss_returns_empty(self):
        index = build_index([("u1", "alpha beta")])
        assert index.search("gamma") == []

    def test_remove_leaves_shared_terms_intact(self):
        index = build_index(
            [("u1", "pulsar survey"), ("u2", "pulsar archive")]
        )
        index.remove("u1")
        assert index.search("survey") == []
        assert [hit.url for hit in index.search("pulsar")] == ["u2"]

    def test_add_many_matches_incremental_adds(self):
        documents = [
            ("u1", "pulsar telescope survey"),
            ("u2", "pulsar data only"),
            ("u2", "replacement pulsar text"),  # later duplicate wins
            ("u3", "telescope optics"),
        ]
        batched = TextIndex()
        batched.add_many(documents)
        incremental = TextIndex()
        for url, text in documents:
            incremental.add(url, text)
        assert batched._postings == incremental._postings
        assert batched._doc_lengths == incremental._doc_lengths
        assert len(batched) == 3
        assert batched.search("replacement")[0].url == "u2"

    def test_add_many_replaces_existing_documents(self):
        index = TextIndex()
        index.add("u1", "ancient words")
        index.add_many([("u1", "modern words"), ("u2", "other page")])
        assert index.search("ancient") == []
        assert index.search("modern")[0].url == "u1"
        assert len(index) == 2

    def test_snapshot_documents_feed_bulk_build(self):
        from repro.weblab.synthweb import SyntheticWeb, SyntheticWebConfig

        web = SyntheticWeb(SyntheticWebConfig(seed=5))
        snapshot = web.generate_crawls(2)[-1]
        index = build_index([(page.url, page.content) for page in snapshot.pages])
        assert len(index) == snapshot.page_count

    def test_index_over_built_weblab(self, built_weblab):
        weblab, _, _ = built_weblab
        last = weblab.database.crawl_indexes()[-1]
        index = weblab.services.build_text_index(last)
        assert len(index) == weblab.database.page_count(last)
        hits = index.search("pulsar")
        assert hits  # astronomy topic pages exist
