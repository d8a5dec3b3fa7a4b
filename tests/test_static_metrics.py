import random

import networkx as nx
import pytest

from dtnmetrics import (
    AggregatedGraph,
    AnalysisPeriod,
    CentralityScore,
    ContactEvent,
    ContactTrace,
    aggregate,
    betweenness_centrality,
    betweenness_centrality_all,
    clip_to_period,
    closeness_centrality,
    closeness_centrality_all,
    degree,
    degree_centrality,
    degree_centrality_all,
    static_average_distance,
    static_diameter,
)
from dtnmetrics import temporal_metrics

from . import oracles
from .conftest import star_trace


def path_trace(n: int) -> ContactTrace:
    """One-window path graph 0-1-...-(n-1)."""
    events = [ContactEvent(i, i + 1, i, i + 1) for i in range(n - 1)]
    return ContactTrace.from_events(events, span=(0, 100))


class TestAggregate:
    def test_collapses_repeat_contacts(self):
        trace = ContactTrace.from_events(
            [ContactEvent(0, 1, 0, 1), ContactEvent(1, 0, 5, 6)]
        )
        g = aggregate(trace)
        assert g.edges == frozenset({(0, 1)})

    def test_respects_period(self):
        trace = ContactTrace.from_events(
            [ContactEvent(0, 1, 0, 1), ContactEvent(2, 3, 50, 60)]
        )
        g = aggregate(clip_to_period(trace, AnalysisPeriod(40, 70)))
        assert g.edges == frozenset({(2, 3)})

    def test_isolated_known_nodes_kept(self):
        trace = ContactTrace.from_events([ContactEvent(0, 1, 0, 1)], extra_nodes=[9])
        assert 9 in aggregate(trace).nodes


class TestDegree:
    def test_hub_degree_is_six(self):
        # [PAPER] the six-leaf star's central node has degree 6
        g = aggregate(star_trace(6))
        assert degree(g, 0) == 6

    def test_leaf_degree(self):
        g = aggregate(star_trace(6))
        assert degree(g, 3) == 1

    def test_degree_centrality_normalized(self):
        g = aggregate(star_trace(6))
        assert degree_centrality(g, 0).value == 1.0
        assert degree_centrality(g, 1).value == pytest.approx(1 / 6)

    def test_unknown_node_rejected(self):
        g = aggregate(star_trace(3))
        with pytest.raises(KeyError):
            degree(g, 42)

    def test_all_nodes_match_one_node_at_a_time(self):
        rnd = random.Random(5)
        for _ in range(30):
            n = rnd.randint(2, 9)
            events = [
                ContactEvent(a, b, 0, 1)
                for a in range(n)
                for b in range(a, n)
                if rnd.random() < 0.3
            ]
            g = aggregate(ContactTrace.from_events(events, extra_nodes=range(n)))
            assert degree_centrality_all(g) == [degree_centrality(g, i) for i in range(n)]

    def test_all_nodes_need_two_nodes(self):
        g = aggregate(ContactTrace.from_events([], extra_nodes=[0]))
        with pytest.raises(ValueError):
            degree_centrality_all(g)

    def test_single_node_score_needs_two_nodes(self):
        g = aggregate(ContactTrace.from_events([], extra_nodes=[0]))
        with pytest.raises(ValueError, match="at least 2 nodes"):
            degree_centrality(g, 0)


class TestCloseness:
    def test_star_hub(self):
        g = aggregate(star_trace(6))
        assert closeness_centrality(g, 0).value == pytest.approx(1.0)

    def test_path_endpoint(self):
        g = aggregate(path_trace(4))
        # distances 1+2+3 = 6 -> 3/6
        assert closeness_centrality(g, 0).value == pytest.approx(0.5)

    def test_isolated_node_scores_zero(self):
        trace = ContactTrace.from_events([ContactEvent(0, 1, 0, 1)], extra_nodes=[9])
        g = aggregate(trace)
        assert closeness_centrality(g, 9).value == 0.0

    def test_disconnected_graph_stays_in_unit_interval(self):
        trace = ContactTrace.from_events(
            [ContactEvent(0, 1, 0, 1), ContactEvent(2, 3, 2, 3)]
        )
        g = aggregate(trace)
        assert 0.0 <= closeness_centrality(g, 0).value <= 1.0


class TestBetweenness:
    def test_star_hub_is_one(self):
        # [PAPER] Figure-3 star: C_hub = 36/36 = 1.0
        g = aggregate(star_trace(6))
        assert betweenness_centrality(g, 0).value == 1.0

    def test_star_leaves_are_zero(self):
        g = aggregate(star_trace(6))
        scores = {s.node: s.value for s in betweenness_centrality_all(g)}
        assert all(scores[leaf] == 0.0 for leaf in range(1, 7))

    def test_path_middle_node(self):
        g = aggregate(path_trace(3))
        assert betweenness_centrality(g, 1).value == 1.0

    def test_below_three_nodes_scores_zero(self):
        for nodes, edges in (({0, 1}, {(0, 1)}), ({4}, {(4, 4)}), ({4}, set())):
            got = betweenness_centrality_all(graph_of(nodes, edges))
            assert got == [CentralityScore(v, 0.0) for v in sorted(nodes)]

    def test_matches_enumeration_oracle(self):
        rnd = random.Random(7)
        for _ in range(30):
            n = rnd.randint(3, 8)
            events = [
                ContactEvent(a, b, 0, 1)
                for a in range(n)
                for b in range(a + 1, n)
                if rnd.random() < 0.4
            ]
            trace = ContactTrace.from_events(events, extra_nodes=range(n))
            g = aggregate(trace)
            got = {s.node: s.value for s in betweenness_centrality_all(g)}
            want = oracles.static_betweenness(sorted(g.nodes), g.edges)
            for node in g.nodes:
                assert got[node] == pytest.approx(want[node], abs=1e-9)


class TestDistancesAndDiameter:
    def test_path_average_distance(self):
        # path 0-1-2: ordered distances 1,1,1,1,2,2 -> 8/6
        assert static_average_distance(aggregate(path_trace(3))) == pytest.approx(8 / 6)

    def test_disconnected_pairs_excluded(self):
        trace = ContactTrace.from_events(
            [ContactEvent(0, 1, 0, 1), ContactEvent(2, 3, 2, 3)]
        )
        assert static_average_distance(aggregate(trace)) == 1.0

    def test_no_edges_rejected(self):
        trace = ContactTrace.from_events([], extra_nodes=[0, 1])
        with pytest.raises(ValueError):
            static_average_distance(aggregate(trace))
        with pytest.raises(ValueError, match="at least one edge"):
            static_diameter(aggregate(trace))

    def test_diameter(self):
        assert static_diameter(aggregate(path_trace(5))) == 4
        assert static_diameter(aggregate(star_trace(6))) == 2


def graph_of(nodes, edges) -> AggregatedGraph:
    """The aggregated graph of one contact per edge over ``nodes``."""
    events = [ContactEvent(a, b, 0, 0) for a, b in edges]
    return aggregate(ContactTrace.from_events(events, extra_nodes=nodes))


def random_graph(rnd: random.Random) -> AggregatedGraph:
    """Sparse ids split into up to three parts with no edge between them,
    some isolated nodes and some self-loops."""
    ids = rnd.sample(range(500), rnd.randint(3, 16))
    parts = [rnd.randrange(3) for _ in ids]
    p = rnd.uniform(0.1, 0.6)
    edges = {
        (a, b)
        for x, a in enumerate(ids)
        for y, b in enumerate(ids)
        if x <= y and parts[x] == parts[y] and rnd.random() < (p if x < y else 0.1)
    }
    edges |= {(a, a) for a in rnd.sample(ids, 2)}
    return graph_of(ids, edges)


def assert_matches_networkx(g: AggregatedGraph) -> None:
    graph = nx.Graph()
    graph.add_nodes_from(g.nodes)
    graph.add_edges_from(g.edges)
    lengths = dict(nx.all_pairs_shortest_path_length(graph))
    off = [d for u, row in lengths.items() for v, d in row.items() if u != v]
    if off:
        assert static_average_distance(g) == sum(off) / len(off)
    else:
        with pytest.raises(ValueError):
            static_average_distance(g)
    assert static_diameter(g) == max(max(row.values()) for row in lengths.values())
    # a self-loop is no link, in the one pass and in degree() alike
    want = [CentralityScore(v, len(set(graph[v]) - {v}) / (len(g.nodes) - 1))
            for v in sorted(g.nodes)]
    assert degree_centrality_all(g) == want
    assert [degree_centrality(g, v) for v in sorted(g.nodes)] == want
    want = nx.closeness_centrality(graph, wf_improved=True)
    assert closeness_centrality_all(g) == [CentralityScore(v, want[v]) for v in sorted(g.nodes)]
    for v in g.nodes:
        assert closeness_centrality(g, v).value == want[v]
    want = nx.betweenness_centrality(graph, normalized=True)
    got = betweenness_centrality_all(g)
    assert [s.node for s in got] == sorted(g.nodes)
    for s in got:
        assert s.value == pytest.approx(want[s.node], rel=0, abs=1e-12)


class TestMatchesNetworkx:
    """networkx is the reference for the one-window hop matrix and sweep."""

    def test_random_graphs(self):
        rnd = random.Random(11)
        for _ in range(300):
            assert_matches_networkx(random_graph(rnd))

    @pytest.mark.parametrize("budget", [1, 7, 50])
    def test_hop_matrix_in_small_blocks(self, monkeypatch, budget):
        monkeypatch.setattr(temporal_metrics, "_BLOCK_ELEMENTS", budget)
        rnd = random.Random(13)
        for _ in range(40):
            assert_matches_networkx(random_graph(rnd))

    def test_betweenness_matches_enumeration_oracle(self):
        rnd = random.Random(12)
        for _ in range(100):
            g = random_graph(rnd)
            want = oracles.static_betweenness(sorted(g.nodes), g.edges)
            for s in betweenness_centrality_all(g):
                assert s.value == pytest.approx(want[s.node], rel=0, abs=1e-12)

    def test_long_path_and_ring(self):
        n = 120
        path = frozenset((i, i + 1) for i in range(n - 1))
        ring = path | {(0, n - 1)}
        for edges in (path, ring):
            g = graph_of(range(n), edges)
            assert_matches_networkx(g)
        assert static_diameter(graph_of(range(n), path)) == n - 1

    @pytest.mark.parametrize(
        "edges", [{(2, 5)}, {(2, 5), (5, 5)}, {(2, 2)}], ids=["edge", "edge-loop", "loop"]
    )
    def test_two_node_graphs(self, edges):
        assert_matches_networkx(graph_of({2, 5}, edges))

    def test_only_self_loops(self):
        g = graph_of({3, 7, 9}, {(3, 3), (9, 9)})
        assert_matches_networkx(g)
        assert static_diameter(g) == 0
