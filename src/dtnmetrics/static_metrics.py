"""Aggregated-graph baselines.

Collapsing every contact in a period into a simultaneous edge hides
time order and overestimates connectivity; these are the comparison
columns reported next to the temporal metrics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import networkx as nx

from .temporal_metrics import CentralityScore
from .trace_model import AnalysisPeriod, ContactTrace


@dataclass(frozen=True)
class AggregatedGraph:
    """Undirected simple graph: an edge per pair with >= 1 contact."""

    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]

    def to_networkx(self) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(self.nodes)
        g.add_edges_from(self.edges)
        return g

    @property
    def n(self) -> int:
        return len(self.nodes)


def aggregate(trace: ContactTrace, period: AnalysisPeriod | None = None) -> AggregatedGraph:
    """Collapse all contacts in the period into one static graph."""
    if period is not None:
        from .ingestion import clip_to_period

        trace = clip_to_period(trace, period)
    edges = frozenset(ev.pair for ev in trace.events)
    return AggregatedGraph(frozenset(trace.nodes), edges)


def static_average_distance(g: AggregatedGraph) -> float:
    """Mean hop count over ordered reachable pairs.

    Unreachable pairs are excluded from numerator and denominator;
    day-slice traces are often disconnected and would otherwise have no
    finite mean.
    """
    if not g.edges:
        raise ValueError("static average distance needs at least one edge")
    graph = g.to_networkx()
    total = 0
    count = 0
    for src, dists in nx.all_pairs_shortest_path_length(graph):
        for dst, d in dists.items():
            if dst != src:
                total += d
                count += 1
    if count == 0:
        raise ValueError("no connected pairs")
    return total / count


def degree(g: AggregatedGraph, i: int) -> int:
    """Raw link count of node i."""
    if i not in g.nodes:
        raise KeyError(f"unknown node id {i}")
    return sum(1 for e in g.edges if i in e)


def degree_centrality(g: AggregatedGraph, i: int) -> CentralityScore:
    """Degree normalized by N-1."""
    if g.n < 2:
        raise ValueError("degree centrality needs at least 2 nodes")
    return CentralityScore(i, degree(g, i) / (g.n - 1))


def closeness_centrality(g: AggregatedGraph, i: int) -> CentralityScore:
    """Normalized closeness: (r-1)/sum(d) scaled by (r-1)/(N-1) where r is
    the size of i's component, so disconnected graphs stay within [0, 1].
    Equals (N-1)/sum(d) on connected graphs; isolated nodes score 0."""
    if i not in g.nodes:
        raise KeyError(f"unknown node id {i}")
    value = nx.closeness_centrality(g.to_networkx(), u=i, wf_improved=True)
    return CentralityScore(i, value)


def betweenness_centrality(g: AggregatedGraph, i: int) -> CentralityScore:
    """Ordered-pair-normalized shortest-path betweenness."""
    if i not in g.nodes:
        raise KeyError(f"unknown node id {i}")
    return betweenness_centrality_all(g)[sorted(g.nodes).index(i)]


def betweenness_centrality_all(g: AggregatedGraph) -> list[CentralityScore]:
    if g.n < 3:
        raise ValueError("betweenness centrality needs at least 3 nodes")
    values = nx.betweenness_centrality(g.to_networkx(), normalized=True)
    return [CentralityScore(node, values[node]) for node in sorted(g.nodes)]


def degree_centrality_all(g: AggregatedGraph) -> list[CentralityScore]:
    """degree_centrality of every node in one pass (a self-loop counts once)."""
    if g.n < 2:
        raise ValueError("degree centrality needs at least 2 nodes")
    links = Counter(node for edge in g.edges for node in set(edge))
    return [CentralityScore(i, links[i] / (g.n - 1)) for i in sorted(g.nodes)]


def closeness_centrality_all(g: AggregatedGraph) -> list[CentralityScore]:
    graph = g.to_networkx()
    values = nx.closeness_centrality(graph, wf_improved=True)
    return [CentralityScore(node, values[node]) for node in sorted(g.nodes)]


def static_diameter(g: AggregatedGraph) -> int:
    """Maximum finite shortest-path length over pairs."""
    if not g.edges:
        raise ValueError("static diameter needs at least one edge")
    graph = g.to_networkx()
    best = 0
    for _, dists in nx.all_pairs_shortest_path_length(graph):
        if dists:
            best = max(best, max(dists.values()))
    return best
