"""Aggregated-graph baselines.

Collapsing every contact in a period into a simultaneous edge hides
time order and overestimates connectivity; these are the comparison
columns reported next to the temporal metrics.

The aggregated graph is the temporal graph seen through one window over
the whole period, a one-window :class:`SnapshotSequence`. Its hop matrix
(``temporal_metrics.hop_matrix``, -1 for unreachable pairs) gives the
distances and closeness; its temporal betweenness sweep is, on one window,
Brandes' algorithm. Callers clip the trace to a period before aggregating.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .temporal_metrics import CentralityScore, hop_matrix, temporal_betweenness_all
from .trace_model import ContactTrace, groups
from .windowing import SnapshotSequence


@dataclass(frozen=True)
class AggregatedGraph:
    """Undirected simple graph: an edge per pair with >= 1 contact."""

    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]

    @property
    def n(self) -> int:
        return len(self.nodes)

    @cached_property
    def _columns(self) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
        """The sorted nodes, and the two end columns of the edges as
        indices into them."""
        nodes = tuple(sorted(self.nodes))
        column = dict(zip(nodes, range(len(nodes)))).__getitem__
        ends = tuple(zip(*self.edges)) or ((), ())
        a, b = (np.fromiter(map(column, end), np.intp, len(self.edges)) for end in ends)
        return nodes, a, b

    @cached_property
    def window(self) -> SnapshotSequence:
        """The graph as one window over the sorted nodes; self-loops are
        dropped, since a self-loop is on no shortest path."""
        nodes, a, b = self._columns
        loop = a == b
        lo, hi = np.minimum(a, b)[~loop], np.maximum(a, b)[~loop]
        order, first = groups(lo * len(nodes) + hi)
        rows = order[first]
        contacts = np.stack([np.zeros(len(rows), np.intp), lo[rows], hi[rows]], axis=1)
        return SnapshotSequence(1.0, 1, contacts, nodes)

    @cached_property
    def hops(self) -> np.ndarray:
        """N x N fewest hops between ``window.nodes``, -1 where unreachable."""
        return hop_matrix(self.window)


def aggregate(trace: ContactTrace) -> AggregatedGraph:
    """Collapse all contacts of the trace into one static graph."""
    ids = trace.labels.__getitem__
    edges = frozenset(zip(map(ids, trace.a.tolist()), map(ids, trace.b.tolist())))
    return AggregatedGraph(trace.nodes, edges)


def static_average_distance(g: AggregatedGraph) -> float:
    """Mean hop count over ordered reachable pairs.

    Unreachable pairs are excluded from numerator and denominator;
    day-slice traces are often disconnected and would otherwise have no
    finite mean.
    """
    if not g.edges:
        raise ValueError("static average distance needs at least one edge")
    reached = g.hops[g.hops > 0]
    if reached.size == 0:
        raise ValueError("no connected pairs")
    return int(reached.sum()) / reached.size


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
    return closeness_centrality_all(g)[g.window.nodes.index(i)]


def betweenness_centrality(g: AggregatedGraph, i: int) -> CentralityScore:
    """Ordered-pair-normalized shortest-path betweenness."""
    if i not in g.nodes:
        raise KeyError(f"unknown node id {i}")
    return betweenness_centrality_all(g)[g.window.nodes.index(i)]


def betweenness_centrality_all(g: AggregatedGraph) -> list[CentralityScore]:
    if g.n < 3:
        raise ValueError("betweenness centrality needs at least 3 nodes")
    return temporal_betweenness_all(g.window)


def degree_centrality_all(g: AggregatedGraph) -> list[CentralityScore]:
    """degree_centrality of every node in one pass (a self-loop counts once)."""
    if g.n < 2:
        raise ValueError("degree centrality needs at least 2 nodes")
    nodes, a, b = g._columns
    links = np.bincount(np.concatenate([a, b[a != b]]), minlength=len(nodes)).tolist()
    return [CentralityScore(i, k / (g.n - 1)) for i, k in zip(nodes, links)]


def closeness_centrality_all(g: AggregatedGraph) -> list[CentralityScore]:
    reached = g.hops >= 0
    sizes = reached.sum(axis=1).tolist()
    totals = np.where(reached, g.hops, 0).sum(axis=1).tolist()
    return [
        CentralityScore(node, (r - 1.0) / total * ((r - 1.0) / (g.n - 1)) if total else 0.0)
        for node, r, total in zip(g.window.nodes, sizes, totals)
    ]


def static_diameter(g: AggregatedGraph) -> int:
    """Maximum finite shortest-path length over pairs."""
    if not g.edges:
        raise ValueError("static diameter needs at least one edge")
    return int(g.hops.max())
