"""Aggregated-graph baselines.

Collapsing every contact in a period into a simultaneous edge hides
time order and overestimates connectivity; these are the comparison
columns reported next to the temporal metrics.

The aggregated graph is the temporal graph seen through one window over
the whole period: :func:`aggregate` takes the trace's distinct pairs as the
contacts of a one-window :class:`SnapshotSequence`, and every metric reads
its columns. One ``temporal_metrics.shortest_journeys`` sweep, on one window
Brandes' algorithm, gives the betweenness and the hop matrix (-1 for
unreachable pairs) that the distances and closeness read. A self-contact
row stays an edge u -> u, on no shortest path and no link in degree.
Callers clip the trace to a period before aggregating.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .temporal_metrics import CentralityScore, shortest_journeys
from .trace_model import ContactTrace, column_of
from .windowing import SnapshotSequence


@dataclass(frozen=True)
class AggregatedGraph:
    """Undirected simple graph, an edge per pair with >= 1 contact, viewed
    as ``window``: one window whose contacts are the distinct pairs."""

    window: SnapshotSequence

    @property
    def n(self) -> int:
        return len(self.window.nodes)

    @cached_property
    def nodes(self) -> frozenset[int]:
        return frozenset(self.window.nodes)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The distinct pairs in node ids."""
        ids = self.window.nodes.__getitem__
        _, a, b = self.window.contacts.T.tolist()
        return frozenset(zip(map(ids, a), map(ids, b)))

    @cached_property
    def _journeys(self) -> tuple[list[CentralityScore], np.ndarray]:
        return shortest_journeys(self.window)

    @property
    def hops(self) -> np.ndarray:
        """N x N fewest hops between ``window.nodes``, -1 where unreachable."""
        return self._journeys[1]


def aggregate(trace: ContactTrace) -> AggregatedGraph:
    """Collapse all contacts of the trace into one static graph."""
    order, first = trace._by_pair()
    rows = order[first]
    contacts = np.stack([np.zeros(len(rows), np.intp), trace.a[rows], trace.b[rows]], axis=1)
    return AggregatedGraph(SnapshotSequence(1.0, 1, contacts, trace.labels))


def static_average_distance(g: AggregatedGraph) -> float:
    """Mean hop count over ordered reachable pairs.

    Unreachable pairs are excluded from numerator and denominator;
    day-slice traces are often disconnected and would otherwise have no
    finite mean.
    """
    if not len(g.window.contacts):
        raise ValueError("static average distance needs at least one edge")
    reached = g.hops[g.hops > 0]
    if reached.size == 0:
        raise ValueError("no connected pairs")
    return int(reached.sum()) / reached.size


def degree(g: AggregatedGraph, i: int) -> int:
    """Raw link count of node i: its edges to other nodes."""
    c = column_of(g.window.nodes, i)
    _, a, b = g.window.contacts.T
    return int(np.count_nonzero(((a == c) | (b == c)) & (a != b)))


def degree_centrality(g: AggregatedGraph, i: int) -> CentralityScore:
    """Degree normalized by N-1."""
    if g.n < 2:
        raise ValueError("degree centrality needs at least 2 nodes")
    return CentralityScore(i, degree(g, i) / (g.n - 1))


def closeness_centrality(g: AggregatedGraph, i: int) -> CentralityScore:
    """Normalized closeness: (r-1)/sum(d) scaled by (r-1)/(N-1) where r is
    the size of i's component, so disconnected graphs stay within [0, 1].
    Equals (N-1)/sum(d) on connected graphs; isolated nodes score 0. The
    hops come from the whole-graph sweep, run on ``g``'s first use."""
    c = column_of(g.window.nodes, i)
    return _closeness(g, slice(c, c + 1))[0]


def betweenness_centrality(g: AggregatedGraph, i: int) -> CentralityScore:
    """Ordered-pair-normalized shortest-path betweenness, read from the
    whole-graph sweep, run on ``g``'s first use."""
    c = column_of(g.window.nodes, i)
    return betweenness_centrality_all(g)[c]


def betweenness_centrality_all(g: AggregatedGraph) -> list[CentralityScore]:
    """betweenness_centrality of every node, in ascending node id (0 below 3)."""
    return list(g._journeys[0])


def degree_centrality_all(g: AggregatedGraph) -> list[CentralityScore]:
    """degree_centrality of every node in one pass (a self-loop is no link)."""
    if g.n < 2:
        raise ValueError("degree centrality needs at least 2 nodes")
    _, a, b = g.window.contacts.T
    link = a != b
    links = np.bincount(np.concatenate([a[link], b[link]]), minlength=g.n).tolist()
    return [CentralityScore(i, k / (g.n - 1)) for i, k in zip(g.window.nodes, links)]


def closeness_centrality_all(g: AggregatedGraph) -> list[CentralityScore]:
    """closeness_centrality of every node, in ascending node id."""
    return _closeness(g, slice(None))


def _closeness(g: AggregatedGraph, rows: slice) -> list[CentralityScore]:
    """closeness_centrality of the nodes of the hop rows ``rows``."""
    reached = g.hops[rows] >= 0
    sizes = reached.sum(axis=1).tolist()
    totals = np.where(reached, g.hops[rows], 0).sum(axis=1).tolist()
    return [CentralityScore(node, (r - 1.0) / total * ((r - 1.0) / (g.n - 1)) if total else 0.0)
            for node, r, total in zip(g.window.nodes[rows], sizes, totals)]


def static_diameter(g: AggregatedGraph) -> int:
    """Maximum finite shortest-path length over pairs."""
    if not len(g.window.contacts):
        raise ValueError("static diameter needs at least one edge")
    return int(g.hops.max())
