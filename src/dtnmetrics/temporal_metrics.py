"""Temporal distance, diameter, closeness and betweenness.

Two reachability semantics coexist here:

* the occurrence-list semantics of :func:`temporal_distance_paper`:
  within a scan, any node occurring in an already-reached window can
  carry the message forward, so a whole window's occupant set is
  absorbed at once;
* the edge-respecting semantics of :func:`temporal_distance_exact`:
  a message moves only along actual contact edges, at most ``horizon``
  hops inside one window, forward in window order.

Both run on arrays cached by :class:`SnapshotSequence`: ``occupancy``,
``window_graphs``, ``next_occurrence`` (nxt) and ``infection_table`` (H).

The one scan schedule, :func:`_scan_schedule`, follows the chain of scans
each (source i, target j) pair is due for: the first starts at
``nxt[0, i]``, a scan from s hits ``H[s, j]``, the scan after a hit at t
starts at ``nxt[t + 1, i]``, and a miss ends the chain. All pairs advance
together, one vector step per link of the longest chain rather than one
per window; the matrix drops a pair once its best distance is 0.

The matrix keeps the best score per (source, target); the
edge-respecting distance walks the same (start, paper hit) schedule,
one hop marking both ends of each window contact with a reached end.
Sharing the schedule keeps the occurrence semantics at most as large as
the edge semantics pair by pair, and makes the two coincide whenever
every window's contact graph is connected over its occupants.

Temporal betweenness accumulates Brandes-style dependencies on the
time-expanded graph (Kim & Anderson, PRE 2012) in one sweep over
``window_graphs``, sources as rows and nodes as columns: a :func:`_forward`
step per occupied window, then a :func:`_backward` step per logged window in
reverse. Each window's 0/1 adjacency is filled from its contacts both ways;
one matmul with it per level (hops less the row's least hops in the
component) goes up, then down. A matching window, where no two contacts
share a node, gets none: each contact is a component, its least hops read
off the hops' pair-swapped view, and one closed-form hop to each column's
mate settles it both ways, the matmuls' sums less their exact zeros. The way
down measures each window's levels from its post-window hops, so the log
holds the pre-window hops and path counts, plus an arrival mask where a
state arrives (else None). On one window it is Brandes' BFS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .trace_model import (AnalysisPeriod, ContactTrace, InputError, WindowConfig, column_of,
                          row_order)
from .windowing import SnapshotSequence, build_snapshots

#: Matrix export encoding for temporally disconnected pairs.
UNREACHABLE_SENTINEL = -1

#: Rows times busiest-window directed edges per betweenness block. Every
#: occupant ends an edge, so this bounds each window step's rows x occupants
#: arrays, but neither the sweep's log of pre-window hops, counts and
#: arrival masks, O(rows x logged occupancy), nor its rows x N h, sigma,
#: delta and credit (the way back adds all of delta into credit at every
#: logged window).
_BLOCK_ELEMENTS = 1 << 16
_NO_HOPS = np.iinfo(np.int64).max // 2  # hop count of an unreached state


@dataclass(frozen=True)
class CentralityScore:
    """One node id's score under some centrality."""

    node: int
    value: float


@dataclass(frozen=True)
class TemporalDiameter:
    """Maximum finite temporal distance, in window hops and seconds."""

    hops: int
    seconds: float
    disconnected: bool = False


@dataclass(frozen=True)
class TemporalDistanceMatrix:
    """N x N window-hop distances; -1 encodes unreachable pairs.

    Rows/columns follow ``labels`` (ascending original node ids). Not
    symmetric in general: time order breaks symmetry.
    """

    labels: tuple[int, ...]
    entries: np.ndarray  # int array, shape (n, n)

    @property
    def n(self) -> int:
        return len(self.labels)

    def index_of(self, node: int) -> int:
        return column_of(self.labels, node)

    def distance(self, i: int, j: int) -> Optional[int]:
        """Window-hop distance between original ids, None if unreachable."""
        v = int(self.entries[self.index_of(i), self.index_of(j)])
        return None if v == UNREACHABLE_SENTINEL else v

    def to_text(self) -> str:
        """Row-major bracketed grid, -1 for unreachable."""
        row = "[" + ", ".join(["%d"] * self.n) + "]"
        rows = (row % tuple(r) for r in self.entries.tolist())
        return "[" + ",\n ".join(rows) + "]" if self.n else ""


def _scan_schedule(snapshots: SnapshotSequence, src: np.ndarray, dst: np.ndarray):
    """Yield the scans of the column pairs ``(src[k], dst[k])``, all pairs
    advancing together, as ``(pairs, s, hits, keep)``: the indices k of the
    pairs still scheduled, their scan start windows, their paper hits
    ``H[s, dst]`` (-1 for a miss) and the mask ``hits >= 0``.

    A pair's first scan starts at the source's first occurrence; after a
    hit at window t its next scan starts at ``nxt[t + 1, src]``, the first
    source occurrence past t. A miss, running out of source occurrences,
    or the caller clearing the pair's entry of ``keep`` ends its schedule;
    a pair with ``src == dst`` has none.
    """
    H, nxt = snapshots.infection_table, snapshots.next_occurrence
    pairs, s = np.arange(len(src)), nxt[0, src]
    keep = (src != dst) & (s < snapshots.window_count)
    while np.any(keep):
        pairs, s = pairs[keep], s[keep]
        hits = H[s, dst[pairs]]
        keep = hits >= 0
        yield pairs, s, hits, keep
        s = nxt[hits + 1, src[pairs]]
        keep &= s < snapshots.window_count


def _pair_distances(snapshots: SnapshotSequence, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Paper-algorithm distances of the column pairs ``(src[k], dst[k])``,
    -1 if unreachable."""
    best = np.full(len(src), UNREACHABLE_SENTINEL, dtype=np.int64)
    for pairs, s, hits, keep in _scan_schedule(snapshots, src, dst):
        d, prev = hits - s, best[pairs]
        best[pairs] = np.where(keep & ((prev < 0) | (d < prev)), d, prev)
        keep &= d > 0  # no later scan beats distance 0
    best[src == dst] = 0
    return best


def temporal_distance_paper(
    snapshots: SnapshotSequence, i: int, j: int
) -> Optional[int]:
    """Window-hop distance under occurrence-list semantics.

    Returns 0 for i == j and for pairs first co-occurring in the scan's
    start window; None when no forward occurrence chain reaches j.
    """
    src = np.array([column_of(snapshots.nodes, i)])
    dst = np.array([column_of(snapshots.nodes, j)])
    d = int(_pair_distances(snapshots, src, dst)[0])
    return None if d == UNREACHABLE_SENTINEL else d


def temporal_distance_matrix(snapshots: SnapshotSequence) -> TemporalDistanceMatrix:
    """All-pairs paper-algorithm distances, -1 for unreachable pairs."""
    n = len(snapshots.nodes)
    cols = np.arange(n)
    entries = _pair_distances(snapshots, np.repeat(cols, n), np.tile(cols, n))
    return TemporalDistanceMatrix(snapshots.nodes, entries.reshape(n, n))


def average_temporal_distance(matrix: TemporalDistanceMatrix, w: float) -> float:
    """Average temporal distance in seconds: w / (N(N-1)) times the sum of
    reachable off-diagonal window-hop entries (unreachable pairs add 0)."""
    n = matrix.n
    if n < 2:
        raise InputError("average temporal distance needs at least 2 nodes")
    e = matrix.entries
    total = int(e[e > 0].sum())
    return w * total / (n * (n - 1))


def reachable_pair_count(matrix: TemporalDistanceMatrix) -> int:
    """Ordered off-diagonal pairs with a finite temporal distance."""
    return int((matrix.entries >= 0).sum()) - matrix.n  # less the diagonal zeros


def temporal_diameter(matrix: TemporalDistanceMatrix, w: float) -> TemporalDiameter:
    """Maximum reachable off-diagonal entry, in hops and seconds.

    An all-unreachable matrix yields hops 0 with the disconnected flag.
    """
    e = matrix.entries.copy()
    np.fill_diagonal(e, UNREACHABLE_SENTINEL)
    finite = e[e >= 0]
    if finite.size == 0:
        return TemporalDiameter(0, 0.0, disconnected=True)
    hops = int(finite.max())
    return TemporalDiameter(hops, hops * w, disconnected=False)


def temporal_closeness(
    matrix: TemporalDistanceMatrix, window_count: int, i: int
) -> CentralityScore:
    """Sum of reachable distances from i over W(N-1).

    Unreachable pairs contribute nothing to the sum (they stay in no
    denominator term either; the normalization is W(N-1) regardless).
    """
    c = matrix.index_of(i)
    return _closeness(matrix, window_count, slice(c, c + 1))[0]


def temporal_closeness_all(
    matrix: TemporalDistanceMatrix, window_count: int
) -> list[CentralityScore]:
    """temporal_closeness of every node, in label order."""
    return _closeness(matrix, window_count, slice(None))


def _closeness(matrix: TemporalDistanceMatrix, window_count: int, rows: slice):
    """temporal_closeness of the nodes of the matrix rows ``rows``."""
    if matrix.n < 2:
        raise InputError("temporal closeness needs at least 2 nodes")
    if window_count < 1:
        raise InputError("window count must be >= 1")
    e = matrix.entries[rows]
    totals = np.where(e > 0, e, 0).sum(axis=1).tolist()
    norm = window_count * (matrix.n - 1)
    return [CentralityScore(i, total / norm) for i, total in zip(matrix.labels[rows], totals)]


def temporal_distance_exact(
    trace: ContactTrace,
    period: AnalysisPeriod,
    cfg: WindowConfig,
    i: int,
    j: int,
    snapshots: Optional[SnapshotSequence] = None,
) -> Optional[int]:
    """Edge-respecting temporal distance (the oracle semantics).

    A message starts at the source, travels at most ``cfg.horizon`` hops
    along contact edges inside each window (unlimited when None), and is
    stored and carried between windows. Scan start/restart windows follow
    the same schedule as the occurrence-list algorithm.
    """
    if snapshots is None:
        snapshots = build_snapshots(trace, period, cfg)
    a, b = column_of(snapshots.nodes, i), column_of(snapshots.nodes, j)
    if a == b:
        return 0
    W, graphs = snapshots.window_count, snapshots.window_graphs
    best: Optional[int] = None
    for _, s, hits, _ in _scan_schedule(snapshots, np.array([a]), np.array([b])):
        if hits[0] < 0:
            break  # no occurrence chain reaches j, so no edge journey does
        s, reach = int(s[0]), np.arange(len(snapshots.nodes)) == a
        for t in range(s, W if best is None else min(s + best, W)):  # a later hit is no shorter
            cols, u, v, _, _ = graphs[t]
            local = reach[cols]
            if before := np.count_nonzero(local):
                for _ in range(len(cols) if cfg.horizon is None else cfg.horizon):
                    hop = local[u] | local[v]  # one hop: both ends of every reached contact
                    local[u[hop]] = local[v[hop]] = True
                    if before == (before := np.count_nonzero(local)):
                        break
                reach[cols] = local
            if reach[b]:
                best = t - s
                break
    return best


def rank_key(score: CentralityScore) -> tuple[float, int]:
    """The sort key of :func:`rank_nodes`: descending by value, ties broken by
    ascending node id. Values (all in [0, 1]) are compared at 12 decimals, so
    summation order splits no tie."""
    return -round(score.value, 12), score.node


def rank_nodes(scores: list[CentralityScore]) -> list[CentralityScore]:
    """The scores in :func:`rank_key` order."""
    return sorted(scores, key=rank_key)


def temporal_betweenness(snapshots: SnapshotSequence, i: int) -> CentralityScore:
    """Temporal betweenness of one node (see temporal_betweenness_all). Each
    call runs the whole-graph sweep; temporal_betweenness_all scores all at once."""
    c = column_of(snapshots.nodes, i)
    return temporal_betweenness_all(snapshots)[c]


def temporal_betweenness_all(snapshots: SnapshotSequence) -> list[CentralityScore]:
    """The scores of :func:`shortest_journeys`; all 0 below 3 nodes."""
    return shortest_journeys(snapshots)[0]


def shortest_journeys(snapshots: SnapshotSequence) -> tuple[list[CentralityScore], np.ndarray]:
    """Fraction of shortest edge-respecting journeys resident at each node,
    and the N x N edge hops of those journeys, from one sweep.

    For every source j, every target k and every window t, a node i not
    in {j, k} earns U(i,t,j,k)/|S_jk|: the fraction of shortest journeys
    from j to k holding their message at i during window t. Journeys
    start at j's first occurrence and are shortest by (arrival window,
    then total edge hops); a node holds the message from its arrival
    window through its departure window. Scores are normalized by
    (N-1)(N-2) per window and averaged over all W windows, which keeps
    them in [0, 1], and are all 0 below 3 nodes. ``hops[j, k]`` counts the
    edge hops of a shortest journey from j to k, -1 if none and 0 on the
    diagonal. A journey count overflowing float64 raises FloatingPointError.
    """
    nodes, W = snapshots.nodes, snapshots.window_count
    n = len(nodes)
    first = snapshots.next_occurrence[0]  # W where a node never occurs
    sources = row_order(first)[: np.count_nonzero(first < W)]
    credit = np.zeros(n)
    hops = np.where(np.eye(n, dtype=bool), 0, UNREACHABLE_SENTINEL)
    # blocks of rows x busiest-window directed edges <= _BLOCK_ELEMENTS (contacts by window)
    at = np.searchsorted(snapshots.contacts[:, 0], np.arange(W + 1))
    widest = max(1, 2 * np.diff(at).max())
    size = max(1, _BLOCK_ELEMENTS // widest)
    for lo in range(0, len(sources), size):
        block = sources[lo : lo + size]
        pending = len(block) * (len(sources) - 1)  # (row, target) states to reach
        credit += _block_credit(snapshots, block, first[block[0]], pending, hops)
    norm = max(1, (n - 1) * (n - 2) * W)
    scores = [CentralityScore(node, float(c) / norm) for node, c in zip(nodes, credit)]
    return scores, hops


@np.errstate(over="raise", invalid="raise")
def _block_credit(
    snapshots: SnapshotSequence, sources: np.ndarray, start: int, pending: int, hops: np.ndarray
) -> np.ndarray:
    """Summed dependencies of every column on the journeys of one block of
    sources (the rows), swept from ``start``, the first source's first
    occurrence, to the last window or until the ``pending`` (row, target)
    states are all reached; fills the sources' rows of ``hops`` where each
    state is first reached.

    ``h`` counts the fewest cumulative edge hops to a node, ``sigma`` the
    journeys taking them; edge u -> v is tight when ``h[u] + 1 == h[v]``.
    Each source's own state is seeded (0 hops, one journey) before the
    sweep, so it enters at its first occurrence. A carry edge joins a
    node's states in consecutive windows where its pre-window ``h`` is
    finite and unchanged; where it is infinite the node arrives.
    """
    rows = np.arange(len(sources))
    h = np.full((len(sources), len(snapshots.nodes)), _NO_HOPS)
    sigma = np.zeros(h.shape)
    h[rows, sources], sigma[rows, sources] = 0, 1.0
    graphs, mates = snapshots.window_graphs, np.arange(len(snapshots.nodes)) ^ 1
    log = []
    for t in range(start, snapshots.window_count):
        cols = graphs[t][0]
        if cols.size == 0:
            continue
        h_pre, sigma_pre = h.take(cols, axis=1), sigma.take(cols, axis=1)
        ht, st, arrived = _forward(graphs[t], h_pre, sigma_pre, mates)
        h[:, cols], sigma[:, cols] = ht, st
        log.append((t, h_pre, sigma_pre, arrived))
        if arrived is not None:
            r, c = np.nonzero(arrived)
            hops[sources[r], cols[c]] = ht[r, c]
            pending -= len(r)
        if pending == 0:
            break
    delta, credit, later = np.zeros(h.shape), np.zeros(h.shape), log[-1][0] + 1
    for t, h_pre, sigma_pre, arrived in reversed(log):
        cols = graphs[t][0]
        if later > t + 1:
            credit += (later - t - 1) * delta  # the edgeless windows between
        ht, st = h.take(cols, axis=1), sigma.take(cols, axis=1)
        dt, share = _backward(graphs[t], ht, st, delta.take(cols, axis=1), arrived, mates)
        delta[:, cols] = dt
        credit += delta
        # unreached states carry sigma 0
        delta[:, cols] = np.where(h_pre == ht, sigma_pre * share, 0.0)
        h[:, cols], sigma[:, cols] = h_pre, sigma_pre
        later = t
    credit[rows, sources] = 0.0
    return credit.sum(axis=0)


def _forward(graph, h_pre: np.ndarray, sigma_pre: np.ndarray, mates: np.ndarray):
    """One window's way forward: the post-window hops and journey counts of the
    rows x occupants pre-window ones, and the arrival mask, None if none arrives."""
    adj, level, base = _levels(graph, h_pre)  # level 0 in a component not yet reached
    if adj is None:  # a matching: a column above level 1 drops to 1 with its mate's
        # journeys, a column at level 1 adds them (the mate is at level 0)
        mate = sigma_pre.take(mates[: len(graph[0])], axis=1)
        st = np.where(level > 1, mate, sigma_pre)
        np.add(st, mate, out=st, where=level == 1)
        np.minimum(level, 1, out=level)
    else:
        st, frontier, top = sigma_pre.copy(), level == 0, 0
        while True:
            push = np.where(frontier, st, 0.0) @ adj
            lower = (push > 0.0) & (level > top + 1)
            level[lower], st[lower] = top + 1, 0.0
            frontier = level == top + 1
            if not np.count_nonzero(frontier):
                break  # a component's levels have no gap
            np.add(st, push, out=st, where=frontier)
            top += 1
    ht = level + base
    arrived = (h_pre == _NO_HOPS) & (ht < _NO_HOPS)
    return ht, st, arrived if np.count_nonzero(arrived) else None


def _backward(graph, ht: np.ndarray, st: np.ndarray, dt: np.ndarray, arrived, mates: np.ndarray):
    """One window's way back from its post-window hops and counts: the carried
    dependencies ``dt`` plus those its levels push back, and each state's share."""
    adj, level, _ = _levels(graph, ht)
    norm = np.maximum(st, 1.0)

    def shares(d):  # an arrival adds the journey that ends there
        return (d if arrived is None else d + arrived) / norm

    if adj is None:  # a matching: a level-0 column takes its level-1 mate's share
        pushed = np.where(level == 1, shares(dt), 0.0)
        dt += st * pushed.take(mates[: len(graph[0])], axis=1)
    else:
        top = int(level.max())
        above = level == top
        for x in range(top - 1, -1, -1):
            pushed = np.where(above, shares(dt), 0.0) @ adj
            above = level == x
            dt = np.where(above, dt + st * pushed, dt)
    return dt, shares(dt)


def _levels(graph: tuple[np.ndarray, ...], h: np.ndarray) -> tuple[Optional[np.ndarray], ...]:
    """One window's 0/1 adjacency, filled from its contacts both ways, or
    None for a matching, where the contacts have twice as many occupants:
    no two share one, so each contact is a component, its columns adjacent
    (column c's mate is ``c ^ 1``), and either window step settles it in one
    closed-form hop with no adjacency. Then the levels of the rows x
    occupants hops ``h``, each less its row's least hops in its component;
    and those least hops, in a matching the minimum of ``h`` and its
    pair-swapped view. A window never moves its level-0 states, so its pre-
    and post-window hops give the same least hops, and after it a
    component's levels run 0..max with no gap."""
    cols, u, v, comp, firsts = graph
    if 2 * len(u) == len(cols):
        pairs = h.reshape(len(h), -1, 2)
        base = np.minimum(pairs, pairs[:, :, ::-1]).reshape(h.shape)
        return None, h - base, base
    adj = np.zeros((len(cols), len(cols)))
    adj[u, v] = adj[v, u] = 1.0
    base = np.minimum.reduceat(h, firsts, axis=1).take(comp, axis=1)
    return adj, h - base, base
