"""Temporal distance, diameter, closeness and betweenness.

Two reachability semantics coexist here:

* the occurrence-list semantics of :func:`temporal_distance_paper`:
  within a scan, any node occurring in an already-reached window can
  carry the message forward, so a whole window's occupant set is
  absorbed at once;
* the edge-respecting semantics of :func:`temporal_distance_exact`:
  a message moves only along actual contact edges, at most ``horizon``
  hops inside one window, forward in window order.

Both run on two arrays cached on the :class:`SnapshotSequence`:

* ``occupancy``, W x N booleans: which node occurs in which window;
* ``infection_table`` H, W x N: ``H[s, n]`` is the first window >= s
  infected by a scan started at s in which n occurs, -1 if none. One
  forward pass over t advances the scans of every start at once; at t
  it touches the occupants of t in each scan started so far, so the
  build costs O(W * total occupancy) <= O(W^2 * N) element operations.

The one scan schedule, :func:`_scan_schedule`, is a sweep over those
arrays. Each source i keeps ``floor`` and ``alive`` vectors over all
targets (a row of a sources x N array) and visits its occurrence windows
s in ascending order. A target is due at s when it is alive and its
floor is <= s; a due target with ``H[s] >= 0`` scores ``H[s] - s`` and
moves its floor past the hit, and a miss ends its schedule. All sources
advance together in one pass over the windows, so the sweep costs
O(N * |occurrences|) element operations in at most W vector steps.

The matrix keeps the best score per (source, target); the
edge-respecting distance runs its own edge scans on the same (start,
paper hit) schedule. Sharing the schedule keeps the occurrence semantics
at most as large as the edge semantics pair by pair, and makes the two
coincide whenever every window's contact graph is connected over its
occupants.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .trace_model import AnalysisPeriod, ContactTrace, WindowConfig
from .windowing import SnapshotSequence, build_snapshots

#: Matrix export encoding for temporally disconnected pairs.
UNREACHABLE_SENTINEL = -1


@dataclass(frozen=True)
class CentralityScore:
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
        try:
            return self.labels.index(node)
        except ValueError:
            raise KeyError(f"unknown node id {node}") from None

    def distance(self, i: int, j: int) -> Optional[int]:
        """Window-hop distance between original ids, None if unreachable."""
        v = int(self.entries[self.index_of(i), self.index_of(j)])
        return None if v == UNREACHABLE_SENTINEL else v

    def to_text(self) -> str:
        """Row-major bracketed grid, -1 for unreachable."""
        lines = []
        for r, row in enumerate(self.entries):
            body = ", ".join(str(int(v)) for v in row)
            prefix = "[[" if r == 0 else " ["
            suffix = "]]" if r == self.n - 1 else "],"
            lines.append(prefix + body + suffix)
        return "\n".join(lines)


def _check_node(snapshots: SnapshotSequence, node: int) -> None:
    if node not in snapshots.nodes:
        raise KeyError(f"unknown node id {node}")


def _scan_schedule(snapshots: SnapshotSequence, sources: np.ndarray):
    """Yield the scans of the given source columns against all targets.

    Each item is ``(s, rows, due, hits)``: a scan start window s, the
    indices into ``sources`` of the sources occurring in s, a boolean
    (len(rows), N) array of the targets whose schedule scans from s, and
    row s of the infection table. A target's first scan starts at the
    source's first occurrence; after a hit at window t its next scan
    starts at the first source occurrence past t; its schedule ends at
    the first scan with no hit.
    """
    present = snapshots.occupancy[:, sources]
    H = snapshots.infection_table
    floor = np.zeros((len(sources), len(snapshots.nodes)), dtype=np.int64)
    alive = np.ones_like(floor, dtype=bool)
    alive[np.arange(len(sources)), sources] = False
    for s in np.flatnonzero(present.any(axis=1)):
        rows = np.flatnonzero(present[s])
        due = alive[rows] & (floor[rows] <= s)
        if not due.any():
            continue
        hits = H[s]
        yield int(s), rows, due, hits
        alive[rows] &= ~due | (hits >= 0)
        floor[rows] = np.where(due, hits + 1, floor[rows])


def _distance_rows(snapshots: SnapshotSequence, sources: np.ndarray) -> np.ndarray:
    """Paper-algorithm distances from the source columns, -1 if unreachable."""
    best = np.full(
        (len(sources), len(snapshots.nodes)), UNREACHABLE_SENTINEL, dtype=np.int64
    )
    for s, rows, due, hits in _scan_schedule(snapshots, sources):
        d = hits - s
        prev = best[rows]
        better = due & (hits >= 0) & ((prev < 0) | (d < prev))
        best[rows] = np.where(better, d, prev)
    best[np.arange(len(sources)), sources] = 0
    return best


def temporal_distance_paper(
    snapshots: SnapshotSequence, i: int, j: int
) -> Optional[int]:
    """Window-hop distance under occurrence-list semantics.

    Returns 0 for i == j and for pairs first co-occurring in the scan's
    start window; None when no forward occurrence chain reaches j.
    """
    _check_node(snapshots, i)
    _check_node(snapshots, j)
    if i == j:
        return 0
    labels = snapshots.nodes
    row = _distance_rows(snapshots, np.array([labels.index(i)]))[0]
    d = int(row[labels.index(j)])
    return None if d == UNREACHABLE_SENTINEL else d


def temporal_distance_matrix(snapshots: SnapshotSequence) -> TemporalDistanceMatrix:
    """All-pairs paper-algorithm distances, -1 for unreachable pairs."""
    labels = snapshots.nodes
    entries = _distance_rows(snapshots, np.arange(len(labels)))
    return TemporalDistanceMatrix(labels, entries)


def average_temporal_distance(matrix: TemporalDistanceMatrix, w: float) -> float:
    """Average temporal distance in seconds: w / (N(N-1)) times the sum of
    reachable off-diagonal window-hop entries (unreachable pairs add 0)."""
    n = matrix.n
    if n < 2:
        raise ValueError("average temporal distance needs at least 2 nodes")
    e = matrix.entries
    total = int(e[e > 0].sum())
    return w * total / (n * (n - 1))


def reachable_pair_count(matrix: TemporalDistanceMatrix) -> int:
    """Ordered off-diagonal pairs with a finite temporal distance."""
    e = matrix.entries
    finite = int((e >= 0).sum()) - matrix.n  # drop the diagonal zeros
    return finite


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
    n = matrix.n
    if n < 2:
        raise ValueError("temporal closeness needs at least 2 nodes")
    if window_count < 1:
        raise ValueError("window count must be >= 1")
    row = matrix.entries[matrix.index_of(i)]
    total = int(row[row > 0].sum())
    return CentralityScore(i, total / (window_count * (n - 1)))


def temporal_closeness_all(
    matrix: TemporalDistanceMatrix, window_count: int
) -> list[CentralityScore]:
    return [temporal_closeness(matrix, window_count, i) for i in matrix.labels]


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
    _check_node(snapshots, i)
    _check_node(snapshots, j)
    if i == j:
        return 0
    labels = snapshots.nodes
    a, b = labels.index(i), labels.index(j)
    adj = _window_adjacency(snapshots)
    best: Optional[int] = None
    for s, _, due, paper_hits in _scan_schedule(snapshots, np.array([a])):
        if not due[0, b]:
            continue
        hit = _edge_scan_hit(snapshots, adj, i, j, s, cfg.horizon)
        if hit is not None:
            d = hit - s
            best = d if best is None else min(best, d)
        if paper_hits[b] < 0:
            break
    return best


def _window_adjacency(snapshots: SnapshotSequence) -> list[dict[int, list[int]]]:
    adj: list[dict[int, list[int]]] = []
    for snap in snapshots.windows:
        table: dict[int, list[int]] = {}
        for a, b in snap.edges:
            table.setdefault(a, []).append(b)
            table.setdefault(b, []).append(a)
        adj.append(table)
    return adj


def _edge_scan_hit(
    snapshots: SnapshotSequence,
    adj: list[dict[int, list[int]]],
    i: int,
    j: int,
    s: int,
    horizon: Optional[int],
) -> Optional[int]:
    """First window >= s in which an edge journey from i reaches j."""
    reach = {i}
    for t in range(s, snapshots.window_count):
        table = adj[t]
        frontier = [n for n in reach if n in table]
        hops = 0
        while frontier and (horizon is None or hops < horizon):
            new = []
            for u in frontier:
                for v in table.get(u, ()):
                    if v not in reach:
                        reach.add(v)
                        new.append(v)
            frontier = new
            hops += 1
        if j in reach:
            return t
    return None


def rank_nodes(scores: list[CentralityScore]) -> list[CentralityScore]:
    """Descending by value, ties broken by ascending node id."""
    return sorted(scores, key=lambda s: (-s.value, s.node))


def temporal_betweenness(snapshots: SnapshotSequence, i: int) -> CentralityScore:
    """Temporal betweenness of one node (see temporal_betweenness_all)."""
    _check_node(snapshots, i)
    for score in temporal_betweenness_all(snapshots):
        if score.node == i:
            return score
    raise KeyError(f"unknown node id {i}")


def temporal_betweenness_all(snapshots: SnapshotSequence) -> list[CentralityScore]:
    """Fraction of shortest edge-respecting journeys resident at each node.

    For every source j, every target k and every window t, a node i not
    in {j, k} earns U(i,t,j,k)/|S_jk|: the fraction of shortest journeys
    from j to k holding their message at i during window t. Journeys are
    shortest by (arrival window difference, then total edge hops); a
    node holds the message from its arrival window through its departure
    window. Scores are normalized by (N-1)(N-2) per window and averaged
    over all W windows, which keeps them in [0, 1].
    """
    nodes = snapshots.nodes
    n = len(nodes)
    if n < 3:
        raise ValueError("temporal betweenness needs at least 3 nodes")
    W = snapshots.window_count
    adj = _window_adjacency(snapshots)
    occ = snapshots.occupancy
    credit: dict[int, float] = {node: 0.0 for node in nodes}
    for a, source in enumerate(nodes):
        present = occ[:, a]
        if present.any():
            s = int(present.argmax())  # first occurrence window
            _accumulate_source_dependencies(snapshots, adj, source, s, credit)
    norm = (n - 1) * (n - 2) * W
    return [CentralityScore(node, credit[node] / norm) for node in nodes]


def _accumulate_source_dependencies(
    snapshots: SnapshotSequence,
    adj: list[dict[int, list[int]]],
    source: int,
    s: int,
    credit: dict[int, float],
) -> None:
    """Brandes-style dependency accumulation over the time-expanded DAG.

    Forward pass: per window, per node, the fewest cumulative edge hops
    at which a message copy can sit there (carrying between windows is
    free), with path counts and predecessor states. Backward pass seeds
    1 at each target's arrival state and pushes fractions back through
    the DAG; every state a fraction passes through is a residence window
    of its node.
    """
    W = snapshots.window_count
    n_nodes = len(snapshots.nodes)
    # per-state tables keyed by (node, window)
    sigma: dict[tuple[int, int], float] = {}
    preds: dict[tuple[int, int], list[tuple[int, int]]] = {}
    stack: list[tuple[int, int]] = []
    cur_h: dict[int, int] = {source: 0}
    cur_sig: dict[int, float] = {source: 1.0}
    arrival_state: dict[int, tuple[int, int]] = {source: (source, s)}
    pending = n_nodes - 1
    for t in range(s, W):
        table = adj[t]
        # carry states forward
        new_h = dict(cur_h)
        new_sig = dict(cur_sig)
        carry_pred: dict[int, bool] = {v: t > s for v in cur_h}
        # within-window relaxation: Dijkstra by cumulative hops
        heap = [(h, v) for v, h in cur_h.items() if v in table]
        heapq.heapify(heap)
        local_preds: dict[int, list[tuple[int, int]]] = {}
        settled: set[int] = set()
        order: list[int] = []
        while heap:
            h, u = heapq.heappop(heap)
            if u in settled or new_h.get(u, h) < h:
                continue
            settled.add(u)
            order.append(u)
            for v in table.get(u, ()):
                nh = h + 1
                old = new_h.get(v)
                if old is None or nh < old:
                    new_h[v] = nh
                    new_sig[v] = new_sig[u]
                    local_preds[v] = [(u, t)]
                    carry_pred[v] = False
                    heapq.heappush(heap, (nh, v))
                elif nh == old:
                    new_sig[v] = new_sig.get(v, 0.0) + new_sig[u]
                    local_preds.setdefault(v, []).append((u, t))
        # materialize states for this window
        for v in new_h:
            st = (v, t)
            sigma[st] = new_sig[v]
            p: list[tuple[int, int]] = []
            if carry_pred.get(v):
                p.append((v, t - 1))
            p.extend(local_preds.get(v, ()))
            preds[st] = p
            if v not in arrival_state:
                arrival_state[v] = st
                pending -= 1
        # push states in settle order after carry-only states so the
        # reverse sweep sees successors before predecessors
        window_states = [(v, t) for v in new_h if v not in settled]
        window_states.extend((v, t) for v in order)
        stack.extend(window_states)
        cur_h, cur_sig = new_h, new_sig
        if pending == 0 and t >= max(st[1] for st in arrival_state.values()):
            break
    # backward accumulation
    delta: dict[tuple[int, int], float] = {st: 0.0 for st in stack}
    is_target_arrival = {
        st: True for node, st in arrival_state.items() if node != source
    }
    for st in reversed(stack):
        coef = delta[st] + (1.0 if is_target_arrival.get(st) else 0.0)
        if coef == 0.0:
            continue
        coef /= sigma[st]
        for p in preds[st]:
            delta[p] += sigma[p] * coef
    for (v, _t), d in delta.items():
        if v != source and d:
            credit[v] += d
