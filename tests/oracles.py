"""Independent brute-force implementations used as test oracles.

These deliberately avoid the library's code paths: occurrence-chain
distances are found by exhaustive enumeration of window subsequences,
a window's components by merging node sets edge by edge, the infection
table by a forward pass over the windows, edge journeys by breadth-first
search over explicit (node, window, hops) states,
betweenness by enumerating every shortest journey as a full state
sequence, the static hop matrix by relaxing every source at once over
the one window, the shortest-journey sweep by relaxing each window to a
fixpoint, journey hops by a breadth-first search per window and source,
random-waypoint contacts by one scan step per tick, the trace writers by
sorting one Python row per line, the parsers by one Python step per line,
and the overlap merge, the period clip and the pair aggregates by one
ContactEvent at a time. Earlier builds are kept as references: the
window graphs cut from flat arrays by ``np.split``, the distance matrix
text built one entry at a time, the time order, overlap merge and period
clip sorted by ``np.lexsort`` (the merge's running max from
``np.searchsorted`` ranks), and the betweenness sweep's kernel,
``_block_credit`` and ``_levels``, with a dense adjacency in every window.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
import re
from collections import deque
from typing import Iterator, Optional

import numpy as np

from dtnmetrics import ContactEvent, ContactTrace, PairAggregate, temporal_metrics, window_count
from dtnmetrics.ingestion import (
    COMMON_FORMAT_HEADER,
    ParseError,
    ParseWarning,
    TextSource,
)
from dtnmetrics.rwp_gen import positions_at


def placed_edges(trace, period, w):
    """Edge set per window by the scalar placement rule: an event clipped to
    the period is an edge of every window from that of its start through
    that of its end, window k of time t being floor((t - t_min)/w + 1e-9)
    clamped to [0, W-1]. One event and one window at a time."""
    count = window_count(period, w)
    edges = [set() for _ in range(count)]
    for ev in trace.events:
        if ev.end < period.t_min or ev.start > period.t_max:
            continue
        start = max(ev.start, period.t_min)
        end = min(ev.end, period.t_max)
        k0 = int(math.floor((start - period.t_min) / w + 1e-9))
        k1 = int(math.floor((end - period.t_min) / w + 1e-9))
        k0 = min(max(k0, 0), count - 1)
        k1 = min(max(k1, 0), count - 1)
        for k in range(k0, k1 + 1):
            edges[k].add(ev.pair)
    return edges


def occ_sets(snapshots):
    return [set(s.occupants) for s in snapshots.windows]


def edge_sets(snapshots):
    return [set(s.edges) for s in snapshots.windows]


def components(edges):
    """The connected components of an undirected edge set, as frozensets of
    its ends, found by merging the two ends' sets edge by edge."""
    part = {}
    for a, b in edges:
        merged = part.get(a, {a}) | part.get(b, {b})
        for v in merged:
            part[v] = merged
    return {frozenset(p) for p in part.values()}


def _chain_hit(occ, W, s, j):
    """First window >= s containing j reachable by some occurrence chain.

    A chain is an increasing window subsequence starting at s in which
    every later window shares at least one occupant with the union of
    the occupants of the windows before it. Found by exhaustive
    enumeration over all subsequences.
    """
    if j in occ[s]:
        return s
    best = None
    later = list(range(s + 1, W))
    for r in range(1, len(later) + 1):
        for combo in itertools.combinations(later, r):
            union = set(occ[s])
            ok = True
            for t in combo:
                if union.isdisjoint(occ[t]):
                    ok = False
                    break
                union |= occ[t]
            if ok and j in occ[combo[-1]]:
                if best is None or combo[-1] < best:
                    best = combo[-1]
    return best


def paper_distance(snapshots, i, j):
    """Occurrence-chain temporal distance with the restart rule."""
    if i == j:
        return 0
    occ = occ_sets(snapshots)
    W = snapshots.window_count
    floor = 0
    best = None
    while True:
        s = next((t for t in range(floor, W) if i in occ[t]), None)
        if s is None:
            return best
        hit = _chain_hit(occ, W, s, j)
        if hit is None:
            return best
        d = hit - s
        best = d if best is None else min(best, d)
        floor = hit + 1


def infection_table(snapshots):
    """W x N infection table built forwards: ``H[s, c]`` is the first window
    >= s infected by a scan started at s in which ``nodes[c]`` occurs, -1
    if none.

    A scan from s infects s; a later window is infected when it shares
    an occupant with the scan's carriers (the nodes it has reached so
    far, i.e. those with ``H[s, c] >= 0``), and its occupants then
    join the carriers. One forward pass over t advances the scans of
    all starts s <= t, touching only the occupants of t.
    """
    occ = snapshots.occupancy
    H = np.full(occ.shape[::-1], -1, dtype=np.int64)  # node-major
    for t, members in enumerate(occ):
        cols = np.flatnonzero(members)
        if cols.size == 0:
            continue
        met = (H[cols, :t] >= 0).any(axis=0)
        block = np.ix_(cols, np.append(np.flatnonzero(met), t))
        reached = H[block]
        H[block] = np.where(reached < 0, t, reached)
    return np.ascontiguousarray(H.T)


def _journey_hit(edges, W, s, i, j, horizon=None):
    """First window >= s at which an edge journey from i reaches j.

    Dijkstra over (window, hops-within-window) lexicographic cost:
    reaching a node earlier in the same window dominates, since any
    continuation available later is available earlier too.
    """
    if i == j:
        return s
    adj = []
    for es in edges:
        table = {}
        for a, b in es:
            table.setdefault(a, set()).add(b)
            table.setdefault(b, set()).add(a)
        adj.append(table)
    best_cost = {(i, s): 0}
    heap = [(s, 0, i)]
    while heap:
        t, hops, node = heapq.heappop(heap)
        if best_cost.get((node, t), 1 << 30) < hops:
            continue
        if node == j:
            return t
        if t + 1 < W and best_cost.get((node, t + 1), 1 << 30) > 0:
            best_cost[(node, t + 1)] = 0
            heapq.heappush(heap, (t + 1, 0, node))
        if horizon is None or hops < horizon:
            for nbr in adj[t].get(node, ()):
                if best_cost.get((nbr, t), 1 << 30) > hops + 1:
                    best_cost[(nbr, t)] = hops + 1
                    heapq.heappush(heap, (t, hops + 1, nbr))
    return None


def exact_distance(snapshots, i, j, horizon=None):
    """Edge-respecting temporal distance on the paper's scan schedule."""
    if i == j:
        return 0
    occ = occ_sets(snapshots)
    edges = edge_sets(snapshots)
    W = snapshots.window_count
    floor = 0
    best = None
    while True:
        s = next((t for t in range(floor, W) if i in occ[t]), None)
        if s is None:
            return best
        hit = _journey_hit(edges, W, s, i, j, horizon)
        if hit is not None:
            d = hit - s
            best = d if best is None else min(best, d)
        paper_hit = _chain_hit(occ, W, s, j)
        if paper_hit is None:
            return best
        floor = paper_hit + 1


def _enumerate_shortest_journeys(edges, W, source, target, s):
    """All state sequences from (source, s) to target that are shortest by
    (arrival window, total hops). Returns (journeys, arrival, hops)."""
    adj = []
    for es in edges:
        table = {}
        for a, b in es:
            table.setdefault(a, set()).add(b)
            table.setdefault(b, set()).add(a)
        adj.append(table)
    # find the optimum first
    best = None  # (arrival, hops)
    state_best = {}
    queue = deque([(source, s, 0)])
    state_best[(source, s)] = 0
    while queue:
        node, t, hops = queue.popleft()
        if node == target:
            cand = (t, hops)
            if best is None or cand < best:
                best = cand
            continue
        if t + 1 < W and (best is None or t + 1 <= best[0]):
            key = (node, t + 1)
            if state_best.get(key, 1 << 30) > hops:
                state_best[key] = hops
                queue.append((node, t + 1, hops))
        for nbr in adj[t].get(node, ()):
            key = (nbr, t)
            if state_best.get(key, 1 << 30) > hops + 1:
                state_best[key] = hops + 1
                queue.append((nbr, t, hops + 1))
    if best is None:
        return [], None, None
    arrival, opt_hops = best
    journeys = []

    def dfs(node, t, hops, path):
        if node == target:
            if (t, hops) == best:
                journeys.append(tuple(path))
            return
        if t > arrival or hops > opt_hops:
            return
        if t + 1 <= arrival:
            path.append((node, t + 1))
            dfs(node, t + 1, hops, path)
            path.pop()
        for nbr in adj[t].get(node, ()):
            path.append((nbr, t))
            dfs(nbr, t, hops + 1, path)
            path.pop()

    dfs(source, s, 0, [(source, s)])
    return journeys, arrival, opt_hops


def betweenness(snapshots):
    """Temporal betweenness of every node by explicit journey enumeration."""
    nodes = snapshots.nodes
    n = len(nodes)
    W = snapshots.window_count
    edges = edge_sets(snapshots)
    occ = occ_sets(snapshots)
    credit = {v: 0.0 for v in nodes}
    for source in nodes:
        s = next((t for t in range(W) if source in occ[t]), None)
        if s is None:
            continue
        for target in nodes:
            if target == source:
                continue
            journeys, _, _ = _enumerate_shortest_journeys(edges, W, source, target, s)
            if not journeys:
                continue
            share = 1.0 / len(journeys)
            for path in journeys:
                # residence windows per node, excluding the endpoints
                for node, t in path:
                    if node in (source, target):
                        continue
                    credit[node] += share
    norm = max(1, (n - 1) * (n - 2) * W)  # below three nodes every score is 0
    return {v: credit[v] / norm for v in nodes}


def static_betweenness(nodes, edge_list):
    """Ordered-pair-normalized betweenness by shortest-path enumeration."""
    adj = {v: set() for v in nodes}
    for a, b in edge_list:
        adj[a].add(b)
        adj[b].add(a)

    def all_shortest_paths(src, dst):
        # BFS levels then DFS over the level DAG
        dist = {src: 0}
        q = deque([src])
        while q:
            u = q.popleft()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    q.append(v)
        if dst not in dist:
            return []
        paths = []

        def dfs(u, path):
            if u == dst:
                paths.append(tuple(path))
                return
            for v in adj[u]:
                if dist.get(v) == dist[u] + 1:
                    path.append(v)
                    dfs(v, path)
                    path.pop()

        dfs(src, [src])
        return paths

    n = len(nodes)
    score = {v: 0.0 for v in nodes}
    for s, t in itertools.permutations(nodes, 2):
        paths = all_shortest_paths(s, t)
        if not paths:
            continue
        for p in paths:
            for v in p[1:-1]:
                score[v] += 1.0 / len(paths)
    return {v: score[v] / ((n - 1) * (n - 2)) for v in nodes}


def static_edges(trace):
    """The distinct id pairs the trace's contacts join, one event at a time."""
    edges = set()
    for ev in trace.events:
        edges.add(ev.pair)
    return frozenset(edges)


def _reduceat_graph(snapshots, t):
    """Window t as ``(cols, src, dst, starts)``: the occupant columns,
    ascending; each contact as two directed edges ``src -> dst``, indices
    into ``cols``, grouped by ``dst``; ``starts[k]``, the first edge into
    occupant k, for ``np.ufunc.reduceat``."""
    _, a, b = snapshots.contacts[snapshots.contacts[:, 0] == t].T
    cols = np.unique(np.concatenate([a, b]))
    head, tail = np.concatenate([b, a]), np.concatenate([a, b])
    order = np.argsort(head, kind="stable")
    dst, src = np.searchsorted(cols, head[order]), np.searchsorted(cols, tail[order])
    return cols, src, dst, np.searchsorted(dst, np.arange(len(cols)))


def split_window_graphs(snapshots):
    """``SnapshotSequence.window_graphs`` as first built: the same label
    propagation and flat arrays, cut into W 5-tuples by ``np.split``."""
    n, count = len(snapshots.nodes), snapshots.window_count
    t, a, b = snapshots.contacts.T
    keys = np.flatnonzero(snapshots.occupancy)  # window * n + column
    rank = np.cumsum(snapshots.occupancy.ravel()) - 1
    u, v, label = rank[t * n + a], rank[t * n + b], np.arange(len(keys))
    while True:  # hook roots to neighbours' least roots, then jump
        lu, lv = label[u], label[v]
        if np.array_equal(lu, lv):
            break
        np.minimum.at(label, lu, lv)
        np.minimum.at(label, lv, lu)
        while not np.array_equal(label, label[label]):
            label = label[label]
    order, win = np.argsort(label, kind="stable"), keys // n  # windows stay in order
    first = np.r_[0, np.cumsum(np.bincount(win, minlength=count))]
    local = np.empty_like(order)
    local[order] = np.arange(len(order)) - first[win]
    lead = label[order] == order
    comp = np.cumsum(lead)  # components so far
    edges = np.cumsum(np.bincount(t, minlength=count))[:-1]
    return tuple(zip(
        np.split(keys[order] % n, first[1:-1]),
        np.split(local[u], edges),
        np.split(local[v], edges),
        np.split(comp - comp[first[win]], first[1:-1]),
        np.split(np.flatnonzero(lead) - first[win[lead]], np.r_[0, comp][first[1:-1]]),
    ))


def matrix_text(entries):
    """``TemporalDistanceMatrix.to_text`` as first built: one bracketed line
    per row, each entry through ``int``."""
    lines = []
    for r, row in enumerate(entries):
        body = ", ".join(str(int(v)) for v in row)
        prefix = "[[" if r == 0 else " ["
        suffix = "]]" if r == len(entries) - 1 else "],"
        lines.append(prefix + body + suffix)
    return "\n".join(lines)


_UNREACHED = np.iinfo(np.int64).max // 2


def _relax(h, src, starts):
    """Hop counts ``h`` (rows x occupants) relaxed to a fixpoint over the
    edges ``src -> dst`` of one window graph."""
    while True:
        relaxed = np.minimum(h, np.minimum.reduceat(h[:, src] + 1, starts, axis=1))
        if np.array_equal(relaxed, h):
            return h
        h = relaxed


def hop_matrix(snapshots):
    """N x N fewest edge hops between ``snapshots.nodes`` inside the first
    window, -1 where unreachable: every occupant a source, all relaxed
    together over the window's edges until nothing changes."""
    n = len(snapshots.nodes)
    hops = np.full((n, n), -1)
    np.fill_diagonal(hops, 0)
    if not len(snapshots.contacts):
        return hops
    cols, src, _, starts = _reduceat_graph(snapshots, 0)
    h = np.full((len(cols), len(cols)), _UNREACHED)
    np.fill_diagonal(h, 0)
    h = _relax(h, src, starts)
    hops[np.ix_(cols, cols)] = np.where(h < _UNREACHED, h, -1)
    return hops


def fixpoint_journeys(snapshots):
    """Betweenness scores (in node order) and N x N hops of the shortest
    journeys, by the time-expanded Brandes sweep run to a fixpoint in each
    window: all sources as one block of rows, hop counts relaxed by
    ``np.minimum.reduceat`` over each window's edges grouped by head until
    nothing changes, path counts summed over tight edges and dependencies
    pushed back over them the same way, each until nothing changes."""
    nodes, occ, W = snapshots.nodes, snapshots.occupancy, snapshots.window_count
    n = len(nodes)
    first = occ.argmax(axis=0)
    sources = np.flatnonzero(occ.any(axis=0))
    sources = sources[np.argsort(first[sources], kind="stable")]
    entry = first[sources]
    hops = np.where(np.eye(n, dtype=bool), 0, -1)
    graphs = [_reduceat_graph(snapshots, t) for t in range(W)]
    rows = np.arange(len(sources))
    h = np.full((len(sources), n), _UNREACHED)
    sigma = np.zeros(h.shape)
    log = []
    for t in range(entry.min() if len(sources) else W, W):
        cols, src, dst, starts = graphs[t]
        if cols.size == 0:
            continue
        h_pre, sigma_pre = h[:, cols], sigma[:, cols]
        entering = entry == t
        enter = (rows[entering], np.searchsorted(cols, sources[entering]))
        ht = h_pre.copy()
        ht[enter] = 0
        ht = _relax(ht, src, starts)
        arrived = (h_pre == _UNREACHED) & (ht < _UNREACHED)
        r, c = np.nonzero(arrived)
        hops[sources[r], cols[c]] = ht[r, c]
        tight = ht[:, src] + 1 == ht[:, dst]
        base = np.where(ht == h_pre, sigma_pre, 0.0)
        base[enter] = 1.0
        st = base
        while True:
            summed = base + np.add.reduceat(np.where(tight, st[:, src], 0.0), starts, axis=1)
            if np.array_equal(summed, st):
                break
            st = summed
        h[:, cols], sigma[:, cols] = ht, st
        log.append((t, h_pre, sigma_pre, arrived))
    delta, credit = np.zeros(h.shape), np.zeros(h.shape)
    later = log[-1][0] + 1 if log else W
    for t, h_pre, sigma_pre, arrived in reversed(log):
        cols, src, dst, starts = graphs[t]
        credit += (later - t - 1) * delta  # the edgeless windows between
        ht, st = h[:, cols], sigma[:, cols]
        back = ht[:, dst] + 1 == ht[:, src]  # tight edges dst -> src
        carried = dt = delta[:, cols]
        while True:
            share = (dt + arrived) / np.maximum(st, 1.0)
            pushed = np.add.reduceat(np.where(back, share[:, src], 0.0), starts, axis=1)
            summed = carried + st * pushed
            if np.array_equal(summed, dt):
                break
            dt = summed
        delta[:, cols] = dt
        credit += delta
        carry = (h_pre == ht) & (h_pre < _UNREACHED)
        delta[:, cols] = np.where(carry, sigma_pre * share, 0.0)
        h[:, cols], sigma[:, cols] = h_pre, sigma_pre
        later = t
    credit[rows, sources] = 0.0
    norm = max(1, (n - 1) * (n - 2) * W)
    return [float(c) / norm for c in credit.sum(axis=0)], hops


def journey_hops(snapshots):
    """N x N edge hops of the shortest journeys (earliest arrival window,
    then fewest hops) between ``snapshots.nodes``, -1 if none and 0 on
    the diagonal. Per source, window by window from its first occurrence:
    a breadth-first search over the window's edges from the reached
    occupants at their hop counts (a heap keeps their levels in order),
    each node's hops recorded in the window where it is first reached."""
    nodes = snapshots.nodes
    column = {v: c for c, v in enumerate(nodes)}
    edges, occ = edge_sets(snapshots), occ_sets(snapshots)
    out = np.full((len(nodes), len(nodes)), -1)
    np.fill_diagonal(out, 0)
    for source in nodes:
        first = next((t for t, occupants in enumerate(occ) if source in occupants), None)
        if first is None:
            continue
        hops = {source: 0}  # fewest hops of the journeys arrived so far
        for t in range(first, len(occ)):
            adj = {}
            for a, b in edges[t]:
                adj.setdefault(a, set()).add(b)
                adj.setdefault(b, set()).add(a)
            queue = [(h, v) for v, h in hops.items() if v in occ[t]]
            heapq.heapify(queue)
            level = {}
            while queue:
                h, v = heapq.heappop(queue)
                if v in level:
                    continue
                level[v] = h
                for u in adj.get(v, ()):
                    if u not in level:
                        heapq.heappush(queue, (h + 1, u))
            for v, h in level.items():
                if v not in hops:
                    out[column[source], column[v]] = h
                hops[v] = h
    return out


_CHUNK_TICKS = 20000  # bounds position-buffer memory for long runs


# The sweep kernel as it was before matching windows took a closed-form hop:
# every occupied window builds its dense 0/1 adjacency and walks its levels
# with one matmul per level. Copied verbatim from ``temporal_metrics``.
_NO_HOPS = temporal_metrics._NO_HOPS


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
    graphs = snapshots.window_graphs
    log = []
    for t in range(start, snapshots.window_count):
        cols = graphs[t][0]
        if cols.size == 0:
            continue
        h_pre, sigma_pre = h.take(cols, axis=1), sigma.take(cols, axis=1)
        adj, level, base = _levels(graphs[t], h_pre)  # level 0 in a component not yet reached
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
        r, c = np.nonzero((h_pre == _NO_HOPS) & (ht < _NO_HOPS))  # arrivals
        hops[sources[r], cols[c]] = ht[r, c]
        h[:, cols], sigma[:, cols] = ht, st
        log.append((t, h_pre, sigma_pre))
        pending -= len(r)
        if pending == 0:
            break
    delta, credit, later = np.zeros(h.shape), np.zeros(h.shape), log[-1][0] + 1
    for t, h_pre, sigma_pre in reversed(log):
        cols = graphs[t][0]
        if later > t + 1:
            credit += (later - t - 1) * delta  # the edgeless windows between
        ht, st = h.take(cols, axis=1), sigma.take(cols, axis=1)
        adj, level, _ = _levels(graphs[t], ht)
        top, arrived = int(level.max()), (h_pre == _NO_HOPS) & (ht < _NO_HOPS)
        norm, dt = np.maximum(st, 1.0), delta.take(cols, axis=1)
        above = level == top
        for x in range(top - 1, -1, -1):
            pushed = np.where(above, (dt + arrived) / norm, 0.0) @ adj
            above = level == x
            dt = np.where(above, dt + st * pushed, dt)
        share = (dt + arrived) / norm
        delta[:, cols] = dt
        credit += delta
        # unreached states carry sigma 0
        delta[:, cols] = np.where(h_pre == ht, sigma_pre * share, 0.0)
        h[:, cols], sigma[:, cols] = h_pre, sigma_pre
        later = t
    credit[rows, sources] = 0.0
    return credit.sum(axis=0)


def _levels(graph: tuple[np.ndarray, ...], h: np.ndarray) -> tuple[np.ndarray, ...]:
    """One window's 0/1 adjacency, filled from its contacts both ways; the
    levels of the rows x occupants hops ``h``, each less its row's least
    hops in its component; and those least hops. A window never moves its
    level-0 states, so its pre- and post-window hops give the same least
    hops, and after it a component's levels run 0..max with no gap."""
    cols, u, v, comp, firsts = graph
    adj = np.zeros((len(cols), len(cols)))
    adj[u, v] = adj[v, u] = 1.0
    base = np.minimum.reduceat(h, firsts, axis=1).take(comp, axis=1)
    return adj, h - base, base


def waypoint_track(rng: np.random.Generator, p):
    """Breakpoint arrays (t, x, y) for one node's piecewise-linear path,
    drawn one leg at a time: dest x, dest y, speed, then pause."""
    times = [0.0]
    xs = [rng.uniform(0.0, p.area_width)]
    ys = [rng.uniform(0.0, p.area_height)]
    t = 0.0
    while t <= p.duration:
        dest_x = rng.uniform(0.0, p.area_width)
        dest_y = rng.uniform(0.0, p.area_height)
        speed = rng.uniform(p.speed_min, p.speed_max)
        dist = float(np.hypot(dest_x - xs[-1], dest_y - ys[-1]))
        t += max(dist / speed, 1e-9)
        times.append(t)
        xs.append(dest_x)
        ys.append(dest_y)
        pause = rng.uniform(0.0, p.pause_max) if p.pause_max > 0 else 0.0
        if pause > 0:
            t += pause
            times.append(t)
            xs.append(dest_x)
            ys.append(dest_y)
    return np.asarray(times), np.asarray(xs), np.asarray(ys)


def waypoint_tracks(params):
    """Every node's track, the nodes drawing in turn from one seeded generator."""
    rng = np.random.default_rng(params.seed)
    return [waypoint_track(rng, params) for _ in range(params.node_count)]


def rwp_events(params):
    """The random-waypoint contacts of ``params`` in trace order, found one
    tick at a time: the in-range flags of every pair at tick k are compared
    with those at tick k - 1, and an open contact is kept in a dict until its
    pair leaves range."""
    tracks = waypoint_tracks(params)
    n = params.node_count
    range_sq = params.range * params.range
    iu, ju = np.triu_indices(n, k=1)
    open_since: dict[tuple[int, int], float] = {}
    events: list[ContactEvent] = []
    decimals = max(0, int(round(-np.log10(params.tick)))) + 1
    prev_in = np.zeros(len(iu), dtype=bool)
    n_ticks = params.tick_count
    final_t = 0.0
    for chunk_start in range(0, n_ticks, _CHUNK_TICKS):
        idx = np.arange(chunk_start, min(chunk_start + _CHUNK_TICKS, n_ticks))
        tick_times = idx * params.tick
        pos = positions_at(tracks, tick_times)
        for k in range(len(idx)):
            t = round(float(tick_times[k]), decimals)
            diff = pos[k, iu] - pos[k, ju]
            in_range = (diff * diff).sum(axis=1) <= range_sq
            changed = np.nonzero(in_range != prev_in)[0]
            for c in changed:
                pair = (int(iu[c]), int(ju[c]))
                if in_range[c]:
                    open_since[pair] = t
                else:
                    start = open_since.pop(pair)
                    events.append(ContactEvent(pair[0], pair[1], start, t))
            prev_in = in_range
            final_t = t
    for pair, start in sorted(open_since.items()):
        if final_t > start:
            events.append(ContactEvent(pair[0], pair[1], start, final_t))
    return tuple(sorted(events, key=ContactEvent.sort_key))


def _fmt_time(t: float) -> str:
    if t == int(t):
        return str(int(t))
    return repr(float(t))


def common_format_text(trace):
    """The common format, pairs grouped in a dict and each pair's contacts
    sorted by (start, end)."""
    rows = [COMMON_FORMAT_HEADER]
    by_pair = {}
    for ev in trace.events:
        by_pair.setdefault(ev.pair, []).append(ev)
    for pair in sorted(by_pair):
        evs = sorted(by_pair[pair], key=lambda e: (e.start, e.end))
        prev_up = None
        for occ, ev in enumerate(evs, start=1):
            inter = 0.0 if prev_up is None else ev.start - prev_up
            prev_up = ev.start
            rows.append(
                f"{ev.a} {ev.b} {_fmt_time(ev.start)} {_fmt_time(ev.end)} "
                f"{occ} {_fmt_time(inter)}"
            )
    return "\n".join(rows) + "\n"


def one_report_text(trace):
    """The ONE report, one (time, kind, line) tuple per row sorted by time
    and kind."""
    rows = []
    for ev in trace.events:
        rows.append((ev.start, 0, f"{_fmt_time(ev.start)} CONN {ev.a} {ev.b} up"))
        rows.append((ev.end, 1, f"{_fmt_time(ev.end)} CONN {ev.a} {ev.b} down"))
    rows.sort(key=lambda r: (r[0], r[1]))
    return "\n".join(r[2] for r in rows) + "\n"


def merge_pair_overlaps(events: list[ContactEvent]) -> list[ContactEvent]:
    """Merge strictly overlapping intervals of the same pair into their union."""
    by_pair: dict[tuple[int, int], list[ContactEvent]] = {}
    for ev in events:
        by_pair.setdefault(ev.pair, []).append(ev)
    merged: list[ContactEvent] = []
    for pair, evs in by_pair.items():
        evs.sort(key=lambda e: (e.start, e.end))
        cur = evs[0]
        for ev in evs[1:]:
            if ev.start < cur.end:
                cur = ContactEvent(cur.a, cur.b, cur.start, max(cur.end, ev.end))
            else:
                merged.append(cur)
                cur = ev
        merged.append(cur)
    merged.sort(key=ContactEvent.sort_key)
    return merged


def clip_to_period(trace, period):
    """Restrict a trace to one analysis period, one event at a time."""
    clipped = []
    for ev in trace.events:
        if ev.end < period.t_min or ev.start > period.t_max:
            continue
        clipped.append(
            ContactEvent(
                ev.a, ev.b, max(ev.start, period.t_min), min(ev.end, period.t_max)
            )
        )
    return ContactTrace.from_events(clipped, span=(period.t_min, period.t_max))


def lexsort_time_ordered(trace):
    """``ContactTrace._time_ordered`` as it was built on ``np.lexsort``."""
    order = np.lexsort((trace.b, trace.a, trace.end, trace.start))
    return dataclasses.replace(trace, a=trace.a[order], b=trace.b[order],
                               start=trace.start[order], end=trace.end[order])


def lexsort_merge_pair_overlaps(trace):
    """``ingestion._merge_pair_overlaps`` as it was built on ``np.lexsort``
    and a running max of ``np.searchsorted`` ranks."""
    key = trace.a * len(trace.labels) + trace.b
    order = np.lexsort((trace.end, trace.start, key))
    first = np.ones(len(order), dtype=bool)
    first[1:] = key[order][1:] != key[order][:-1]
    end = trace.end[order]
    ordered = np.sort(end)
    rank = np.searchsorted(ordered, end) + (np.cumsum(first) - 1) * len(end)
    first[1:] |= trace.start[order[1:]] >= ordered[np.maximum.accumulate(rank) % len(end)][:-1]
    runs = np.flatnonzero(first)
    rows = order[runs]
    merged = dataclasses.replace(trace, a=trace.a[rows], b=trace.b[rows],
                                 start=trace.start[rows], end=np.maximum.reduceat(end, runs))
    return lexsort_time_ordered(merged)


def lexsort_clip_to_period(trace, period):
    """``ingestion.clip_to_period`` as it was built on ``np.lexsort``."""
    keep = (trace.end >= period.t_min) & (trace.start <= period.t_max)
    a, b = trace.a[keep], trace.b[keep]
    used = np.zeros(len(trace.labels), dtype=bool)
    used[a] = used[b] = True
    nodes = sorted(np.flatnonzero(used).tolist(), key=trace.labels.__getitem__)
    column = np.empty(len(trace.labels), np.intp)
    column[nodes] = np.arange(len(nodes))
    clipped = ContactTrace(tuple(map(trace.labels.__getitem__, nodes)), column[a], column[b],
                           np.maximum(trace.start[keep], period.t_min),
                           np.minimum(trace.end[keep], period.t_max),
                           float(period.t_min), float(period.t_max))
    return lexsort_time_ordered(clipped)


def pair_aggregates(trace):
    """Total contact time and occurrence count per pair, one running sum per
    pair in event order."""
    totals: dict[tuple[int, int], list[float]] = {}
    for ev in trace.events:
        acc = totals.setdefault(ev.pair, [0.0, 0])
        acc[0] += ev.duration
        acc[1] += 1
    return [
        PairAggregate(pair, acc[0], int(acc[1])) for pair, acc in sorted(totals.items())
    ]


def _rows(text: TextSource) -> Iterator[tuple[int, list[str]]]:
    """``(line number, fields)`` per non-blank row; a non-numeric first one is a header."""
    lines = text.splitlines() if isinstance(text, str) else text
    first = True
    for lineno, raw in enumerate(lines, start=1):
        fields = raw.split()
        if not fields:
            continue
        if first:
            first = False
            try:
                float(fields[0])
            except ValueError:
                continue
        yield lineno, fields


def parse_common_format_lines(
    text: TextSource, warnings: Optional[list[ParseWarning]] = None
) -> ContactTrace:
    """Parse the six-column common format into a ContactTrace.

    One contact per row with start = connection-up time and
    end = connection-down time. The occurrence-count and inter-contact
    columns are checked against recomputation; mismatches produce
    warnings and the recomputed values win.
    """
    events: list[tuple[int, int, float, float]] = []
    last_up: dict[tuple[int, int], float] = {}
    occ_seen: dict[tuple[int, int], int] = {}
    for lineno, fields in _rows(text):
        if len(fields) != 6:
            raise ParseError(f"expected 6 columns, got {len(fields)}", lineno)
        try:
            src = int(fields[0])
            dst = int(fields[1])
            up = float(fields[2])
            down = float(fields[3])
            occ = int(fields[4])
            inter = float(fields[5])
        except ValueError as exc:
            raise ParseError(f"non-numeric field: {exc}", lineno) from None
        if not (math.isfinite(up) and math.isfinite(down) and math.isfinite(inter)):
            raise ParseError("non-finite time (nan or inf)", lineno)
        if up > down:
            raise ParseError(f"connection up {up} after down {down}", lineno)
        if src == dst:
            raise ParseError(f"self-contact of node {src}", lineno)
        pair = (src, dst) if src < dst else (dst, src)
        expected_occ = occ_seen.get(pair, 0) + 1
        occ_seen[pair] = expected_occ
        if occ != expected_occ:
            _warn(warnings, lineno, f"occurrence count {occ} != recomputed {expected_occ}")
        expected_inter = up - last_up[pair] if pair in last_up else 0.0
        last_up[pair] = up
        if abs(inter - expected_inter) > 1e-9:
            _warn(
                warnings,
                lineno,
                f"inter-contact time {inter} != recomputed {expected_inter}",
            )
        events.append((*pair, up, down))
    if not events:
        raise ParseError("no events")
    return _merged_trace(events)


_NODE_ID = re.compile(r"^[A-Za-z]*(\d+)$")


def _node_id(token: str, lineno: int) -> int:
    m = _NODE_ID.match(token)
    if not m:
        raise ParseError(f"bad node id {token!r}", lineno)
    return int(m.group(1))


def parse_one_report_lines(
    text: TextSource, warnings: Optional[list[ParseWarning]] = None
) -> ContactTrace:
    """Parse a ONE simulator connectivity report into a ContactTrace.

    Up/down rows are paired per unordered node pair (FIFO on unclosed
    ups; the report may name the pair in either order on the down row).
    An up with no down by end of stream is closed at the last simulation
    time observed, with a warning.
    """
    open_ups: dict[tuple[int, int], list[tuple[float, int]]] = {}
    events: list[tuple[int, int, float, float]] = []
    last_time = -math.inf
    saw_rows = False
    for lineno, fields in _rows(text):
        if len(fields) != 5:
            raise ParseError(f"expected 5 columns, got {len(fields)}", lineno)
        try:
            sim_time = float(fields[0])
        except ValueError:
            raise ParseError(f"non-numeric simulation time {fields[0]!r}", lineno) from None
        if not math.isfinite(sim_time):
            raise ParseError(f"non-finite simulation time {fields[0]!r}", lineno)
        saw_rows = True
        last_time = max(last_time, sim_time)
        if fields[1].upper() != "CONN":
            _warn(warnings, lineno, f"skipping non-CONN operation {fields[1]!r}")
            continue
        n1 = _node_id(fields[2], lineno)
        n2 = _node_id(fields[3], lineno)
        if n1 == n2:
            raise ParseError(f"self-contact of node {n1}", lineno)
        action = fields[4].lower()
        pair = (n1, n2) if n1 < n2 else (n2, n1)
        if action == "up":
            open_ups.setdefault(pair, []).append((sim_time, lineno))
        elif action == "down":
            stack = open_ups.get(pair)
            if not stack:
                raise ParseError(f"down for pair {pair} with no open up", lineno)
            start, _ = stack.pop(0)
            if start > sim_time:
                raise ParseError(
                    f"down for pair {pair} at {sim_time} before its up at {start}", lineno
                )
            events.append((*pair, start, sim_time))
        else:
            raise ParseError(f"unknown action {fields[4]!r}", lineno)
    for pair, stack in open_ups.items():
        for start, lineno in stack:
            _warn(
                warnings,
                lineno,
                f"up for pair {pair} never closed; truncating at {last_time}",
            )
            events.append((*pair, start, last_time))
    if not events:
        raise ParseError("no events" if saw_rows else "empty input, no events")
    return _merged_trace(events)


def _warn(sink: Optional[list[ParseWarning]], line: Optional[int], message: str) -> None:
    if sink is not None:
        sink.append(ParseWarning(line, message))


def _merged_trace(events: list[tuple[int, int, float, float]]) -> ContactTrace:
    """The merged trace of ``(a, b, start, end)`` rows, spanning from the
    first least start to the first greatest end in row order."""
    span = (min(e[2] for e in events), max(e[3] for e in events))
    merged = merge_pair_overlaps(list(itertools.starmap(ContactEvent, events)))
    return ContactTrace.from_events(merged, span=span)
