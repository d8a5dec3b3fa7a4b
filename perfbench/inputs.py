"""Seeded contact traces for the dense-contacts and sparse-long workloads.

The traces are drawn with numpy alone, never with ``dtnmetrics.generate``,
so a change to the program's random-waypoint generator cannot change the
inputs these workloads measure. Each generator checks that its trace sits
in the workload's regime (event count, window count, occupancy,
zero-distance share, diameter) with a reference computation written here,
and raises :class:`RegimeError` when a seed misses it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class RegimeError(AssertionError):
    """A seed produced a trace outside its workload's regime."""


@dataclass(frozen=True)
class Trace:
    """Contact intervals ``[start, end]`` of unordered pairs ``a < b``.

    Times are whole seconds; ``span`` is the analysed period ``[0, span]``
    and ``w`` the window width the workload analyses it with.
    """

    a: np.ndarray
    b: np.ndarray
    start: np.ndarray
    end: np.ndarray
    nodes: int
    span: int
    w: int

    @property
    def windows(self) -> int:
        return -(-self.span // self.w)


@dataclass(frozen=True)
class Regime:
    """What the reference computation measured on one trace."""

    events: int
    windows: int
    occupancy_mean: float
    occupancy_min: int
    zero_distance_share: float
    diameter_hops: int
    mean_distance_s: float


def occupancy(trace: Trace) -> np.ndarray:
    """W x N boolean array: node n occurs in window k.

    An event occurs in every window its closed interval touches; window k
    is ``[k*w, (k+1)*w)`` and the last window is closed at ``span``.
    """
    W = trace.windows
    k0 = np.minimum(trace.start // trace.w, W - 1)
    k1 = np.minimum(trace.end // trace.w, W - 1)
    occ = np.zeros((W, trace.nodes), dtype=bool)
    lengths = k1 - k0 + 1
    ks = np.repeat(k0, lengths) + (
        np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    )
    occ[ks, np.repeat(trace.a, lengths)] = True
    occ[ks, np.repeat(trace.b, lengths)] = True
    return occ


def reference_distances(occ: np.ndarray) -> np.ndarray:
    """All-pairs window-hop distances under occurrence-list semantics.

    A scan from window s infects s, then every later window that shares an
    occupant with the carriers so far; H[s, n] is the first infected window
    in which n occurs. A pair's scans start at the source's first
    occurrence and restart at its first occurrence past each hit; the
    distance is the smallest hit - start, -1 when the first scan misses.
    """
    W, N = occ.shape
    bits = [int("".join("1" if x else "0" for x in row[::-1]) or "0", 2) for row in occ]
    H = np.full((W, N), -1, dtype=np.int64)
    for s in range(W):
        if not bits[s]:
            continue
        carriers = bits[s]
        infected = [s]
        for t in range(s + 1, W):
            if carriers & bits[t]:
                infected.append(t)
                carriers |= bits[t]
        sub = occ[infected]
        seen = sub.any(axis=0)
        H[s, seen] = np.asarray(infected)[sub.argmax(axis=0)[seen]]
    dist = np.full((N, N), -1, dtype=np.int64)
    for i in range(N):
        floor = np.zeros(N, dtype=np.int64)
        alive = np.ones(N, dtype=bool)
        best = np.full(N, np.iinfo(np.int64).max)
        for s in np.flatnonzero(occ[:, i]):
            due = alive & (floor <= s)
            hit = due & (H[s] >= 0)
            alive &= ~(due & (H[s] < 0))
            best[hit] = np.minimum(best[hit], H[s][hit] - s)
            floor[hit] = H[s][hit] + 1
        found = best != np.iinfo(np.int64).max
        dist[i, found] = best[found]
        dist[i, i] = 0
    return dist


def measure_regime(trace: Trace) -> Regime:
    occ = occupancy(trace)
    dist = reference_distances(occ)
    n = trace.nodes
    off = ~np.eye(n, dtype=bool)
    reach = dist[off]
    per_window = occ.sum(axis=1)
    return Regime(
        events=len(trace.a),
        windows=trace.windows,
        occupancy_mean=float(per_window.mean()),
        occupancy_min=int(per_window.min()),
        zero_distance_share=float((reach == 0).sum() / reach.size),
        diameter_hops=int(reach.max()),
        mean_distance_s=float(trace.w * reach[reach > 0].sum() / (n * (n - 1))),
    )


def _require(ok: bool, what: str, regime: Regime) -> None:
    if not ok:
        raise RegimeError(f"trace misses its regime ({what}): {regime}")


def _sorted(a, b, start, end, nodes, span, w) -> Trace:
    order = np.lexsort((end, start, b, a))
    return Trace(a[order], b[order], start[order], end[order], nodes, span, w)


def dense_contacts(
    seed: int, nodes: int, span: int, w: int, events: int
) -> Trace:
    """Many short contacts; every window holds every node.

    Each window first gets a random perfect matching of the nodes (so every
    node occurs in every window by construction), then the remaining events
    fall on uniformly random pairs and times. Every temporal distance is 0.
    """
    if nodes % 2:
        raise ValueError("dense-contacts needs an even node count")
    rng = np.random.default_rng([seed, 1])
    W = -(-span // w)
    matched = rng.permuted(np.tile(np.arange(nodes), (W, 1)), axis=1).reshape(-1, 2)
    cover_dur = rng.integers(1, 11, len(matched))
    window_lo = np.repeat(np.arange(W) * w, nodes // 2)
    cover_start = window_lo + rng.integers(0, w - cover_dur)
    extra = events - len(matched)
    iu, ju = np.triu_indices(nodes, k=1)
    k = rng.integers(0, len(iu), extra)
    dur = rng.integers(1, 11, extra)
    start = rng.integers(0, span - dur + 1)
    a = np.concatenate([matched.min(axis=1), iu[k]])
    b = np.concatenate([matched.max(axis=1), ju[k]])
    st = np.concatenate([cover_start, start])
    en = np.concatenate([cover_start + cover_dur, start + dur])
    trace = _sorted(a, b, st, en, nodes, span, w)
    regime = measure_regime(trace)
    _require(regime.events == events, "event count", regime)
    _require(regime.windows == W, "window count", regime)
    _require(regime.occupancy_min == nodes, "every window holds every node", regime)
    _require(regime.zero_distance_share == 1.0, "every distance is 0", regime)
    return trace


def sparse_long(seed: int, nodes: int, span: int, w: int, events: int) -> Trace:
    """Few contacts over many windows; journeys span hundreds of windows.

    Pairs are uniform and contacts last 5-60 s, so a window holds a handful
    of nodes. Node 0 meets only node 2, in the first tenth of the span, and
    node 1 meets only node 2, in the last tenth: a message from node 0 rides
    node 2 to node 1, which keeps the temporal diameter above 100 hops for
    every seed. The other nodes mix over the whole span.
    """
    rng = np.random.default_rng([seed, 2])
    iu, ju = np.triu_indices(nodes, k=1)
    k = rng.integers(0, len(iu), events)
    a, b = iu[k].copy(), ju[k].copy()
    dur = rng.integers(5, 61, events)
    start = rng.integers(0, span - dur + 1)
    a[:2], b[:2] = (0, 1), 2  # at least one contact for each end node
    early = a == 0
    late = (a == 1) | (b == 1)
    a[late], b[late] = 1, 2
    b[early] = 2
    tenth = span // 10
    start[early] = rng.integers(0, tenth - dur[early] + 1)
    start[late] = rng.integers(span - tenth, span - dur[late] + 1)
    trace = _sorted(a, b, start, start + dur, nodes, span, w)
    regime = measure_regime(trace)
    _require(regime.events == events, "event count", regime)
    _require(regime.windows == -(-span // w), "window count", regime)
    _require(3.0 <= regime.occupancy_mean <= 10.0, "occupancy 3-10 per window", regime)
    _require(regime.diameter_hops > 100, "temporal diameter above 100 hops", regime)
    _require(regime.zero_distance_share < 0.99, "distances not all 0", regime)
    return trace


def common_format_text(trace: Trace) -> str:
    """The trace in the six-column common format, rows sorted by pair and start.

    The occurrence-count and inter-contact columns are derived here the
    way the program's parser re-derives them, so parsing warns about none.
    """
    rows = ["source destination conn_up conn_down occurrence_count intercontact_time"]
    previous = None
    occurrence = 0
    columns = (trace.a.tolist(), trace.b.tolist(), trace.start.tolist(), trace.end.tolist())
    for a, b, start, end in zip(*columns):
        if previous is not None and previous[0] == (a, b):
            occurrence, inter = occurrence + 1, start - previous[1]
        else:
            occurrence, inter = 1, 0
        previous = ((a, b), start)
        rows.append(f"{a} {b} {start} {end} {occurrence} {inter}")
    return "\n".join(rows) + "\n"
