"""Time-window sizing and snapshot construction.

The optimal window width is driven by the average meeting time per
contact: total contact time over all pairs divided by total contact
occurrences. The trace is then materialized as a sequence of W =
ceil((t_max - t_min)/w) snapshots; window k covers the half-open
interval [t_min + k*w, t_min + (k+1)*w), with the final window closed
at t_max so every instant maps to exactly one window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .trace_model import AnalysisPeriod, ContactTrace, WindowConfig


@dataclass(frozen=True)
class PairAggregate:
    """Total contact time and occurrence count for one node pair."""

    pair: tuple[int, int]
    total_contact_time: float
    occurrence_count: int


@dataclass(frozen=True)
class Snapshot:
    """One time window: the pairs in contact and the nodes occurring."""

    edges: frozenset[tuple[int, int]]
    occupants: frozenset[int]


@dataclass(frozen=True)
class SnapshotSequence:
    """The temporal graph: W fixed-width snapshots over one period.

    The occupancy array, the window graphs and the infection table are
    derived once per instance and cached on it, outside the dataclass
    fields, so equality and hashing still see only the fields.
    """

    window_width: float
    window_count: int
    windows: tuple[Snapshot, ...]
    nodes: tuple[int, ...]
    t_min: float

    @cached_property
    def occupancy(self) -> np.ndarray:
        """W x N boolean array: ``occupancy[t, c]`` when ``nodes[c]`` occurs
        in window t."""
        column = {node: c for c, node in enumerate(self.nodes)}
        occ = np.zeros((self.window_count, len(self.nodes)), dtype=bool)
        for t, snap in enumerate(self.windows):
            occ[t, [column[n] for n in snap.occupants]] = True
        return occ

    @cached_property
    def window_graphs(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """Per window ``(cols, src, dst, starts)``: the occupant columns,
        ascending; each contact as two directed edges ``src -> dst``, indices
        into ``cols``, grouped by ``dst``; and ``starts[k]``, the first edge
        into occupant k, for ``np.ufunc.reduceat``. The edge set is
        symmetric, so read as ``dst -> src`` the same arrays group by tail."""
        n, count = len(self.nodes), self.window_count
        sizes = [len(snap.edges) for snap in self.windows]
        ends = chain.from_iterable(chain.from_iterable(s.edges for s in self.windows))
        flat = np.fromiter(ends, dtype=np.intp, count=2 * sum(sizes))
        pairs = np.searchsorted(np.array(self.nodes), flat).reshape(-1, 2)
        # both directions of every contact, ends as keys window * n + column
        base = np.repeat(np.arange(count) * n, sizes)
        head = np.concatenate([base + pairs[:, 1], base + pairs[:, 0]])
        tail = np.concatenate([base + pairs[:, 0], base + pairs[:, 1]])
        del flat, pairs, base  # free edge-sized temporaries as soon as done
        order = np.argsort(head, kind="stable")
        head, tail = head[order], tail[order]
        del order
        states = head[np.diff(head, prepend=-1) != 0]  # (window, occupant) keys
        first_state = np.searchsorted(states // n, np.arange(count + 1))
        first_edge = np.searchsorted(head // n, np.arange(count + 1))
        src = np.searchsorted(states, tail) - first_state[tail // n]
        dst = np.searchsorted(states, head) - first_state[head // n]
        starts = np.searchsorted(head, states) - first_edge[states // n]
        cols = states % n
        bounds = zip(first_state, first_state[1:], first_edge, first_edge[1:])
        return tuple(
            (cols[s0:s1], src[e0:e1], dst[e0:e1], starts[s0:s1])
            for s0, s1, e0, e1 in bounds
        )

    @cached_property
    def infection_table(self) -> np.ndarray:
        """W x N int array: ``H[s, c]`` is the first window >= s infected by a
        scan started at s in which ``nodes[c]`` occurs, -1 if none.

        A scan from s infects s; a later window is infected when it shares
        an occupant with the scan's carriers (the nodes it has reached so
        far, i.e. those with ``H[s, c] >= 0``), and its occupants then
        join the carriers. One forward pass over t advances the scans of
        all starts s <= t, touching only the occupants of t.
        """
        occ = self.occupancy
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

    def occurrence_windows(self, node: int) -> tuple[int, ...]:
        """Window indices in which the node occurs, ascending."""
        if node not in self.nodes:
            return ()
        column = self.occupancy[:, self.nodes.index(node)]
        return tuple(int(k) for k in np.flatnonzero(column))


def pair_aggregates(
    trace: ContactTrace, period: AnalysisPeriod | None = None
) -> list[PairAggregate]:
    """One aggregate per pair with at least one contact in the period.

    Instantaneous contacts contribute zero duration but one occurrence.
    The trace is expected to be clipped already; a period may be passed
    to clip here instead.
    """
    if period is not None:
        from .ingestion import clip_to_period

        trace = clip_to_period(trace, period)
    totals: dict[tuple[int, int], list[float]] = {}
    for ev in trace.events:
        acc = totals.setdefault(ev.pair, [0.0, 0])
        acc[0] += ev.duration
        acc[1] += 1
    return [
        PairAggregate(pair, acc[0], int(acc[1])) for pair, acc in sorted(totals.items())
    ]


def average_meeting_time(aggregates: list[PairAggregate]) -> float:
    """Sum of contact time over sum of occurrences, across all pairs."""
    if not aggregates:
        raise ValueError("no contacts in period")
    total_time = sum(a.total_contact_time for a in aggregates)
    total_occ = sum(a.occurrence_count for a in aggregates)
    return total_time / total_occ


def recommend_window(aggregates: list[PairAggregate]) -> float:
    """Smallest positive multiple of 60 strictly greater than the average
    meeting time."""
    avg = average_meeting_time(aggregates)
    return float((math.floor(avg / 60) + 1) * 60)


def window_count(period: AnalysisPeriod, w: float) -> int:
    """Number of windows W = ceil((t_max - t_min)/w), at least 1."""
    if not w > 0:
        raise ValueError(f"window width must be positive, got {w}")
    ratio = period.span / w
    nearest = round(ratio)
    if abs(ratio - nearest) < 1e-9 and nearest >= 1:
        return int(nearest)
    return max(1, math.ceil(ratio))


def build_snapshots(
    trace: ContactTrace, period: AnalysisPeriod, cfg: WindowConfig
) -> SnapshotSequence:
    """Materialize the trace as a snapshot sequence.

    An event appears as an edge in every window its interval intersects;
    a window's occupant set is the union of its edges' endpoints. Empty
    windows are retained so indices line up with time.
    """
    w = cfg.w
    count = window_count(period, w)
    edge_sets: list[set[tuple[int, int]]] = [set() for _ in range(count)]
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
            edge_sets[k].add(ev.pair)
    snaps = []
    for es in edge_sets:
        occupants = frozenset(n for pair in es for n in pair)
        snaps.append(Snapshot(frozenset(es), occupants))
    return SnapshotSequence(
        window_width=float(w),
        window_count=count,
        windows=tuple(snaps),
        nodes=tuple(sorted(trace.nodes)),
        t_min=period.t_min,
    )
