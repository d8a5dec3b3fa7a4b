"""Time-window sizing and snapshot construction.

The optimal window width is driven by the average meeting time per
contact: total contact time over all pairs divided by total contact
occurrences. The trace is then materialized as a sequence of W =
ceil((t_max - t_min)/w) snapshots; window k covers the half-open
interval [t_min + k*w, t_min + (k+1)*w), with the final window closed
at t_max so every instant maps to exactly one window.

:func:`build_snapshots` places the events in ``SnapshotSequence.contacts``, the one
array holding the graph; every other view of the windows is derived from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, pairwise

import numpy as np

from .trace_model import AnalysisPeriod, ContactTrace, InputError, WindowConfig, row_order


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


@dataclass(frozen=True, eq=False)
class SnapshotSequence:
    """The temporal graph: W fixed-width snapshots over one period.

    ``contacts`` is the graph: an (M, 3) integer array with one row
    ``(window, col_a, col_b)`` per contact per window, sorted and free of
    duplicates, where ``col_a < col_b`` index ``nodes``. Every other view
    (the ``windows`` snapshots, occupancy, window graphs, next-occurrence and
    infection tables) is derived from it once per instance and cached.
    """

    window_width: float
    window_count: int
    contacts: np.ndarray
    nodes: tuple[int, ...]

    @cached_property
    def windows(self) -> tuple[Snapshot, ...]:
        """One Snapshot per window, in node ids."""
        edges: list[list[tuple[int, int]]] = [[] for _ in range(self.window_count)]
        for t, a, b in self.contacts.tolist():
            edges[t].append((self.nodes[a], self.nodes[b]))
        return tuple(Snapshot(frozenset(e), frozenset(chain(*e))) for e in edges)

    @cached_property
    def occupancy(self) -> np.ndarray:
        """W x N boolean array: ``occupancy[t, c]`` when ``nodes[c]`` occurs
        in window t."""
        t, a, b = self.contacts.T
        occ = np.zeros((self.window_count, len(self.nodes)), dtype=bool)
        occ[t, a] = occ[t, b] = True
        return occ

    @cached_property
    def window_graphs(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """Per window ``(cols, u, v, comp, firsts)``: the occupant columns
        grouped by connected component (components by least column, ascending
        in each); each contact once, as its endpoints ``u``, ``v`` (the
        contact's ``col_a``, ``col_b``) indexing ``cols``; each occupant's
        component, from 0; and each component's first occupant. One label
        propagation labels every window's components, and each window's arrays
        are views of five flat arrays, sliced where the window starts in them."""
        n, count = len(self.nodes), self.window_count
        t, a, b = self.contacts.T
        keys = np.flatnonzero(self.occupancy)  # window * n + column
        rank = np.cumsum(self.occupancy.ravel()) - 1
        u, v, label = rank[t * n + a], rank[t * n + b], np.arange(len(keys))
        while True:  # hook roots to neighbours' least roots, then jump
            lu, lv = label[u], label[v]
            if np.array_equal(lu, lv):
                break
            np.minimum.at(label, lu, lv)
            np.minimum.at(label, lv, lu)
            while not np.array_equal(label, label[label]):
                label = label[label]
        order, win = row_order(label), keys // n  # windows stay in order
        first = np.r_[0, np.cumsum(np.bincount(win, minlength=count))]
        local = np.empty_like(order)
        local[order] = np.arange(len(order)) - first[win]
        lead = label[order] == order
        comp = np.cumsum(lead)  # components so far
        # where each window starts among the occupants, contacts and components
        at = np.c_[first, np.bincount(t + 1, minlength=count + 1).cumsum(), np.r_[0, comp][first]]
        cols, u, v, firsts = keys[order] % n, local[u], local[v], np.flatnonzero(lead)
        comp, firsts = comp - comp[first[win]], firsts - first[win[lead]]
        return tuple((cols[o:p], u[e:f], v[e:f], comp[o:p], firsts[c:d])
                     for (o, e, c), (p, f, d) in pairwise(at.tolist()))

    @cached_property
    def next_occurrence(self) -> np.ndarray:
        """(W+1) x N int array: ``nxt[t, c]`` is the first window >= t in
        which ``nodes[c]`` occurs, W if none (row W is all W)."""
        occ, count = np.pad(self.occupancy, ((0, 1), (0, 0))), self.window_count
        at = np.where(occ, np.arange(count + 1)[:, None], count)
        return np.minimum.accumulate(at[::-1], axis=0)[::-1]

    @cached_property
    def infection_table(self) -> np.ndarray:
        """W x N int array: ``H[s, c]`` is the first window >= s infected by a
        scan started at s in which ``nodes[c]`` occurs, -1 if none.

        A scan from s infects s, and a later window that shares an occupant
        with a window infected before it: that is s and what the scans from
        ``nxt[s + 1, m]`` infect, for the occupants m of s. One pass from
        s = W-1 down sets ``H[s]`` to s on those occupants and elsewhere to
        the minimum of the rows ``H[nxt[s + 1, m]]`` (-1 read as +inf), in
        O(N * total occupancy) element operations and at most W steps.
        """
        count = self.window_count
        win, col = np.nonzero(self.occupancy)  # by window, then column
        succ = self.next_occurrence[win + 1, col]
        runs = np.flatnonzero(np.diff(win, prepend=-1)).tolist()
        H = np.full((count + 1, len(self.nodes)), count)  # count reads as +inf
        for lo, hi in reversed(list(pairwise([*runs, len(win)]))):
            s = win[lo]
            H[s] = H[succ[lo:hi]].min(axis=0)
            H[s, col[lo:hi]] = s
        return np.where(H[:count] < count, H[:count], -1)


def pair_aggregates(trace: ContactTrace) -> list[PairAggregate]:
    """One aggregate per pair with at least one contact in the trace; clip
    the trace to a period first to aggregate that period.

    Instantaneous contacts contribute zero duration but one occurrence.
    """
    order, first = trace._by_pair()
    pair = np.empty_like(order)
    pair[order] = np.cumsum(first) - 1
    # bincount adds in row order, as one running sum per pair would
    totals = np.bincount(pair, trace.end - trace.start).tolist()
    ids, rows = trace.labels, order[first]
    pairs = zip(trace.a[rows].tolist(), trace.b[rows].tolist())
    return [
        PairAggregate((ids[a], ids[b]), total, count)
        for (a, b), total, count in zip(pairs, totals, np.bincount(pair).tolist())
    ]


def average_meeting_time(aggregates: list[PairAggregate]) -> float:
    """Sum of contact time over sum of occurrences, across all pairs."""
    if not aggregates:
        raise InputError("no contacts in period")
    total_time = sum(a.total_contact_time for a in aggregates)
    total_occ = sum(a.occurrence_count for a in aggregates)
    return total_time / total_occ


def recommend_window(aggregates: list[PairAggregate]) -> float:
    """Smallest positive multiple of 60 strictly greater than the average
    meeting time; InputError if that time or that multiple is not a finite
    number."""
    avg = average_meeting_time(aggregates)
    if not math.isfinite(avg):
        raise InputError("average meeting time is not a finite number: the total contact "
                         "time overflows")
    try:
        return float((math.floor(avg / 60) + 1) * 60)
    except OverflowError:
        raise InputError(f"recommended window is not a finite number: the average meeting "
                         f"time {avg:g} is too close to the largest float") from None


def window_count(period: AnalysisPeriod, w: float) -> int:
    """Number of windows W = ceil((t_max - t_min)/w), at least 1."""
    WindowConfig(w)  # the one check of the width
    ratio = period.span / w
    if not math.isfinite(ratio):
        raise InputError(f"window {w:g} is too fine: span / width is not a finite number")
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
    start, end = trace.start, trace.end
    inside = (end >= period.t_min) & (start <= period.t_max)
    # windows of the ends; clamping to [0, W-1] clips the event to the period
    k = np.floor((np.stack([start, end])[:, inside] - period.t_min) / w + 1e-9)
    k0, k1 = np.clip(k, 0, count - 1).astype(np.intp)
    spans = np.maximum(k1 - k0 + 1, 0)
    # one key (window * n + a) * n + b per event per window it intersects,
    # sorted and de-duplicated, then decoded
    window = np.repeat(k0 - np.cumsum(spans) + spans, spans) + np.arange(spans.sum())
    n = len(trace.labels)
    key = (window * n + np.repeat(trace.a[inside], spans)) * n
    key += np.repeat(trace.b[inside], spans)
    del window
    key.sort()
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    key = key[first]
    contacts = np.empty((len(key), 3), key.dtype)
    np.divmod(key, n * n, out=(contacts[:, 0], key))
    np.divmod(key, n, out=(contacts[:, 1], contacts[:, 2]))
    return SnapshotSequence(window_width=float(w), window_count=count, contacts=contacts,
                            nodes=trace.labels)
