"""Core domain types for contact traces.

A :class:`ContactTrace` is a contact sequence held as columns: ``labels``,
the ascending node ids (isolated nodes included), and per contact row k
the intp columns ``a[k] < b[k]`` indexing ``labels`` and the float64
columns ``start[k] <= end[k]``, rows sorted by (start, end, a, b). Every
stage reads the columns; :class:`ContactEvent` is the row view, and
:func:`column_of` the one lookup from a node id to its column.

Every stage that groups rows (by node pair, or by window and pair) does it
with :func:`groups`, one stable sort and a mask of each group's first row,
and sums within groups with :func:`group_cumsum`. A node pair is one intp
key ``lo * n + hi``, its columns being below ``n``.

All types are immutable after construction and safe to share across
concurrent readers; the column arrays are read-only. Invariant checking
lives in :func:`validate_trace`, which reports violations as data
instead of raising, so that partially broken inputs can still be
inspected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Optional

import numpy as np


@dataclass(frozen=True)
class ContactEvent:
    """One contact interval between an unordered node pair.

    The pair is canonicalized so that ``a < b``; instantaneous contacts
    with ``start == end`` are legal.
    """

    a: int
    b: int
    start: float
    end: float

    def __post_init__(self):
        if self.a > self.b:
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.a, self.b)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def sort_key(self):
        return (self.start, self.end, self.a, self.b)


@dataclass(frozen=True, eq=False)
class ContactTrace:
    """A contact sequence as node-column arrays plus the node universe.

    The constructor takes the columns as they are, unsorted and unchecked
    (see :func:`validate_trace`), and stores them as read-only arrays.
    """

    labels: tuple[int, ...]
    a: np.ndarray
    b: np.ndarray
    start: np.ndarray
    end: np.ndarray
    span_min: float
    span_max: float

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        for name, dtype in (("a", np.intp), ("b", np.intp), ("start", float), ("end", float)):
            column = np.asarray(getattr(self, name), dtype).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.a)

    @classmethod
    def from_events(
        cls,
        events: Iterable[ContactEvent],
        extra_nodes: Iterable[int] = (),
        span: Optional[tuple[float, float]] = None,
    ) -> "ContactTrace":
        rows = [(ev.a, ev.b, ev.start, ev.end) for ev in events]
        a, b, start, end = zip(*rows) if rows else ((), (), (), ())
        labels = tuple(sorted(set(a).union(b, extra_nodes)))
        column = dict(zip(labels, range(len(labels)))).__getitem__
        if span is None:
            span = (min(start), max(end)) if rows else (0.0, 0.0)
        return cls(labels, list(map(column, a)), list(map(column, b)), start, end,
                   float(span[0]), float(span[1]))._time_ordered()

    def _time_ordered(self) -> "ContactTrace":
        """This trace with its rows sorted by (start, end, a, b)."""
        order = np.lexsort((self.b, self.a, self.end, self.start))
        return replace(self, a=self.a[order], b=self.b[order],
                       start=self.start[order], end=self.end[order])

    def _by_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows grouped by pair in (a, b, start, end) order (see groups)."""
        return groups(self.a * len(self.labels) + self.b, self.end, self.start)

    @cached_property
    def nodes(self) -> frozenset[int]:
        return frozenset(self.labels)

    @cached_property
    def events(self) -> tuple[ContactEvent, ...]:
        """The rows as ContactEvents, in row order."""
        ids = self.labels.__getitem__
        return tuple(map(ContactEvent, map(ids, self.a.tolist()), map(ids, self.b.tolist()),
                         self.start.tolist(), self.end.tolist()))

    def contacts_of(self, a: int, b: int) -> tuple[ContactEvent, ...]:
        """All events of the unordered pair (a, b)."""
        if a > b:
            a, b = b, a
        return tuple(ev for ev in self.events if ev.a == a and ev.b == b)


def column_of(labels: tuple[int, ...], node: int) -> int:
    """The column of node id ``node`` in ``labels``; KeyError if absent."""
    try:
        return labels.index(node)
    except ValueError:
        raise KeyError(f"unknown node id {node}") from None


def groups(key: np.ndarray, *ties: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows sorted by ``key``, equal keys by ``ties`` as ``np.lexsort``
    reads them (the last tie first) and then in row order; and along that
    order a mask of the first row of each distinct key."""
    order = np.lexsort((*ties, key))
    key = key[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    return order, first


def group_cumsum(values: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The running sum of ``values`` within each group of rows that ``first`` opens."""
    total = np.cumsum(values)
    opener = np.maximum.accumulate(np.where(first, np.arange(len(first)), 0))
    return total - (total - values)[opener]


@dataclass(frozen=True)
class AnalysisPeriod:
    """Half of the analysis contract: the [t_min, t_max] span under study."""

    t_min: float
    t_max: float

    def __post_init__(self):
        if not self.t_min < self.t_max:
            raise ValueError(
                f"analysis period requires t_min < t_max, got [{self.t_min}, {self.t_max}]"
            )

    @property
    def span(self) -> float:
        return self.t_max - self.t_min


#: Sentinel for an unbounded intra-window hop horizon.
UNLIMITED: Optional[int] = None


@dataclass(frozen=True)
class WindowConfig:
    """Window width (seconds) and the max intra-window hop horizon.

    ``horizon=None`` means unlimited hops inside one window.
    """

    w: float
    horizon: Optional[int] = UNLIMITED

    def __post_init__(self):
        if not 0 < self.w < math.inf:
            raise ValueError(f"window width must be positive and finite, got {self.w}")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError(f"horizon must be a positive integer, got {self.horizon}")


@dataclass(frozen=True)
class Violation:
    """One invariant failure found by validate_trace."""

    rule: str
    detail: str
    event_index: Optional[int] = None


def validate_trace(trace: ContactTrace) -> list[Violation]:
    """Check every ContactEvent and ContactTrace invariant.

    Returns an empty list iff the trace is valid; otherwise one
    Violation per failed rule and event, grouped by rule. Violations are
    data, not errors.
    """
    a, b, n = trace.a, trace.b, len(trace.labels)
    start, end = trace.start.tolist(), trace.end.tolist()
    lo, hi = trace.span_min, trace.span_max
    unknown = (a < 0) | (a >= n) | (b < 0) | (b >= n)
    rules = [
        ("self-contact", a == b,
         lambda k: f"event {k} has a == b == {a[k] if unknown[k] else trace.labels[a[k]]}"),
        ("reversed-interval", trace.start > trace.end,
         lambda k: f"event {k} has start {start[k]} > end {end[k]}"),
        ("outside-span", (trace.start < lo) | (trace.end > hi),
         lambda k: f"event {k} [{start[k]}, {end[k]}] escapes span [{lo}, {hi}]"),
        ("unknown-node", unknown, lambda k: f"event {k} references node(s) not in node set"),
        ("unsorted", np.diff(trace.start, prepend=-math.inf) < 0,
         lambda k: f"event {k} starts before its predecessor"),
    ]
    out = [
        Violation(rule, detail(k), k)
        for rule, mask, detail in rules
        for k in np.flatnonzero(mask).tolist()
    ]
    if unknown.any():
        missing = sorted({*a[unknown].tolist(), *b[unknown].tolist()} - set(range(n)))
        out.append(Violation("node-set-incomplete", f"columns {missing} not in the {n} labels"))
    return out
