"""Core domain types for contact traces.

A :class:`ContactTrace` is a contact sequence held as columns: ``labels``,
the ascending node ids (isolated nodes included), and per contact row k
the intp columns ``a[k] < b[k]`` indexing ``labels`` and the float64
columns ``start[k] <= end[k]``, finite and inside ``[span_min, span_max]``,
rows sorted by (start, end, a, b). Every stage reads the columns;
:class:`ContactEvent` is the row view, and :func:`column_of` the one lookup
from a node id to its column.

Every row ordering goes through one int64 key per row: each key column
becomes ranks (an integer column with fewer distinct values than rows is
its own ranks, any other gets dense ranks from one argsort), the ranks
combine into one key, ranked afresh before it would pass m^2 for m rows,
and one default-kind sort of that key times m plus the row index gives
the stable order ``np.lexsort`` would (a key of distinct values needs
only its argsort): that is :func:`row_order`. Stages group rows (by
node pair, say) with :func:`groups`, that order and a mask of each
group's first row, and take running sums and maxima within groups with
:func:`group_cumsum` and :func:`group_cummax`. A node pair is one intp
key ``lo * n + hi``, its columns being below ``n``.

All types are immutable after construction and safe to share across
concurrent readers; the column arrays are read-only. A check of a
caller's input raises :class:`InputError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Optional

import numpy as np


class InputError(ValueError):
    """Input a library check declines; the command line exits 2 on it."""


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


@dataclass(frozen=True, eq=False)
class ContactTrace:
    """A contact sequence as node-column arrays plus the node universe.

    The constructor takes the columns as they are, unsorted and unchecked,
    and stores them as read-only arrays: the caller keeps the invariants
    the module docstring lists.
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
        order = row_order(self.start, self.end, self.a, self.b)
        return replace(self, a=self.a[order], b=self.b[order],
                       start=self.start[order], end=self.end[order])

    def _by_pair(self, *ties: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows grouped by pair in (a, b) order, equal pairs by ``ties``
        (see groups)."""
        return groups(self.a * len(self.labels) + self.b, *ties)

    @cached_property
    def nodes(self) -> frozenset[int]:
        return frozenset(self.labels)

    @cached_property
    def events(self) -> tuple[ContactEvent, ...]:
        """The rows as ContactEvents, in row order."""
        ids = self.labels.__getitem__
        return tuple(map(ContactEvent, map(ids, self.a.tolist()), map(ids, self.b.tolist()),
                         self.start.tolist(), self.end.tolist()))


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
    order = row_order(key, *ties[::-1])
    key = key[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    return order, first


def row_order(*keys: np.ndarray) -> np.ndarray:
    """The rows in ascending order of ``keys``, the first key most
    significant and equal rows in row order: ``np.lexsort(keys[::-1])``.

    Several keys become ranks (see :func:`_ranks`) that combine into one
    int64 key, the first most significant. A key of ``size`` ranks that
    would take one of ``count`` with ``size * count`` above m^2, for m
    rows, is ranked afresh first, to at most m ranks; so no key exceeds
    m^2, which is under 2^62 for m < 2^31. :func:`_key_order` sorts the
    one key that is left.
    """
    m = len(keys[0])
    if not m:
        return np.empty(0, np.intp)
    key = keys[0]
    if len(keys) > 1:
        key, size = _ranks(key)
        for column in keys[1:]:
            rank, count = _ranks(column)
            if size * count > m * m:
                key, size = _ranks(key)
            key *= count
            key += rank
            size *= count
            del rank  # before the next column's ranks are built
    return _key_order(key)


def in_row_order(*keys: np.ndarray) -> bool:
    """Whether :func:`row_order` of ``keys`` would keep the rows where they
    are: each row's keys are at least the row's before it, compared as
    ``np.lexsort`` compares them, save that two rows whose order rests on a
    NaN read as out of order."""
    later = np.ones(max(len(keys[0]) - 1, 0), bool)
    for key in keys[::-1]:
        ahead, behind = key[1:], key[:-1]
        later = (ahead > behind) | ((ahead == behind) & later)
    return bool(later.all())


def _key_order(key: np.ndarray) -> np.ndarray:
    """The stable order of the m rows of ``key``, from one default-kind sort
    of an int64 key below m^2: an integer key of fewer distinct values than
    rows, less its least value, times m plus the row index. Any other key
    is argsorted; if equal keys follow each other there, the sorted key is
    the rank of each run of them times m plus the row at that place."""
    m = len(key)
    if key.dtype.kind == "i" and _span(key) < m:
        key, rows = np.subtract(key, key.min(), dtype=np.int64), np.arange(m)
    else:
        rows, new = _runs(key)
        if new[1:].all():
            return rows
        key = np.cumsum(new, dtype=np.int64)
    key *= m
    key += rows
    key.sort()
    key %= m
    return key


def _ranks(column: np.ndarray) -> tuple[np.ndarray, int]:
    """Int64 ranks of the values of a nonempty ``column``, as ``np.lexsort``
    compares them, and a count above every rank: an integer column of fewer
    distinct values than rows less its least value, else dense ranks (see
    :func:`_runs`) and the count of distinct values."""
    m = len(column)
    if column.dtype.kind == "i" and (span := _span(column)) < m:
        return np.subtract(column, column.min(), dtype=np.int64), span + 1
    order, new = _runs(column)
    rank = np.empty(m, np.int64)
    rank[order] = np.cumsum(new)
    return rank, int(rank[order[-1]]) + 1


def _span(column: np.ndarray) -> int:
    """The greatest value of a nonempty integer column less its least."""
    return int(column.max()) - int(column.min())


def _runs(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The default-kind argsort of a nonempty ``column`` and, along it, a
    mask of the values that differ from the one before, as ``np.lexsort``
    compares them: -0.0 equals 0.0, and NaNs come last and equal."""
    order = np.argsort(column)
    ordered = column[order]
    new = np.empty(len(column), bool)
    new[0] = False
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    if ordered[-1] != ordered[-1]:  # NaNs are sorted last and are one value
        new[np.argmax(ordered != ordered) + 1:] = False
    return order, new


def distinct(column: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The distinct values of a nonempty integer column, ascending, and the index of
    each row's value among them, from a mask of its ranks (see :func:`_ranks`)."""
    rank, count = _ranks(column)
    present = np.zeros(count, bool)
    present[rank] = True
    value = np.empty(count, column.dtype)
    value[rank] = column
    return value[present].tolist(), (np.cumsum(present) - 1)[rank]


def group_cumsum(values: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The running sum of ``values`` within each group of rows that ``first`` opens."""
    total = np.cumsum(values)
    opener = np.maximum.accumulate(np.where(first, np.arange(len(first)), 0))
    return total - (total - values)[opener]


def group_cummax(values: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The running max of ``values`` within each group of rows that ``first``
    opens: a running max of value ranks offset by group, so that no group
    reads an earlier group's values (the offset ranks stay below m^2)."""
    if not len(values):
        return values.copy()
    rank, count = _ranks(values)
    value = np.empty(count, values.dtype)
    value[rank] = values
    return value[np.maximum.accumulate(rank + (np.cumsum(first) - 1) * count) % count]


@dataclass(frozen=True)
class AnalysisPeriod:
    """Half of the analysis contract: the [t_min, t_max] span under study."""

    t_min: float
    t_max: float

    def __post_init__(self):
        lo, hi = self.t_min, self.t_max
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InputError(f"analysis period needs finite bounds, got [{lo}, {hi}]")
        if not lo < hi:
            raise InputError(f"analysis period requires t_min < t_max, got [{lo}, {hi}]")
        if not math.isfinite(self.span):
            raise InputError(f"analysis period [{lo}, {hi}] is too long: t_max - t_min is not "
                             "a finite number")

    @property
    def span(self) -> float:
        return self.t_max - self.t_min


@dataclass(frozen=True)
class WindowConfig:
    """Window width (seconds) and the max intra-window hop horizon.

    ``horizon=None`` means unlimited hops inside one window.
    """

    w: float
    horizon: Optional[int] = None

    def __post_init__(self):
        if not 0 < self.w < math.inf:
            raise InputError(f"window width must be positive and finite, got {self.w}")
        if self.horizon is not None and self.horizon < 1:
            raise InputError(f"horizon must be a positive integer, got {self.horizon}")
