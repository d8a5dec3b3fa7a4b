"""Core domain types for contact traces.

All types are immutable after construction and safe to share across
concurrent readers. Invariant checking lives in :func:`validate_trace`,
which reports violations as data instead of raising, so that partially
broken inputs can still be inspected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional


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


@dataclass(frozen=True)
class ContactTrace:
    """Ordered collection of contact events plus the node universe.

    ``events`` are sorted by start time. ``nodes`` contains every id that
    appears in an event; isolated known nodes may be added explicitly so
    they count toward N.
    """

    events: tuple[ContactEvent, ...]
    nodes: frozenset[int]
    span_min: float
    span_max: float

    @classmethod
    def from_events(
        cls,
        events: Iterable[ContactEvent],
        extra_nodes: Iterable[int] = (),
        span: Optional[tuple[float, float]] = None,
    ) -> "ContactTrace":
        evs = tuple(sorted(events, key=ContactEvent.sort_key))
        nodes = set(extra_nodes)
        for ev in evs:
            nodes.add(ev.a)
            nodes.add(ev.b)
        if span is not None:
            span_min, span_max = float(span[0]), float(span[1])
        elif evs:
            span_min = min(ev.start for ev in evs)
            span_max = max(ev.end for ev in evs)
        else:
            span_min = span_max = 0.0
        return cls(evs, frozenset(nodes), span_min, span_max)

    def contacts_of(self, a: int, b: int) -> tuple[ContactEvent, ...]:
        """All events of the unordered pair (a, b)."""
        if a > b:
            a, b = b, a
        return tuple(ev for ev in self.events if ev.a == a and ev.b == b)


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
    Violation per failed rule. Violations are data, not errors.
    """
    out: list[Violation] = []
    for idx, ev in enumerate(trace.events):
        if ev.a == ev.b:
            out.append(Violation("self-contact", f"event {idx} has a == b == {ev.a}", idx))
        if ev.start > ev.end:
            out.append(
                Violation(
                    "reversed-interval",
                    f"event {idx} has start {ev.start} > end {ev.end}",
                    idx,
                )
            )
        if ev.start < trace.span_min or ev.end > trace.span_max:
            out.append(
                Violation(
                    "outside-span",
                    f"event {idx} [{ev.start}, {ev.end}] escapes span "
                    f"[{trace.span_min}, {trace.span_max}]",
                    idx,
                )
            )
        if ev.a not in trace.nodes or ev.b not in trace.nodes:
            out.append(
                Violation("unknown-node", f"event {idx} references node(s) not in node set", idx)
            )
    for idx in range(1, len(trace.events)):
        if trace.events[idx - 1].start > trace.events[idx].start:
            out.append(
                Violation("unsorted", f"event {idx} starts before its predecessor", idx)
            )
    observed = set()
    for ev in trace.events:
        observed.add(ev.a)
        observed.add(ev.b)
    missing = observed - set(trace.nodes)
    if missing:
        out.append(Violation("node-set-incomplete", f"ids {sorted(missing)} missing from node set"))
    return out
