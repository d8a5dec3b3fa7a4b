"""Trace file parsing and writing.

Two on-disk formats are supported:

* the six-column common format (source, destination, connection-up time,
  connection-down time, occurrence count, inter-contact time), one
  contact per line, whitespace-delimited, optional header line;
* ONE simulator connectivity reports, lines of the form
  ``<sim_time> CONN <node1> <node2> <up|down>``.

The redundant common-format columns (occurrence count, inter-contact
time) are always re-derived and never trusted; mismatches surface as
warnings. Overlapping intervals for the same pair are merged into one
event spanning their union before analysis, so a pair's airtime is
never double counted.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from itertools import compress
from typing import IO, Iterable, Iterator, Optional, Union

import numpy as np

from .trace_model import AnalysisPeriod, ContactTrace

TextSource = Union[str, IO[str], Iterable[str]]
# Rows the writers format at once.
_BLOCK_ROWS = 1024


class ParseError(ValueError):
    """Malformed input; carries the 1-based line number when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class ParseWarning:
    """Non-fatal oddity found while parsing (recomputed values win)."""

    line: Optional[int]
    message: str


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


def _merge_pair_overlaps(trace: ContactTrace) -> ContactTrace:
    """Merge strictly overlapping intervals of the same pair into their union.

    In (pair, start, end) order, a row opens a new interval when it is its
    pair's first or starts at or after the latest end of its pair's rows
    before it.
    """
    order, first = trace._by_pair()
    end = trace.end[order]
    first[1:] |= trace.start[order[1:]] >= _running_max(end, first)[:-1]
    runs = np.flatnonzero(first)
    rows = order[runs]
    merged = replace(trace, a=trace.a[rows], b=trace.b[rows], start=trace.start[rows],
                     end=np.maximum.reduceat(end, runs))
    return merged._time_ordered()


def _running_max(values: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The running max of ``values`` within each group of rows that ``first``
    opens: a running max of value ranks offset by group, so that no group
    reads an earlier group's values."""
    ordered = np.sort(values)
    rank = np.searchsorted(ordered, values) + (np.cumsum(first) - 1) * len(values)
    return ordered[np.maximum.accumulate(rank) % len(values)]


def parse_common_format(
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
    return _merge_pair_overlaps(ContactTrace._from_rows(events))


_NODE_ID = re.compile(r"^[A-Za-z]*(\d+)$")


def _node_id(token: str, lineno: int) -> int:
    m = _NODE_ID.match(token)
    if not m:
        raise ParseError(f"bad node id {token!r}", lineno)
    return int(m.group(1))


def parse_one_report(
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
    last_time = 0.0
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
    return _merge_pair_overlaps(ContactTrace._from_rows(events))


def _warn(sink: Optional[list[ParseWarning]], line: Optional[int], message: str) -> None:
    if sink is not None:
        sink.append(ParseWarning(line, message))


def clip_to_period(trace: ContactTrace, period: AnalysisPeriod) -> ContactTrace:
    """Restrict a trace to one analysis period.

    Events wholly outside [t_min, t_max] are dropped; straddling events
    are truncated to the boundary. The node set is recomputed from the
    surviving events.
    """
    keep = (trace.end >= period.t_min) & (trace.start <= period.t_max)
    a, b = trace.a[keep], trace.b[keep]
    used = np.zeros(len(trace.labels), dtype=bool)
    used[a] = used[b] = True
    column = np.cumsum(used) - 1
    start = np.maximum(trace.start[keep], period.t_min)
    end = np.minimum(trace.end[keep], period.t_max)
    clipped = ContactTrace(tuple(compress(trace.labels, used)), column[a], column[b], start, end,
                           float(period.t_min), float(period.t_max))
    return clipped._time_ordered()


def _times(t: np.ndarray) -> np.ndarray:
    """The times as an object array that formats as the writers print them:
    an int where the time is whole, else the float (whose str is its repr)."""
    out = t.astype(object)
    whole = t == np.trunc(t)
    out[whole] = list(map(int, t[whole].tolist()))
    return out


def _blocks(fmt: str, *columns: np.ndarray) -> list[str]:
    """The rows of the columns put through ``fmt``, one line each, joined a
    block of ``_BLOCK_ROWS`` rows at a time so that only one block's Python
    values exist at once; float columns print as ``_times``."""
    out = []
    for k in range(0, len(columns[0]), _BLOCK_ROWS):
        block = [c[k:k + _BLOCK_ROWS] for c in columns]
        values = [_times(c) if c.dtype == float else c.tolist() for c in block]
        out.append("\n".join(map(fmt.format, *values)))
    return out


COMMON_FORMAT_HEADER = (
    "source destination conn_up conn_down occurrence_count intercontact_time"
)


def write_common_format(trace: ContactTrace) -> str:
    """Emit the common format, one row per contact, sorted by (pair, start).

    Occurrence counts and inter-contact times are freshly derived;
    parse_common_format(write_common_format(t)) reproduces t's events.
    """
    order, first = trace._by_pair()
    a, b, start, end = (x[order] for x in (trace.a, trace.b, trace.start, trace.end))
    index = np.arange(len(a))
    occ = index - np.maximum.accumulate(np.where(first, index, 0)) + 1
    inter = np.where(first, 0.0, np.diff(start, prepend=start[:1]))
    ids = np.array(trace.labels, dtype=object)
    rows = _blocks("{} {} {} {} {} {}", ids[a], ids[b], start, end, occ, inter)
    return "\n".join([COMMON_FORMAT_HEADER, *rows]) + "\n"


def write_one_report(trace: ContactTrace) -> str:
    """Emit a ONE-style connectivity report: up/down rows sorted by time,
    an up before a down at equal times, otherwise in event order."""
    times = np.concatenate([trace.start, trace.end])
    # Every up precedes every down here, so a stable sort by time is enough.
    order = np.argsort(times, kind="stable")
    down, row = np.divmod(order, len(trace))
    ids, kind = np.array(trace.labels, dtype=object), np.array(["up", "down"], dtype=object)
    rows = _blocks("{} CONN {} {} {}", times[order], ids[trace.a[row]], ids[trace.b[row]],
                   kind[down])
    return "\n".join(rows) + "\n"
