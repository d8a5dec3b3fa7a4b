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
never double counted. The writers print ``_BLOCK_ROWS`` rows per ``%`` call.

A str text (the command line passes one) is first offered to numpy's C
reader, one ``np.loadtxt`` call (``_clean_rows``), whose columns get the
checks and cross-row rules below. It takes only a text it reads as the
line loop does; see ``_clean_rows``, ``_clean_common`` and
``_clean_one``. Any other text, and every file handle and iterable of
lines, goes whole to the line loop (``_common_lines``, ``_one_lines``),
so every text gives the same trace, warnings and errors whichever read
takes it.

The line loop converts and checks each row's fields in field order,
with Python ``int`` semantics for ids, so ``"07"`` is node 7 and ids of
2^64 keep their identity. A malformed row raises ``ParseError`` with its
line and the message of the first check it fails; the warnings of the
rows before it are still reported. Both reads hand columns to the same
array code for the rules that span rows (the re-derived columns, FIFO
pairing of ups and downs).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import IO, Iterable, Iterator, Optional, Sequence, Union
from warnings import catch_warnings, simplefilter

import numpy as np

from .trace_model import (AnalysisPeriod, ContactTrace, InputError, distinct, group_cummax,
                          group_cumsum, groups, in_row_order, row_order)

TextSource = Union[str, IO[str], Iterable[str]]
# Rows the writers hold as Python values and print with one ``%`` format call.
_BLOCK_ROWS = 1024


class ParseError(InputError):
    """Malformed input (an InputError); carries the 1-based line number when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class ParseWarning:
    """Non-fatal oddity found while parsing (recomputed values win)."""

    line: Optional[int]
    message: str


def _is_header(fields: list[str]) -> bool:
    """Whether the first non-blank row, split into ``fields``, is a header:
    its first field is not a number."""
    try:
        float(fields[0])
    except ValueError:
        return True
    return False


def _rows(text: TextSource, width: int) -> Iterator[tuple[int, list[str]]]:
    """``(line number, fields)`` per non-blank row of ``text`` (a str is
    split as ``str.splitlines`` splits it), skipping the first if it is a
    header. ParseError at a row of other than ``width`` fields."""
    lines = text.splitlines() if isinstance(text, str) else text
    header = True
    for line, raw in enumerate(lines, start=1):
        fields = raw.split()
        if not fields:
            continue
        if header:
            header = False
            if _is_header(fields):
                continue
        if len(fields) != width:
            raise ParseError(f"expected {width} columns, got {len(fields)}", line)
        yield line, fields


def _columns(table: np.ndarray) -> list[np.ndarray]:
    """The fields of a structured array, each as its own array."""
    return [np.ascontiguousarray(table[name]) for name in table.dtype.names]


# A row of each format as numpy's C reader reads it. A string field is one
# byte wider than the longest token a clean (ASCII) text may hold, so that a
# longer token reads as another string instead of being cut to that token.
_COMMON_ROW = np.dtype([("a", np.int64), ("b", np.int64), ("start", float), ("end", float),
                        ("count", np.int64), ("gap", float)])
_ONE_ROW = np.dtype([("t", float), ("op", "S5"), ("n1", np.int64), ("n2", np.int64),
                     ("action", "S5")])
# The columns the line loops give, ids and counts as indices into their values.
_COMMON_COLUMNS = np.dtype([("line", np.intp), ("a", np.intp), ("b", np.intp), ("start", float),
                            ("end", float), ("count", np.intp), ("gap", float)])
_ONE_COLUMNS = np.dtype([("line", np.intp), ("t", float), ("conn", bool), ("n1", np.intp),
                         ("n2", np.intp), ("up", bool)])


def _clean_rows(text: TextSource, dtype: np.dtype) -> Optional[tuple[int, list[np.ndarray]]]:
    """The line number of the first row of ``text`` and its rows' fields as
    ``dtype``'s columns, read by ``np.loadtxt`` from the lines ``_rows``
    reads, those of ``str.splitlines``. None unless ``text`` is an ASCII
    str whose first line is a header (by ``_rows``' rule) or a row, and
    whose other lines, up to its trailing blank ones, are all rows of fields
    the reader takes ("#" is one), so that no blank line moves a line
    number. It takes numbers as ``int`` and ``float`` do, but not all they
    take (``1_0``, ints of 2^63 or more)."""
    if not isinstance(text, str) or not text.isascii():
        return None
    lines = text.splitlines()
    while lines and not lines[-1].split():
        lines.pop()
    head = lines[0].split() if lines else None
    if not head:
        return None
    header = int(_is_header(head))
    # An empty body would make the reader warn.
    if len(lines) == header:
        return None
    try:
        # Some numpy versions read an int field such as "7.0" or "1.5"
        # through float, with only a DeprecationWarning; as an error it
        # makes the reader fail, so ``int``'s rule holds on every version.
        with catch_warnings():
            simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(lines, dtype, comments=None, skiprows=header, ndmin=1)
    except (ValueError, DeprecationWarning):
        return None
    if len(rows) != len(lines) - header:  # the reader skipped a blank line
        return None
    del lines
    return 1 + header, _columns(rows)


def _merge_pair_overlaps(trace: ContactTrace) -> ContactTrace:
    """Merge strictly overlapping intervals of the same pair into their union.

    In (pair, start, end) order, a row opens a new interval when it is its
    pair's first or starts at or after the latest end of its pair's rows
    before it.
    """
    order, first = trace._by_pair(trace.end, trace.start)
    end = trace.end[order]
    first[1:] |= trace.start[order[1:]] >= group_cummax(end, first)[:-1]
    runs = np.flatnonzero(first)
    rows = order[runs]
    merged = replace(trace, a=trace.a[rows], b=trace.b[rows], start=trace.start[rows],
                     end=np.maximum.reduceat(end, runs))
    del order, first, end, runs, rows  # free the pair-ordered rows before the time sort
    return merged._time_ordered()


def parse_common_format(
    text: TextSource, warnings: Optional[list[ParseWarning]] = None
) -> ContactTrace:
    """Parse the six-column common format into a ContactTrace.

    One contact per row with start = connection-up time and
    end = connection-down time. The occurrence-count and inter-contact
    columns are checked against recomputation; mismatches produce
    warnings and the recomputed values win.
    """
    ids, counts, error, (lines, a, b, start, end, count, gap) = (
        _clean_common(text) or _common_lines(text))
    if warnings is not None:
        warnings.extend(_recount(lines, a, b, len(ids), start, counts, count, gap))
    if error:
        raise error
    if not len(a):
        raise ParseError("no events")
    return _contact_trace(ids, a, b, start, end)


def _clean_common(text: TextSource) -> Optional[tuple]:
    """``_common_lines``' result for a text that ``_clean_rows`` reads and
    whose rows pass every check; None for any other text."""
    read = _clean_rows(text, _COMMON_ROW)
    if read is None:
        return None
    first, (a, b, start, end, count, gap) = read
    if not (all(np.isfinite(c).all() for c in (start, end, gap)) and (start <= end).all()
            and (a != b).all()):
        return None
    ids, nodes = distinct(np.concatenate([a, b]))
    counts, count = distinct(count)
    m = len(a)
    return ids, counts, None, (np.arange(first, first + m), nodes[:m], nodes[m:], start, end,
                               count, gap)


def _common_lines(text: TextSource) -> tuple:
    """The node ids, the distinct occurrence counts, the error of the first
    failing row (None if none fails), and the line, ``a`` and ``b`` (indices
    into the ids), start, end, count (an index into the counts) and gap
    columns of the rows before it."""
    nodes, counts, rows, error = {}, {}, [], None
    try:
        for line, fields in _rows(text, 6):
            try:
                src, dst, up, down = (int(fields[0]), int(fields[1]), float(fields[2]),
                                      float(fields[3]))
                occ, inter = int(fields[4]), float(fields[5])
            except ValueError as exc:
                raise ParseError(f"non-numeric field: {exc}", line) from None
            if not (math.isfinite(up) and math.isfinite(down) and math.isfinite(inter)):
                raise ParseError("non-finite time (nan or inf)", line)
            if up > down:
                raise ParseError(f"connection up {up} after down {down}", line)
            if src == dst:
                raise ParseError(f"self-contact of node {src}", line)
            rows.append((line, nodes.setdefault(src, len(nodes)),
                         nodes.setdefault(dst, len(nodes)), up, down,
                         counts.setdefault(occ, len(counts)), inter))
    except ParseError as exc:
        error = exc
    return list(nodes), list(counts), error, _columns(np.array(rows, _COMMON_COLUMNS))


def _recount(lines, a, b, n, start, values, count, gap) -> Iterator[ParseWarning]:
    """Warnings, in line order, for the rows whose occurrence count
    (``values[count]``) or inter-contact time ``gap`` differs from the one
    their pair's earlier rows give; ``a`` and ``b`` are below ``n``."""
    order, first = groups(_pair_key(a, b, n))
    expected_count, expected_gap = np.empty(len(order), np.int64), np.empty(len(order))
    expected_count[order], expected_gap[order] = _occurrences(start[order], first)
    wrong_gap = np.abs(gap - expected_gap) > 1e-9
    # A count beyond the row count can match no recomputed count.
    wrong_count = np.array([min(max(v, 0), len(a) + 1) for v in values], np.int64)[count]
    wrong_count = wrong_count != expected_count
    for k in np.flatnonzero(wrong_count | wrong_gap).tolist():
        line = int(lines[k])
        if wrong_count[k]:
            yield ParseWarning(line, f"occurrence count {values[count[k]]} != recomputed "
                                     f"{int(expected_count[k])}")
        if wrong_gap[k]:
            yield ParseWarning(line, f"inter-contact time {float(gap[k])} != recomputed "
                                     f"{float(expected_gap[k])}")


_NODE_ID = re.compile(r"^[A-Za-z]*(\d+)$")


def _node_id(token: str, line: int) -> int:
    """A ONE node id: the number after an optional alphabetic prefix."""
    m = _NODE_ID.match(token)
    if not m:
        raise ParseError(f"bad node id {token!r}", line)
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
    ids, error, notes, columns = _clean_one(text) or _one_lines(text)
    contacts = _fifo_contacts(ids, error, notes, warnings, *columns)
    del columns  # free the row columns before the trace is built
    return _contact_trace(ids, *contacts)


def _clean_one(text: TextSource) -> Optional[tuple]:
    """``_one_lines``' result for a text that ``_clean_rows`` reads, with
    no signed id (``_node_id`` takes none), and whose rows are all ``CONN``
    rows that pass every check, spelled as ``write_one_report`` spells
    them; None for any other text."""
    read = _clean_rows(text, _ONE_ROW)
    if read is None:
        return None
    first, (t, op, n1, n2, action) = read
    up = action == b"up"
    if not ((op == b"CONN").all() and (up | (action == b"down")).all() and np.isfinite(t).all()
            and (n1 != n2).all()) or _signed_id(text):
        return None
    ids, nodes = distinct(np.concatenate([n1, n2]))
    m = len(t)
    return ids, None, [], (np.arange(first, first + m), t, np.ones(m, bool), nodes[:m],
                           nodes[m:], up)


def _signed_id(text: str) -> bool:
    """Whether a line of ``text`` has a sign in its third or fourth field."""
    if "+" not in text and "-" not in text:
        return False
    signed = (line.split()[2:4] for line in text.splitlines() if "+" in line or "-" in line)
    return any("+" in token or "-" in token for ids in signed for token in ids)


def _one_lines(text: TextSource) -> tuple:
    """The node ids, the error of the first failing row (None if none
    fails), the warnings of the non-CONN rows before it, and the line, time,
    is-CONN, ``n1`` and ``n2`` (indices into the ids) and is-up columns of
    the rows before it."""
    nodes, notes, rows, error = {}, [], [], None
    try:
        for line, (time, op, id1, id2, action) in _rows(text, 5):
            try:
                t = float(time)
            except ValueError:
                raise ParseError(f"non-numeric simulation time {time!r}", line) from None
            if not math.isfinite(t):
                raise ParseError(f"non-finite simulation time {time!r}", line)
            if op.upper() != "CONN":
                notes.append(ParseWarning(line, f"skipping non-CONN operation {op!r}"))
                rows.append((line, t, False, 0, 0, False))
                continue
            n1, n2 = _node_id(id1, line), _node_id(id2, line)
            if n1 == n2:
                raise ParseError(f"self-contact of node {n1}", line)
            if action.lower() not in ("up", "down"):
                raise ParseError(f"unknown action {action!r}", line)
            rows.append((line, t, True, nodes.setdefault(n1, len(nodes)),
                         nodes.setdefault(n2, len(nodes)), action.lower() == "up"))
    except ParseError as exc:
        error = exc
    return list(nodes), error, notes, _columns(np.array(rows, _ONE_COLUMNS))


def _fifo_contacts(ids: list[int], error: Optional[ParseError], notes: list[ParseWarning],
                   warnings: Optional[list[ParseWarning]], lines: np.ndarray, t: np.ndarray,
                   conn: np.ndarray, n1: np.ndarray, n2: np.ndarray,
                   up: np.ndarray) -> tuple[np.ndarray, ...]:
    """The contacts ``(n1, n2, start, end)`` of a ONE report's rows, down
    rows first in line order, then the ups left open. Raises the first
    error: before ``error``, a down with no open up or one timed before the
    up it closes; the ``notes`` of the rows before it go to ``warnings``."""
    events = np.flatnonzero(conn)
    order, first = groups(_pair_key(n1[events], n2[events], len(ids)))
    order = events[order]
    opening = up[order] == 1
    open_ups = group_cumsum(np.where(opening, 1, -1), first)
    # The k-th down of a pair closes its k-th up: the up that follows all the
    # ups before the down but those still open after it.
    ups, downs = order[opening], order[~opening]
    closing = (np.cumsum(opening) - open_ups - 1)[~opening]
    paired = open_ups[~opening] >= 0
    closed, closing = downs[paired], closing[paired]
    start = np.empty(len(t))
    start[closed] = t[ups[closing]]
    no_up, early = downs[~paired], closed[start[closed] > t[closed]]
    if len(no_up) or len(early):
        k = int(min(no_up.min(initial=len(t)), early.min(initial=len(t))))
        pair = _pair(ids, n1[k], n2[k])
        error = ParseError(f"down for pair {pair} with no open up" if k in no_up else
                           f"down for pair {pair} at {float(t[k])} before its up at "
                           f"{float(start[k])}", int(lines[k]))
    if warnings is not None:
        warnings.extend(w for w in notes if error is None or w.line < error.line)
    if error:
        raise error
    # The ups after a pair's last down stay open until the greatest time read.
    left_open = np.ones(len(ups), dtype=bool)
    left_open[closing] = False
    unclosed = ups[left_open]
    if len(unclosed):
        # Report the open ups pair by pair, in the order of each pair's first up.
        pair = (np.cumsum(first) - 1)[opening]
        first_up = np.minimum.reduceat(np.where(opening, order, len(t)), np.flatnonzero(first))
        unclosed = unclosed[row_order(first_up[pair[left_open]], unclosed)]
    downs = np.flatnonzero(conn & (up == 0))
    last = float(t[np.argmax(t)]) if len(t) else 0.0
    if warnings is not None:
        warnings.extend(
            ParseWarning(int(lines[k]), f"up for pair {_pair(ids, n1[k], n2[k])} never "
                                        f"closed; truncating at {last}")
            for k in unclosed.tolist())
    rows = np.concatenate([downs, unclosed])
    if not len(rows):
        raise ParseError("no events" if len(t) else "empty input, no events")
    return (n1[rows], n2[rows], np.concatenate([start[downs], t[unclosed]]),
            np.concatenate([t[downs], np.full(len(unclosed), last)]))


def _pair_key(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """One key per unordered pair of the columns ``a`` and ``b``, below ``n``."""
    return np.minimum(a, b) * n + np.maximum(a, b)


def _pair(values: list[int], c1: int, c2: int) -> tuple[int, int]:
    return tuple(sorted((values[c1], values[c2])))


def _occurrences(start: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The occurrence count and inter-contact time of rows grouped by pair,
    each pair's rows in order, whose up times are ``start``: the row's rank in
    its pair from 1, and its up time less the previous row's (0 for the first)."""
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.where(first, 0.0, np.diff(start, prepend=start[:1]))
    return group_cumsum(np.ones(len(first), np.int64), first), gap


def _used_labels(ids: Sequence[int], a: np.ndarray,
                 b: np.ndarray) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """The ids that ``a`` or ``b`` index, ascending, and ``a`` and ``b``
    renumbered to index them."""
    used = np.zeros(len(ids), dtype=bool)
    used[a] = used[b] = True
    nodes = sorted(np.flatnonzero(used).tolist(), key=ids.__getitem__)
    column = np.empty(len(ids), np.intp)
    column[nodes] = np.arange(len(nodes))
    return tuple(map(ids.__getitem__, nodes)), column[a], column[b]


def _contact_trace(ids: list[int], a: np.ndarray, b: np.ndarray, start: np.ndarray,
                   end: np.ndarray) -> ContactTrace:
    """The merged trace of the contacts between nodes ``ids[a]`` and
    ``ids[b]``, spanning from the first least start to the first greatest end."""
    labels, a, b = _used_labels(ids, a, b)
    trace = ContactTrace(labels, np.minimum(a, b), np.maximum(a, b), start, end,
                         float(start[start.argmin()]), float(end[end.argmax()]))
    return _merge_pair_overlaps(trace)


def clip_to_period(trace: ContactTrace, period: AnalysisPeriod) -> ContactTrace:
    """Restrict a trace to one analysis period.

    Events wholly outside [t_min, t_max] are dropped; straddling events
    are truncated to the boundary. The node set is recomputed from the
    surviving events. Rows that the clip leaves in (start, end, a, b) order,
    as when it changes nothing in a time-ordered trace, are not sorted again.
    """
    keep = (trace.end >= period.t_min) & (trace.start <= period.t_max)
    labels, a, b = _used_labels(trace.labels, trace.a[keep], trace.b[keep])
    start = np.maximum(trace.start[keep], period.t_min)
    end = np.minimum(trace.end[keep], period.t_max)
    clipped = ContactTrace(labels, a, b, start, end, float(period.t_min), float(period.t_max))
    return clipped if in_row_order(start, end, a, b) else clipped._time_ordered()


def _text(row: str, *columns: np.ndarray) -> str:
    """The rows of the columns through the ``%`` format ``row``, one ``%``
    call per block of ``_BLOCK_ROWS`` rows so that only one block's Python
    values exist at once. A float column prints a whole time as an int and
    any other as the float, whose str is its repr."""
    width, out = len(columns), []
    for k in range(0, len(columns[0]), _BLOCK_ROWS):
        flat = [None] * (width * len(columns[0][k:k + _BLOCK_ROWS]))
        for j, column in enumerate(columns):
            c = column[k:k + _BLOCK_ROWS]
            if c.dtype == float:
                whole = c == np.trunc(c)
                if whole.all() and (np.abs(c) < 2.0 ** 53).all():
                    c = c.astype(np.int64)
                else:
                    c = c.astype(object)
                    c[whole] = list(map(int, c[whole].tolist()))
            flat[j::width] = c.tolist()
        out.append((row * (len(flat) // width)) % tuple(flat))
    return "".join(out)


COMMON_FORMAT_HEADER = (
    "source destination conn_up conn_down occurrence_count intercontact_time"
)


def write_common_format(trace: ContactTrace) -> str:
    """Emit the common format, one row per contact, sorted by (pair, start).

    Occurrence counts and inter-contact times are freshly derived;
    parse_common_format(write_common_format(t)) reproduces t's events.
    InputError if an inter-contact time is not a finite number.
    """
    order, first = trace._by_pair(trace.end, trace.start)
    a, b, start, end = (x[order] for x in (trace.a, trace.b, trace.start, trace.end))
    occ, inter = _occurrences(start, first)
    overflow = np.flatnonzero(~np.isfinite(inter))
    if len(overflow):
        k = int(overflow[0])
        raise InputError(f"inter-contact time of pair {_pair(trace.labels, a[k], b[k])} is not a "
                         f"finite number: {float(start[k])} - {float(start[k - 1])} overflows")
    ids = np.array(trace.labels, dtype=object)
    return COMMON_FORMAT_HEADER + _text("\n%s %s %s %s %s %s", ids[a], ids[b], start, end, occ,
                                        inter) + "\n"


def write_one_report(trace: ContactTrace) -> str:
    """Emit a ONE-style connectivity report: up/down rows sorted by time,
    an up before a down at equal times, otherwise in event order."""
    times = np.concatenate([trace.start, trace.end])
    # Every up precedes every down here, so a stable sort by time is enough.
    order = row_order(times)
    down, row = np.divmod(order, len(trace))
    ids, kind = np.array(trace.labels, dtype=object), np.array(["up", "down"], dtype=object)
    return _text("\n%s CONN %s %s %s", times[order], ids[trace.a[row]], ids[trace.b[row]],
                 kind[down])[1:] + "\n"
