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

A str text (the command line passes one) is first offered to numpy's C
reader, one ``np.loadtxt`` call (``_clean_rows``), whose columns get the
checks and cross-row rules below. It takes only a text it reads as the
streaming read does; see ``_clean_rows``, ``_clean_common`` and
``_clean_one``. Any other text, and every file handle and iterable of
lines, goes whole to the streaming read, so every text gives the same
trace, warnings and errors whichever read takes it.

Both parsers are column code. ``_read_blocks`` reads ``_BLOCK_ROWS``
lines at a time (a str is cut into lines ``_PIECE`` characters at a
time; a file handle or an iterable of lines is streamed block by block),
splits them and turns the fields into token columns. A time
column is one ``float`` pass. Node ids, occurrence counts, ONE operations
and actions go through dicts keyed by distinct token (``_Tokens``): each
distinct token is converted once, with Python ``int`` semantics for ids,
so ``"07"`` is node 7 and ids of 2^64 keep their identity, and a row then
costs one dict lookup per field. The rules that span rows (the
re-derived columns, FIFO pairing of ups and downs) are array code over
the columns of all blocks. A malformed row raises ``ParseError`` with the
line and message of the first check it fails, checks running row by row
in field order; the warnings of the rows before it are still reported.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from itertools import chain, islice
from typing import IO, Callable, Iterable, Iterator, Optional, Sequence, Union
from warnings import catch_warnings, simplefilter

import numpy as np

from .trace_model import (AnalysisPeriod, ContactTrace, group_cummax, group_cumsum, groups,
                          in_row_order, row_order)

TextSource = Union[str, IO[str], Iterable[str]]
# Lines the parsers read, and rows the writers format, at once.
_BLOCK_ROWS = 1024
# Characters of a str text that the parsers split into lines at once.
_PIECE = 1 << 16


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


class _Block:
    """One block of ``_read_blocks``: the line number of each non-blank row,
    the fields of its rows as token columns, and its first failing row.

    Checks are offered in the order the fields of a row are checked in; a
    check moves the failure only to a strictly earlier row, so the message
    is that of the failing row's first failed check. ``limit`` is the number
    of rows before the failing row, all rows when none fails.
    """

    def __init__(self, lines: np.ndarray, columns: list[list[str]]):
        self.lines = lines
        self.columns = columns
        self.limit = len(lines)
        self.error: Optional[str] = None

    def fail(self, row: int, message: Callable[[int], str]) -> None:
        if row < self.limit:
            self.limit, self.error = row, message(row)

    def check(self, failed: np.ndarray, message: Callable[[int], str]) -> None:
        """Fail at the first row where ``failed`` holds."""
        rows = np.flatnonzero(failed[:self.limit])
        if len(rows):
            self.fail(int(rows[0]), message)

    def floats(self, tokens: list[str], message: Callable[[int], str]) -> np.ndarray:
        """The token column as float64; nan from the first token that
        ``float`` rejects, which fails its row."""
        try:
            return np.fromiter(map(float, tokens), float, len(tokens))
        except ValueError:
            row = next(k for k, token in enumerate(tokens) if _rejection(float, token))
            self.fail(row, message)
            values = np.full(len(tokens), np.nan)
            values[:row] = list(map(float, tokens[:row]))
            return values

    def kept(self, *columns: np.ndarray) -> tuple[np.ndarray, ...]:
        """The line numbers and the columns of the rows before the failing row."""
        return tuple(c[:self.limit] for c in (self.lines, *columns))

    def parse_error(self) -> Optional[ParseError]:
        if self.error is None:
            return None
        return ParseError(self.error, int(self.lines[self.limit]))


def _rejection(convert: Callable[[str], object], token: str) -> Optional[str]:
    """What ``convert`` says when it rejects ``token``, None if it accepts it."""
    try:
        convert(token)
    except ValueError as exc:
        return str(exc)
    return None


def _str_lines(text: str) -> Iterator[list[str]]:
    """The lines of ``text`` as ``str.splitlines`` splits it, with their line
    ends, ``_PIECE`` characters at a time so that they never all exist at once."""
    start, size = 0, _PIECE
    while start < len(text):
        lines = text[start:start + size].splitlines(keepends=True)
        if start + size < len(text):
            # The last line may go on in the next piece, if only by the
            # "\n" of a "\r\n".
            lines.pop()
            if not lines:
                size *= 2
                continue
        start += sum(map(len, lines))
        yield lines


def _read_blocks(text: TextSource, width: int) -> Iterator[_Block]:
    """The rows of ``text``, ``_BLOCK_ROWS`` lines at a time, as columns of
    ``width`` tokens. Blank lines are skipped, and a first non-blank row
    whose first field is not a number is a header. A row of another width
    fails; its block is the last. An empty text is one empty block."""
    lines = chain.from_iterable(_str_lines(text)) if isinstance(text, str) else iter(text)
    lineno, header = 1, True
    while True:
        raw = list(islice(lines, _BLOCK_ROWS))
        split = list(map(str.split, raw))
        counts = np.fromiter(map(len, split), np.intp, len(split))
        rows = np.flatnonzero(counts)
        fields = list(filter(None, split))
        if header and fields:
            header = False
            if _rejection(float, fields[0][0]):
                rows, fields = rows[1:], fields[1:]
        counts = counts[rows]
        wrong = np.flatnonzero(counts != width)
        n = int(wrong[0]) if len(wrong) else len(fields)
        flat = list(chain.from_iterable(islice(fields, n)))
        block = _Block(rows + lineno, [flat[k::width] for k in range(width)])
        block.fail(n, lambda k: f"expected {width} columns, got {counts[k]}")
        lineno += len(raw)
        yield block
        if block.error is not None or len(raw) < _BLOCK_ROWS:
            return


# A row of each format as numpy's C reader reads it. A string field is one
# byte wider than the longest token a clean (ASCII) text may hold, so that a
# longer token reads as another string instead of being cut to that token.
_COMMON_ROW = np.dtype([("a", np.int64), ("b", np.int64), ("start", float), ("end", float),
                        ("count", np.int64), ("gap", float)])
_ONE_ROW = np.dtype([("t", float), ("op", "S5"), ("n1", np.int64), ("n2", np.int64),
                     ("action", "S5")])


def _clean_rows(text: TextSource, dtype: np.dtype,
                forbidden: str = "") -> Optional[tuple[int, list[np.ndarray]]]:
    """The line number of the first row of ``text`` and its rows' fields as
    ``dtype``'s columns, read by ``np.loadtxt`` from the lines
    ``_read_blocks`` reads, those of ``str.splitlines``. None unless
    ``text`` is an ASCII str without ``forbidden`` whose first line is a
    header (by ``_read_blocks``' rule) or a row, and whose other lines are
    all rows of fields the reader takes ("#" is one), so that no blank line
    moves a line number. It takes numbers as ``int`` and ``float`` do, but
    not all they take (``1_0``, ints of 2^63 or more)."""
    if not isinstance(text, str) or not text.isascii() or any(c in text for c in forbidden):
        return None
    lines = text.splitlines()
    head = lines[0].split() if lines else None
    if not head:
        return None
    header = int(_rejection(float, head[0]) is not None)
    # A body of blank lines alone would make the reader warn.
    if len(lines) == header or not lines[header].split():
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
    return 1 + header, [np.ascontiguousarray(rows[name]) for name in dtype.names]


def _distinct(column: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The distinct values of an integer column, ascending, and the index of
    each row's value among them."""
    order, first = groups(column)
    index = np.empty(len(column), np.intp)
    index[order] = np.cumsum(first) - 1
    return column[order][first].tolist(), index


class _Tokens:
    """The distinct tokens of some columns and what ``convert`` makes of
    each, converted once per distinct token; a column then costs one dict
    lookup per row. Equal values share one index into ``values``."""

    def __init__(self, convert: Callable[[str], object]):
        self.convert = convert
        self.index: dict[str, int] = {}
        self.value: dict[object, int] = {}

    @property
    def values(self) -> list:
        return list(self.value)

    def codes(self, tokens: list[str]) -> np.ndarray:
        """Each token's index into ``values``, -1 where ``convert`` raises
        ValueError."""
        try:
            return np.fromiter(map(self.index.__getitem__, tokens), np.intp, len(tokens))
        except KeyError:
            for token in set(tokens).difference(self.index):
                try:
                    value = self.convert(token)
                except ValueError:
                    self.index[token] = -1
                else:
                    self.index[token] = self.value.setdefault(value, len(self.value))
            return self.codes(tokens)

    def lookup(self, tokens: list[str], rejected) -> np.ndarray:
        """Each token's value, ``rejected`` where ``convert`` raises ValueError."""
        codes = self.codes(tokens)
        return np.array([*self.values, rejected])[codes]


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
        _clean_common(text) or _common_blocks(text))
    if warnings is not None:
        warnings.extend(_recount(lines, a, b, len(ids), start, counts, count, gap))
    if error:
        raise error
    if not len(a):
        raise ParseError("no events")
    return _contact_trace(ids, a, b, start, end)


def _clean_common(text: TextSource) -> Optional[tuple]:
    """``_common_blocks``' result for a text that ``_clean_rows`` reads and
    whose rows pass every check; None for any other text."""
    read = _clean_rows(text, _COMMON_ROW)
    if read is None:
        return None
    first, (a, b, start, end, count, gap) = read
    if not (all(np.isfinite(c).all() for c in (start, end, gap)) and (start <= end).all()
            and (a != b).all()):
        return None
    ids, nodes = _distinct(np.concatenate([a, b]))
    counts, count = _distinct(count)
    m = len(a)
    return ids, counts, None, (np.arange(first, first + m), nodes[:m], nodes[m:], start, end,
                               count, gap)


def _common_blocks(text: TextSource) -> tuple:
    """The node ids, the distinct occurrence counts, the error of the first
    failing row (None if none fails), and the line, ``a`` and ``b`` (indices
    into the ids), start, end, count (an index into the counts) and gap
    columns of the rows before it."""
    nodes, counts = _Tokens(int), _Tokens(int)
    parts, error = [], None
    for block in _read_blocks(text, 6):
        src, dst, up, down, occ, inter = block.columns
        a = nodes.codes(src)
        block.check(a < 0, _non_numeric(src, int))
        b = nodes.codes(dst)
        block.check(b < 0, _non_numeric(dst, int))
        start = block.floats(up, _non_numeric(up))
        end = block.floats(down, _non_numeric(down))
        count = counts.codes(occ)
        block.check(count < 0, _non_numeric(occ, int))
        gap = block.floats(inter, _non_numeric(inter))
        block.check(~(np.isfinite(start) & np.isfinite(end) & np.isfinite(gap)),
                    lambda k: "non-finite time (nan or inf)")
        block.check(start > end,
                    lambda k: f"connection up {float(start[k])} after down {float(end[k])}")
        block.check(a == b, lambda k: f"self-contact of node {nodes.values[a[k]]}")
        parts.append(block.kept(a, b, start, end, count, gap))
        error = block.parse_error()
        if error:
            break
    return nodes.values, counts.values, error, tuple(map(np.concatenate, zip(*parts)))


def _non_numeric(tokens: list[str], convert: Callable[[str], object] = float):
    return lambda k: f"non-numeric field: {_rejection(convert, tokens[k])}"


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


def _node_id(token: str) -> int:
    """A ONE node id: the number after an optional alphabetic prefix."""
    m = _NODE_ID.match(token)
    if not m:
        raise ValueError(token)
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
    ids, error, notes, columns = _clean_one(text) or _one_blocks(text)
    contacts = _fifo_contacts(ids, error, notes, warnings, *columns)
    del columns  # free the row columns before the trace is built
    return _contact_trace(ids, *contacts)


def _clean_one(text: TextSource) -> Optional[tuple]:
    """``_one_blocks``' result for a text that ``_clean_rows`` reads, with
    no sign (``_node_id`` takes none), and whose rows are all ``CONN`` rows
    that pass every check, spelled as ``write_one_report`` spells them;
    None for any other text."""
    read = _clean_rows(text, _ONE_ROW, "+-")
    if read is None:
        return None
    first, (t, op, n1, n2, action) = read
    up = action == b"up"
    if not ((op == b"CONN").all() and (up | (action == b"down")).all() and np.isfinite(t).all()
            and (n1 != n2).all()):
        return None
    ids, nodes = _distinct(np.concatenate([n1, n2]))
    m = len(t)
    return ids, None, [], (np.arange(first, first + m), t, np.ones(m, bool), nodes[:m],
                           nodes[m:], up)


def _one_blocks(text: TextSource) -> tuple:
    """The node ids, the error of the first failing row (None if none
    fails), the warnings of the non-CONN rows before it, and the line, time,
    is-CONN, ``n1`` and ``n2`` (indices into the ids) and is-up columns of
    the rows before it."""
    nodes = _Tokens(_node_id)
    ops = _Tokens(lambda op: op.upper() == "CONN")
    actions = _Tokens(lambda action: ("down", "up").index(action.lower()))
    parts, notes, error = [], [], None
    for block in _read_blocks(text, 5):
        time, op, id1, id2, action = block.columns
        t = block.floats(time, lambda k: f"non-numeric simulation time {time[k]!r}")
        block.check(~np.isfinite(t), lambda k: f"non-finite simulation time {time[k]!r}")
        conn = ops.lookup(op, False)
        n1 = nodes.codes(id1)
        block.check(conn & (n1 < 0), lambda k: f"bad node id {id1[k]!r}")
        n2 = nodes.codes(id2)
        block.check(conn & (n2 < 0), lambda k: f"bad node id {id2[k]!r}")
        block.check(conn & (n1 == n2), lambda k: f"self-contact of node {nodes.values[n1[k]]}")
        up = actions.lookup(action, -1)
        block.check(conn & (up < 0), lambda k: f"unknown action {action[k]!r}")
        part = block.kept(t, conn, n1, n2, up)
        notes += [ParseWarning(int(block.lines[k]), f"skipping non-CONN operation {op[k]!r}")
                  for k in np.flatnonzero(~part[2]).tolist()]
        parts.append(part)
        error = block.parse_error()
        if error:
            break
    return nodes.values, error, notes, [np.concatenate(column) for column in zip(*parts)]


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
    order, first = trace._by_pair(trace.end, trace.start)
    a, b, start, end = (x[order] for x in (trace.a, trace.b, trace.start, trace.end))
    occ, inter = _occurrences(start, first)
    ids = np.array(trace.labels, dtype=object)
    rows = _blocks("{} {} {} {} {} {}", ids[a], ids[b], start, end, occ, inter)
    return "\n".join([COMMON_FORMAT_HEADER, *rows]) + "\n"


def write_one_report(trace: ContactTrace) -> str:
    """Emit a ONE-style connectivity report: up/down rows sorted by time,
    an up before a down at equal times, otherwise in event order."""
    times = np.concatenate([trace.start, trace.end])
    # Every up precedes every down here, so a stable sort by time is enough.
    order = row_order(times)
    down, row = np.divmod(order, len(trace))
    ids, kind = np.array(trace.labels, dtype=object), np.array(["up", "down"], dtype=object)
    rows = _blocks("{} CONN {} {} {}", times[order], ids[trace.a[row]], ids[trace.b[row]],
                   kind[down])
    return "\n".join(rows) + "\n"
