import io
import random
from contextlib import nullcontext
from unittest import mock
from warnings import catch_warnings, simplefilter, warn

import numpy as np

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dtnmetrics import (
    AnalysisPeriod,
    ContactEvent,
    ContactTrace,
    ParseError,
    ParseWarning,
    clip_to_period,
    pair_aggregates,
    parse_common_format,
    parse_one_report,
    validate_trace,
    write_common_format,
    write_one_report,
)
from dtnmetrics import ingestion
from dtnmetrics.ingestion import _BLOCK_ROWS, _merge_pair_overlaps

from . import oracles
from .conftest import ONE_REPORT_EVENTS, ONE_REPORT_TEXT

# [PAPER] the four common-format sample rows
TABLE_ROWS = """\
1 3 51293 51293 1 0
1 3 60603 60603 2 9310
1 3 62363 62363 3 1760
1 3 79649 79649 4 17286
"""


class TestParseCommonFormat:
    def test_single_row(self):
        trace = parse_common_format("1 3 51293 51293 1 0")
        assert trace.events == (ContactEvent(1, 3, 51293, 51293),)

    def test_sample_rows_parse_without_warnings(self):
        warnings = []
        trace = parse_common_format(TABLE_ROWS, warnings)
        assert len(trace.events) == 4
        assert warnings == []

    def test_header_line_is_skipped(self):
        text = "source destination conn_up conn_down occ intercontact\n" + TABLE_ROWS
        assert len(parse_common_format(text).events) == 4

    def test_redundant_columns_recomputed_with_warning(self):
        warnings = []
        text = "1 3 51293 51293 1 0\n1 3 60603 60603 7 123\n"
        trace = parse_common_format(text, warnings)
        # recomputed values win: the events themselves are unaffected
        assert trace.events[1] == ContactEvent(1, 3, 60603, 60603)
        messages = " / ".join(w.message for w in warnings)
        assert "occurrence count 7" in messages
        assert "inter-contact time 123" in messages
        assert {w.line for w in warnings} == {2}

    def test_intercontact_is_up_to_up(self):
        # [PAPER] 60603 - 51293 = 9310 listed on the second row
        warnings = []
        parse_common_format(TABLE_ROWS, warnings)
        assert warnings == []

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError, match="no events"):
            parse_common_format("")

    def test_wrong_column_count(self):
        with pytest.raises(ParseError, match="line 1.*6 columns"):
            parse_common_format("1 3 51293")

    def test_non_numeric_field(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_common_format("1 3 51293 51293 1 0\n1 x 2 3 1 0")

    def test_up_after_down_rejected(self):
        with pytest.raises(ParseError, match="up.*after down"):
            parse_common_format("1 3 600 500 1 0")

    @pytest.mark.parametrize(
        "row", ["0 1 5 inf 1 0", "0 1 nan 5 1 0", "0 1 -inf 5 1 0", "0 1 1 5 1 nan"]
    )
    def test_non_finite_times_rejected(self, row):
        with pytest.raises(ParseError, match="line 2: non-finite time"):
            parse_common_format("0 1 0 1 1 0\n" + row)

    def test_self_contact_rejected(self):
        with pytest.raises(ParseError, match="line 2: self-contact of node 0"):
            parse_common_format("0 1 0 1 1 0\n0 0 1 5 1 0")

    def test_header_after_blank_lines_is_skipped(self):
        text = "\n  \nsource destination conn_up conn_down occ intercontact\n" + TABLE_ROWS
        assert len(parse_common_format(text).events) == 4

    def test_only_the_first_row_may_be_a_header(self):
        text = "source destination up down occ inter\n" + TABLE_ROWS + "a b c d e f\n"
        with pytest.raises(ParseError, match="line 6: non-numeric field"):
            parse_common_format(text)

    def test_overlapping_same_pair_intervals_merged(self):
        text = "1 2 100 200 1 0\n1 2 150 300 2 50\n"
        trace = parse_common_format(text)
        assert trace.events == (ContactEvent(1, 2, 100, 300),)

    def test_touching_intervals_kept_separate(self):
        text = "1 2 100 200 1 0\n1 2 200 300 2 100\n"
        trace = parse_common_format(text)
        assert len(trace.events) == 2


class TestParseOneReport:
    def test_basic_up_down_pairing(self):
        trace = parse_one_report("0.1 CONN 22 9 up\n83.6 CONN 9 22 down")
        assert trace.events == (ContactEvent(9, 22, 0.1, 83.6),)

    def test_full_report(self):
        warnings = []
        trace = parse_one_report(ONE_REPORT_TEXT, warnings)
        assert list(trace.events) == ONE_REPORT_EVENTS
        # the six ups with no matching down are truncated, with warnings
        assert len([w for w in warnings if "never closed" in w.message]) == 6

    def test_reversed_pair_order_on_down(self):
        trace = parse_one_report("0.1 CONN 36 0 up\n56.4 CONN 0 36 down")
        assert trace.events == (ContactEvent(0, 36, 0.1, 56.4),)

    def test_prefixed_node_ids(self):
        trace = parse_one_report("1 CONN n12 n7 up\n5 CONN n7 n12 down")
        assert trace.events == (ContactEvent(7, 12, 1, 5),)

    def test_fifo_pairing_of_repeated_ups(self):
        text = "1 CONN 0 1 up\n2 CONN 0 1 up\n3 CONN 0 1 down\n4 CONN 0 1 down"
        # overlapping intervals for the same pair merge into their union
        trace = parse_one_report(text)
        assert trace.events == (ContactEvent(0, 1, 1, 4),)

    def test_down_without_up_rejected(self):
        with pytest.raises(ParseError, match="no open up"):
            parse_one_report("5 CONN 0 1 down")

    @pytest.mark.parametrize("parse", [parse_one_report, oracles.parse_one_report_lines])
    def test_down_before_its_up_rejected(self, parse):
        text = "1 MSG 0 1 up\n10 CONN 1 2 up\n3 CONN 3 4 up\n5 CONN 2 1 down\n4 CONN 3 4 down"
        warnings = []
        with pytest.raises(ParseError) as exc:
            parse(text, warnings)
        assert exc.value.line == 4
        assert str(exc.value) == "line 4: down for pair (1, 2) at 5.0 before its up at 10.0"
        assert [w.line for w in warnings] == [1]
        # FIFO: the second down closes the second up, which is the later one
        with pytest.raises(ParseError, match="line 4: down for pair \\(0, 1\\) at 2.0 before"):
            parse("1 CONN 0 1 up\n3 CONN 0 1 up\n1 CONN 0 1 down\n2 CONN 1 0 down")
        # the first error by line wins, a down with no open up or a reversed one
        with pytest.raises(ParseError, match="line 2: down for pair \\(5, 6\\) with no"):
            parse("9 CONN 0 1 up\n0 CONN 5 6 down\n1 CONN 0 1 down")
        with pytest.raises(ParseError, match="line 2: down for pair \\(0, 1\\) at 1.0"):
            parse("9 CONN 0 1 up\n1 CONN 0 1 down\n0 CONN 5 6 down")

    def test_non_conn_rows_skipped_with_warning(self):
        warnings = []
        trace = parse_one_report(
            "1 CONN 0 1 up\n2 MSG 0 1 up\n3 CONN 0 1 down", warnings
        )
        assert len(trace.events) == 1
        assert any("non-CONN" in w.message for w in warnings)

    @pytest.mark.parametrize("time", ["inf", "nan", "-inf", "Infinity"])
    def test_non_finite_simulation_time_rejected(self, time):
        with pytest.raises(ParseError, match="line 2: non-finite simulation time"):
            parse_one_report(f"1 CONN 0 1 up\n{time} CONN 0 1 down")

    @pytest.mark.parametrize("row", ["3 CONN 3 3 up", "3 CONN n3 3 down"])
    def test_self_contact_rejected(self, row):
        with pytest.raises(ParseError, match="line 2: self-contact of node 3"):
            parse_one_report("1 CONN 1 2 up\n" + row)

    def test_header_after_blank_lines_is_skipped(self):
        text = "\n\ntime op a b action\n0.1 CONN 22 9 up\n83.6 CONN 9 22 down\n"
        assert parse_one_report(text).events == (ContactEvent(9, 22, 0.1, 83.6),)

    def test_unknown_action_rejected(self):
        with pytest.raises(ParseError, match="unknown action"):
            parse_one_report("1 CONN 0 1 sideways")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError, match="no events"):
            parse_one_report("")

    def test_open_up_truncated_at_the_last_time_when_all_times_are_negative(self):
        warnings = []
        text = "-50 CONN 1 2 up\n-40 CONN 3 4 up\n-30 CONN 3 4 down"
        trace = parse_one_report(text, warnings)
        assert trace.events == (ContactEvent(1, 2, -50, -30), ContactEvent(3, 4, -40, -30))
        assert trace.span_max == -30
        assert warnings == [
            ParseWarning(1, "up for pair (1, 2) never closed; truncating at -30.0")
        ]
        for parse in (parse_one_report, oracles.parse_one_report_lines):
            assert parse(text).events == trace.events


class TestClipToPeriod:
    def test_clip_drops_and_keeps_rows(self):
        # [PAPER] sample rows clipped to [60000, 86400]: only rows 2-4 survive
        trace = parse_common_format(TABLE_ROWS)
        clipped = clip_to_period(trace, AnalysisPeriod(60000, 86400))
        assert [ev.start for ev in clipped.events] == [60603, 62363, 79649]
        assert (clipped.span_min, clipped.span_max) == (60000, 86400)

    def test_straddling_events_truncated(self):
        trace = ContactTrace.from_events([ContactEvent(0, 1, 50, 150)])
        clipped = clip_to_period(trace, AnalysisPeriod(100, 200))
        assert clipped.events == (ContactEvent(0, 1, 100, 150),)

    def test_node_set_recomputed(self):
        trace = ContactTrace.from_events(
            [ContactEvent(0, 1, 0, 10), ContactEvent(2, 3, 50, 60)]
        )
        clipped = clip_to_period(trace, AnalysisPeriod(40, 70))
        assert clipped.nodes == frozenset({2, 3})


class TestWriteCommonFormat:
    def test_sample_rows_round_trip_with_derived_columns(self):
        trace = parse_common_format(TABLE_ROWS)
        text = write_common_format(trace)
        body = text.splitlines()[1:]
        assert body == [
            "1 3 51293 51293 1 0",
            "1 3 60603 60603 2 9310",
            "1 3 62363 62363 3 1760",
            "1 3 79649 79649 4 17286",
        ]

    def test_empty_trace_emits_header_only(self):
        text = write_common_format(ContactTrace.from_events([]))
        assert len(text.splitlines()) == 1

    def test_rows_sorted_by_pair_then_start(self):
        trace = ContactTrace.from_events(
            [
                ContactEvent(2, 3, 5, 6),
                ContactEvent(0, 1, 50, 60),
                ContactEvent(0, 1, 10, 20),
            ]
        )
        body = write_common_format(trace).splitlines()[1:]
        assert [row.split()[:3] for row in body] == [
            ["0", "1", "10"],
            ["0", "1", "50"],
            ["2", "3", "5"],
        ]


# Times that tie, sit one ulp apart, mix ints and floats, and print as
# integers or in exponent form.
TIMES = (0, 1, 1.0, 2.5, 3, 0.1 + 0.2, 0.3, 1e-7, 1e16, 7.25)


@st.composite
def writer_traces(draw):
    """Unmerged traces: instantaneous contacts, equal start times within and
    across pairs, repeated and overlapping contacts of one pair; some built
    directly, their events in drawn order rather than sorted."""
    n = draw(st.integers(2, 6))
    events = []
    for _ in range(draw(st.integers(0, 12))):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1).filter(lambda x: x != a))
        start, end = sorted(draw(st.lists(st.sampled_from(TIMES), min_size=2, max_size=2)))
        events.append(ContactEvent(a, b, start, draw(st.sampled_from((start, end)))))
    if draw(st.booleans()):
        return ContactTrace(
            tuple(range(n)), [ev.a for ev in events], [ev.b for ev in events],
            [ev.start for ev in events], [ev.end for ev in events], 0, max(TIMES),
        )
    return ContactTrace.from_events(events)


class TestWritersMatchOracles:
    @settings(max_examples=100, deadline=None)
    @given(writer_traces())
    def test_common_format(self, trace):
        assert write_common_format(trace) == oracles.common_format_text(trace)

    @settings(max_examples=100, deadline=None)
    @given(writer_traces())
    def test_one_report(self, trace):
        assert write_one_report(trace) == oracles.one_report_text(trace)

    def test_empty_trace(self):
        trace = ContactTrace.from_events([])
        assert write_one_report(trace) == oracles.one_report_text(trace) == "\n"
        assert write_common_format(trace) == oracles.common_format_text(trace)


# A coarse grid, so that starts tie, intervals chain, touch and nest, and
# periods straddle and touch events; sums of its fractions round.
GRID = (0, 0.1, 0.2, 0.3, 0.7, 1, 1.3, 2, 2.9, 3, 4.5, 6)


@st.composite
def oracle_events(draw):
    """Unsorted events among nodes whose ids may reach 2^53 or 2^64 + 1,
    instantaneous or of a grid length, and a period on the grid, t_min
    often above 0."""
    base = draw(st.sampled_from((0, 2**53, 2**64 + 1)))
    ids = [base + k for k in range(draw(st.integers(2, 5)))]
    events = []
    for _ in range(draw(st.integers(0, 14))):
        a, b = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True))
        start = draw(st.sampled_from(GRID))
        events.append(ContactEvent(a, b, start, start + draw(st.sampled_from(GRID))))
    t_min, t_max = sorted(draw(st.lists(st.sampled_from(GRID), min_size=2, max_size=2,
                                        unique=True)))
    return events, AnalysisPeriod(t_min, t_max)


def _drawn_order(events: list[ContactEvent]) -> ContactTrace:
    """The events as columns in drawn order, spanning their extent."""
    labels = sorted({node for ev in events for node in ev.pair})
    return ContactTrace(
        labels, [labels.index(ev.a) for ev in events], [labels.index(ev.b) for ev in events],
        [ev.start for ev in events], [ev.end for ev in events],
        min((ev.start for ev in events), default=0), max((ev.end for ev in events), default=0),
    )


def _same(got: ContactTrace, want: ContactTrace) -> None:
    assert got.events == want.events
    assert got.nodes == want.nodes
    assert (got.span_min, got.span_max) == (want.span_min, want.span_max)


class TestColumnStagesMatchOracles:
    @settings(max_examples=200, deadline=None)
    @given(oracle_events())
    def test_merge(self, drawn):
        events, _ = drawn
        want = ContactTrace.from_events(oracles.merge_pair_overlaps(events))
        for trace in (ContactTrace.from_events(events), _drawn_order(events)):
            _same(_merge_pair_overlaps(trace), want)

    @settings(max_examples=200, deadline=None)
    @given(oracle_events())
    def test_parsed_common_format_is_the_merged_trace(self, drawn):
        events, _ = drawn
        assume(events)
        parsed = parse_common_format(write_common_format(ContactTrace.from_events(events)))
        _same(parsed, ContactTrace.from_events(oracles.merge_pair_overlaps(events)))
        assert validate_trace(parsed) == []
        assert validate_trace(parse_one_report(write_one_report(parsed))) == []

    @settings(max_examples=200, deadline=None)
    @given(oracle_events(), st.booleans())
    def test_clip(self, drawn, isolated):
        events, period = drawn
        extra = [2**60] if isolated else []
        trace = ContactTrace.from_events(events, extra_nodes=extra)
        clipped = clip_to_period(trace, period)
        _same(clipped, oracles.clip_to_period(trace, period))
        assert validate_trace(clipped) == []

    @settings(max_examples=200, deadline=None)
    @given(oracle_events())
    def test_pair_aggregates_are_bit_identical(self, drawn):
        events, period = drawn
        trace = ContactTrace.from_events(events)
        clipped = clip_to_period(trace, period)
        for t in (trace, _drawn_order(events), clipped):
            assert pair_aggregates(t) == oracles.pair_aggregates(t)


# Negative and fractional times, -0.0 next to 0, so that starts and ends tie.
TIMES = np.array([-7.5, -3.25, -1, -0.5, -0.0, 0, 0.1, 0.2, 0.3, 1.7, 2, 4.5])


@st.composite
def column_traces(draw):
    """Unsorted trace columns among 2-12 nodes, a few rows or over a thousand,
    on the ``TIMES`` grid, and a period on it, its t_min often negative."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(2, 12)), draw(st.integers(1, 60) | st.integers(1024, 1600))
    a = rng.integers(0, n, m)
    b = rng.integers(0, n - 1, m)
    b += b >= a
    start = rng.choice(TIMES, m)
    end = start + rng.choice([0, 0.1, 0.3, 1, 2.9, 6], m)
    trace = ContactTrace(tuple(range(n)), np.minimum(a, b), np.maximum(a, b), start, end,
                         float(start.min()), float(end.max()))
    t_min, t_max = sorted(rng.choice(np.unique(TIMES), 2, replace=False).tolist())
    return trace, AnalysisPeriod(t_min, t_max)


def _same_bytes(got: ContactTrace, want: ContactTrace) -> None:
    assert got.labels == want.labels
    assert (got.span_min, got.span_max) == (want.span_min, want.span_max)
    for name in ("a", "b", "start", "end"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


class TestStagesMatchLexsortCode:
    """The time order, overlap merge and period clip equal the ``np.lexsort``
    and ``np.searchsorted`` builds they replace, byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(column_traces())
    def test_time_order_merge_and_clip(self, drawn):
        trace, period = drawn
        _same_bytes(trace._time_ordered(), oracles.lexsort_time_ordered(trace))
        _same_bytes(_merge_pair_overlaps(trace), oracles.lexsort_merge_pair_overlaps(trace))
        ordered = trace._time_ordered()
        _same_bytes(clip_to_period(ordered, period),
                    oracles.lexsort_clip_to_period(ordered, period))


class TestClipThatChangesNothing:
    """A period that changes nothing keeps rows that are in (start, end, a,
    b) order, and sorts any others."""

    def test_ordered_rows_are_not_sorted_again(self):
        trace = parse_common_format(TABLE_ROWS)
        period = AnalysisPeriod(trace.span_min, trace.span_max)
        with mock.patch.object(ContactTrace, "_time_ordered",
                               side_effect=AssertionError("sorted")):
            clipped = clip_to_period(trace, period)
        _same_bytes(clipped, oracles.lexsort_clip_to_period(trace, period))

    @settings(max_examples=150, deadline=None)
    @given(column_traces(), st.booleans())
    def test_rows_in_order_or_by_start_alone_match_lexsort_code(self, drawn, ordered):
        trace = drawn[0]._time_ordered()
        labels, a, b = ingestion._used_labels(trace.labels, trace.a, trace.b)
        assume(trace.start[0] < trace.end.max())
        period = AnalysisPeriod(float(trace.start[0]), float(trace.end.max()))
        # sorted by start alone, rows of equal start in reverse
        order = slice(None) if ordered else np.lexsort((-np.arange(len(a)), trace.start))
        trace = ContactTrace(labels, a[order], b[order], trace.start[order], trace.end[order],
                             period.t_min, period.t_max)
        want = oracles.lexsort_clip_to_period(trace, period)
        with mock.patch.object(ContactTrace, "_time_ordered", side_effect=AssertionError(
                "sorted")) if ordered else nullcontext():
            _same_bytes(clip_to_period(trace, period), want)


class TestRoundTrips:
    def test_one_report_round_trips_through_common_format(self):
        trace = parse_one_report(ONE_REPORT_TEXT)
        again = parse_common_format(write_common_format(trace))
        assert again.events == trace.events

    def test_one_report_round_trips_through_one_format(self):
        trace = parse_one_report(ONE_REPORT_TEXT)
        again = parse_one_report(write_one_report(trace))
        assert again.events == trace.events

    def test_random_traces_round_trip(self):
        rnd = random.Random(41)
        for _ in range(25):
            trace = _random_disjoint_trace(rnd)
            assert parse_common_format(write_common_format(trace)).events == trace.events
            assert parse_one_report(write_one_report(trace)).events == trace.events


def _random_disjoint_trace(rnd: random.Random) -> ContactTrace:
    """Random trace whose per-pair intervals never overlap (so parsing
    does not merge anything and round-trips are exact)."""
    n = rnd.randint(2, 10)
    events = []
    for a in range(n):
        for b in range(a + 1, n):
            if rnd.random() < 0.4:
                continue
            cursor = rnd.uniform(0, 50)
            for _ in range(rnd.randint(1, 4)):
                d = rnd.choice([0.0, round(rnd.uniform(0.5, 40.0), 1)])
                start = round(cursor, 1)
                events.append(ContactEvent(a, b, start, round(start + d, 1)))
                cursor = start + d + rnd.uniform(1.0, 30.0)
    if not events:
        events.append(ContactEvent(0, 1, 1.0, 2.0))
    return ContactTrace.from_events(events)


# Tokens the parsers must read exactly as the line loops do: ids with
# leading zeros, underscores, signs and prefixes, ids of 2^53 and 2^64 + 1,
# signed zeros; each field also has tokens that fail its row.
_IDS = ("0", "1", "2", "07", "7", "1_0", "+2", "-3", str(2**53), str(2**64 + 1)), ("x", "1.5")
_TIMES = ("0", "-0", "1", "2.5", "3", "7", "-4", "1e3", "1_0"), ("nan", "inf", "-inf", "t")
_COUNTS = ("1", "1", "2", "3", "0", "02", str(2**64 + 1)), ("c", "1.0")
_GAPS = ("0", "0", "1", "2.5", "1e-10", "-0"), ("nan", "g")
_ONE_IDS = ("0", "1", "2", "n1", "N2", "x07", "7", "07", str(2**53), f"n{2**64 + 1}"), ("1a", "-1")
_OPS = ("CONN", "CONN", "CONN", "conn", "Conn", "MSG"), ()
_ACTIONS = ("up", "down", "UP", "Down"), ("sideways",)
_FILLER = ("", " ", "\t")


def _one_id(token: str) -> int:
    return int(token.lstrip("nNx"))


@st.composite
def _fields(draw, pools, clean):
    """One token per pool, each a failing one with odds 1 in 20 unless ``clean``."""
    return [draw(st.sampled_from(bad if bad and not clean and draw(st.integers(0, 19)) == 0
                                 else good)) for good, bad in pools]


@st.composite
def _report(draw, row):
    """A text of ``row(draw, clean, state)`` lines, maybe after blank lines
    and a header (or a header and a numeric-looking second one). A clean
    text's rows all parse; the others mix in failing tokens, blank lines and
    rows of any width, some of them numeric."""
    clean, state = draw(st.booleans()), {}
    head = draw(st.lists(st.sampled_from(_FILLER), max_size=2))
    head += draw(st.sampled_from([[], ["source destination up down occ inter"],
                                  ["time op a b action"], ["1e0 b c d e f"],
                                  ["time op a b action", "1e0 op a b action"]]))
    odd = st.one_of(st.sampled_from(_FILLER),
                    st.lists(st.sampled_from(("1", "2.5", "a", "CONN", "up")), max_size=7))
    body = []
    for _ in range(draw(st.integers(0, 14))):
        if not clean and draw(st.integers(0, 11)) == 0:
            body.append(draw(odd))
        else:
            body.append(row(draw, clean, state))
    sep = draw(st.sampled_from(("\n", "\n", "\r\n", "\r", "\x0b", "\x1c", "\u2028")))
    return sep.join(head + [r if isinstance(r, str) else " ".join(r) for r in body])


def _common_row(draw, clean, state):
    src, dst, up, down, occ, gap = draw(_fields([_IDS, _IDS, _TIMES, _TIMES, _COUNTS, _GAPS],
                                                clean))
    if clean:
        src, dst = draw(st.lists(st.sampled_from(_IDS[0]), min_size=2, max_size=2,
                                 unique_by=int))
        up, down = sorted((up, down), key=float)
    return [src, dst, up, down, occ, gap]


def _one_row(draw, clean, state):
    """A ONE row. A pair's downs follow its open ups; in a clean text they
    are timed no earlier than the up they close, elsewhere a down may come
    with no open up (odds 1 in 8) or be timed before its up."""
    time, op, a, b, action = draw(_fields([_TIMES, _OPS, _ONE_IDS, _ONE_IDS, _ACTIONS], clean))
    if clean:
        a, b = draw(st.lists(st.sampled_from(_ONE_IDS[0]), min_size=2, max_size=2,
                             unique_by=_one_id))
    if op.upper() == "CONN" and {a, b} <= set(_ONE_IDS[0]) and _one_id(a) != _one_id(b):
        ups = state.setdefault(frozenset(map(_one_id, (a, b))), [])
        if not ups and (clean or draw(st.integers(0, 7))):
            action = "up" if action.islower() else "UP"
        if action.lower() == "up":
            ups.append(time)
        elif action.lower() == "down" and ups:
            opened = ups.pop(0)
            if clean:
                time = max(time, opened, key=float)
    return [time, op, a, b, action]


_COMMON_TEXT = _report(_common_row)
_ONE_TEXT = _report(_one_row)


def _outcome(parse, source):
    """The parsed columns or the error, with the warnings in order."""
    warnings = []
    try:
        t = parse(source, warnings)
    except ParseError as exc:
        return ("error", exc.line, str(exc)), warnings
    columns = (t.labels, t.a.tolist(), t.b.tolist(), t.start.tolist(), t.end.tolist())
    # repr tells a span of -0.0 from one of 0.0, which reports print apart
    return ("trace", *columns, repr(t.span_min), repr(t.span_max)), warnings


_ORACLES = {parse_common_format: oracles.parse_common_format_lines,
            parse_one_report: oracles.parse_one_report_lines}


def _agree(parse, text):
    """The oracle's outcome on ``text``, which ``parse`` gives on ``text`` as
    a str and as a list of its lines; a file handle, which splits lines at
    "\n" alone, gets the oracle's outcome on it. A str may take numpy's
    reader, the others take the line loop."""
    want = _outcome(_ORACLES[parse], text)
    assert _outcome(parse, text) == want
    assert _outcome(parse, text.splitlines(keepends=True)) == want
    assert _outcome(parse, io.StringIO(text)) == _outcome(_ORACLES[parse], io.StringIO(text))
    return want


class TestParsersMatchLineLoops:
    @settings(max_examples=400, deadline=None)
    @given(_COMMON_TEXT)
    def test_common_format(self, text):
        _agree(parse_common_format, text)

    @settings(max_examples=400, deadline=None)
    @given(_ONE_TEXT)
    def test_one_report(self, text):
        _agree(parse_one_report, text)

    def test_error_row_after_warning_rows(self):
        text = "1 2 0 1 5 0\n1 2 3 4 1 9\n1 2 5 9 3 0\n1 1 6 7 4 1\n"
        (kind, line, message), warnings = _agree(parse_common_format, text)
        assert (kind, line) == ("error", 4) and "self-contact" in message
        assert [w.line for w in warnings] == [1, 2, 2, 3]
        text = "1 MSG 0 1 up\n2 CONN 0 1 up\n3 X 1 0 up\n4 CONN 1 2 down\n5 Y 0 1 up\n"
        (kind, line, message), warnings = _agree(parse_one_report, text)
        assert (kind, line) == ("error", 4) and "no open up" in message
        assert [w.line for w in warnings] == [1, 3]


# Tokens of texts that numpy's reader reads (see ingestion._clean_rows):
# first a field's tokens that such a text may hold, then tokens that send a
# text back to the line loop or fail its row there. Among them: signs,
# which ONE ids never have, "#", ONE strings at and past the reader's five
# characters, ints it rejects or that do not fit int64, non-finite and
# overflowing times, and an Arabic-Indic digit, which int and float take.
_FAST_IDS = ("0", "1", "2", "07", "7", "9", str(2**53), str(2**63 - 1)), (
    "+7", "-3", "p12", "1_000", "7.0", str(2**63), "#", "\u0663")
_FAST_TIMES = ("0", "1", "2.5", "3", "7.0", ".5", "1e3", "1E2", "-1", "+2", "-0"), (
    "nan", "inf", "1e400", "1_000", "0x1p3", "#", "\u0663.5")
_FAST_OPS = ("CONN",), ("CONNX", "CONNXY", "conn", "MSG", "#")
_FAST_ACTIONS = ("up", "down"), ("upward", "downx", "dow", "UP", "u", "#")
_FAST_COMMON_IDS = (*_FAST_IDS[0], "+7", "-3"), ("1_000", "7.0", str(2**63), "#", "\u0663")
_FAST_COMMON_TIMES = (*_FAST_TIMES[0], "-1", "+2", "-0"), (
    "nan", "inf", "-inf", "1e400", "1_000", "0x1p3", "#", "\u0663.5")
_FAST_COUNTS = ("1", "2", "02", "+1", "-1", "0"), ("1.0", "1_0", str(2**63), "#")
_FAST_GAPS = ("0", "1", "2.5", "-0", "1e-10"), ("nan", "1e400", "g")
# Field separators, and line ends: every line break of str.splitlines.
_SEPARATORS = (" ", " ", "\t", "\x1f", " \t ")
_ENDS = ("\n", "\n", "\n", "\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
         "\x85", "\u2028", "\u2029")
_SPOILERS = ("token", "token", "token", "blank", "comment", "width", "numeric header")


@st.composite
def _fast_report(draw, row, pools):
    """``(text, clean)``: a text of ``row(draw, state)`` rows whose fields
    are drawn from the first of each of ``pools``, maybe after a header,
    each line ended by any line break, the last maybe by none. A clean text
    has no more and is ASCII; the others also have a token from the second
    of a field's pools, a blank line, a trailing comment, a row of another
    width or a numeric-looking header, or a line break outside ASCII."""
    state = {}
    rows = [row(draw, state) for _ in range(draw(st.integers(1, 12)))]
    spoilers = draw(st.lists(st.sampled_from(_SPOILERS), max_size=2))
    for spoiler in spoilers:
        k = draw(st.integers(0, len(rows) - 1))
        if spoiler == "token":
            # a "width" spoiler may have shortened the row
            field = draw(st.integers(0, min(len(pools), len(rows[k])) - 1))
            rows[k][field] = draw(st.sampled_from(pools[field][1]))
        elif spoiler == "comment":
            rows[k] += ["#", "c"]
        elif spoiler == "width":
            rows[k] = rows[k][:-1] if draw(st.booleans()) else rows[k] + ["1"]
    lines = [draw(st.sampled_from(("", "", " ", "\t"))) + draw(st.sampled_from(_SEPARATORS))
             .join(fields) for fields in rows]
    lines = draw(st.sampled_from([[], ["source destination up down occ inter"],
                                  ["time op a b action"]])) + lines
    if "numeric header" in spoilers:
        lines.insert(0, "1e0 b c d e f")
    if "blank" in spoilers:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("", " ", "\t"))))
    ends = [draw(st.sampled_from(_ENDS)) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    text = "".join(map(str.__add__, lines, ends))
    return text, not spoilers and text.isascii()


def _fast_common_row(draw, state):
    src, dst = draw(st.lists(st.sampled_from(_FAST_COMMON_IDS[0]), min_size=2, max_size=2,
                             unique_by=int))
    up, down = sorted(draw(st.lists(st.sampled_from(_FAST_COMMON_TIMES[0]), min_size=2,
                                    max_size=2)), key=float)
    return [src, dst, up, down, draw(st.sampled_from(_FAST_COUNTS[0])),
            draw(st.sampled_from(_FAST_GAPS[0]))]


def _fast_one_row(draw, state):
    """A CONN row. A pair's down mostly closes an open up and is timed no
    earlier than it; now and then it has no open up or comes too early."""
    a, b = draw(st.lists(st.sampled_from(_FAST_IDS[0]), min_size=2, max_size=2, unique_by=int))
    time = draw(st.sampled_from(_FAST_TIMES[0]))
    ups = state.setdefault(frozenset((int(a), int(b))), [])
    action = draw(st.sampled_from(("up", "down"))) if ups or not draw(st.integers(0, 9)) \
        else "up"
    if action == "up":
        ups.append(time)
    elif ups:
        opened = ups.pop(0)
        if draw(st.integers(0, 9)):
            time = max(time, opened, key=float)
    return [time, "CONN", a, b, action]


_COMMON_POOLS = (_FAST_COMMON_IDS, _FAST_COMMON_IDS, _FAST_COMMON_TIMES, _FAST_COMMON_TIMES,
                 _FAST_COUNTS, _FAST_GAPS)
_ONE_POOLS = (_FAST_TIMES, _FAST_OPS, _FAST_IDS, _FAST_IDS, _FAST_ACTIONS)


@pytest.mark.filterwarnings("error")
class TestFastReadMatchesLineLoops:
    """Texts that numpy's reader reads, and texts a token, a line or a line
    break away from them, parse as the line loops parse them, without a
    warning; numpy's reader reads every clean text."""

    @settings(max_examples=400, deadline=None)
    @given(_fast_report(_fast_common_row, _COMMON_POOLS))
    def test_common_format(self, drawn):
        text, clean = drawn
        _agree(parse_common_format, text)
        assert ingestion._clean_common(text) is not None or not clean

    @settings(max_examples=400, deadline=None)
    @given(_fast_report(_fast_one_row, _ONE_POOLS))
    def test_one_report(self, drawn):
        text, clean = drawn
        _agree(parse_one_report, text)
        assert ingestion._clean_one(text) is not None or not clean

    @pytest.mark.parametrize("parse, pools, rows", [
        (parse_common_format, _COMMON_POOLS, [["1", "2", "0", "1", "1", "0"],
                                              ["2", "3", "1", "4", "1", "0"]]),
        (parse_one_report, _ONE_POOLS, [["0", "CONN", "1", "2", "up"],
                                        ["1", "CONN", "1", "2", "down"]])])
    def test_every_token_in_every_field(self, parse, pools, rows):
        for k, (good, bad) in enumerate(pools):
            for token in (*good, *bad):
                for row in range(len(rows)):
                    fields = [list(r) for r in rows]
                    fields[row][k] = token
                    _agree(parse, "\n".join(map(" ".join, fields)))


def _common_rows(count):
    return [f"{k % 5} {k % 5 + 1} {k} {k + 0.5} {k // 5 + 1} {5 if k >= 5 else 0}"
            for k in range(count)]


def _one_rows(count):
    return [f"{k // 2} CONN {k // 2 % 7} {k // 2 % 7 + 1} {('up', 'down')[k % 2]}"
            for k in range(count)]


_SIZES = (_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1)


class TestBlockBoundaries:
    @pytest.mark.parametrize("count", _SIZES)
    @pytest.mark.parametrize("parse, rows", [(parse_common_format, _common_rows),
                                             (parse_one_report, _one_rows)])
    def test_row_counts_around_a_block(self, parse, rows, count):
        kind, *_ = _agree(parse, "\n".join(rows(count)))[0]
        assert kind == "trace"

    @pytest.mark.parametrize("blank", (_BLOCK_ROWS - 2, _BLOCK_ROWS - 1, _BLOCK_ROWS))
    @pytest.mark.parametrize("header", ("source destination up down occ inter", "1e0 b c d e f"))
    def test_header_on_either_side_of_a_boundary(self, blank, header):
        text = "\n" * blank + header + "\n" + "\n".join(_common_rows(3))
        _agree(parse_common_format, text)

    @pytest.mark.parametrize("at", (*_SIZES, _BLOCK_ROWS - 2))
    @pytest.mark.parametrize("bad", ("", "0 1 2 3 4", "0 x 1 2 1 0", "1 1 2 3 1 0", "0 1 5 4 1 0"))
    def test_blank_or_bad_row_on_either_side_of_a_boundary(self, at, bad):
        rows = _common_rows(_BLOCK_ROWS + 3)
        rows[at] = bad
        (kind, line, *_), _ = _agree(parse_common_format, "\n".join(rows))
        assert (kind, line) == ("error", at + 1) if bad else kind == "trace"

    def test_pair_open_across_blocks(self):
        filler = [f"{k // 2} CONN 3 4 {('up', 'down')[k % 2]}" for k in range(_BLOCK_ROWS + 4)]
        end = _BLOCK_ROWS + 9
        text = "\n".join(["0 CONN 1 2 up", *filler, f"{end} CONN 2 1 down"])
        (kind, labels, a, b, start, stop, *_), warnings = _agree(parse_one_report, text)
        assert labels == (1, 2, 3, 4) and (0, 1, 0, end) in zip(a, b, start, stop)
        assert warnings == []

    @pytest.mark.parametrize("parse, rows", [(parse_common_format, _common_rows),
                                             (parse_one_report, _one_rows)])
    def test_str_lines_and_file_handle_agree(self, tmp_path, parse, rows):
        text = "\n".join(["", "header row", *rows(_BLOCK_ROWS + 2)]) + "\n"
        want = _outcome(parse, text)
        assert want == _outcome(_ORACLES[parse], text)
        assert _outcome(parse, text.splitlines()) == want
        assert _outcome(parse, io.StringIO(text)) == want
        path = tmp_path / "trace.txt"
        path.write_text(text)
        with open(path) as fh:
            assert _outcome(parse, fh) == want


def _agree_streamed(parse, text):
    """``_agree`` on ``text`` and on ``text`` with "\r\n" line ends, with
    numpy's reader declining every text, so that the line loop reads the str."""
    with mock.patch.object(ingestion, "_clean_rows", return_value=None):
        _agree(parse, text.replace("\n", "\r\n"))
        return _agree(parse, text)


class TestStreamedBlockBoundaries:
    """TestBlockBoundaries' texts that numpy's reader reads, through the
    line loop."""

    @pytest.mark.parametrize("count", _SIZES)
    @pytest.mark.parametrize("parse, rows", [(parse_common_format, _common_rows),
                                             (parse_one_report, _one_rows)])
    def test_row_counts_around_a_block(self, parse, rows, count):
        kind, *_ = _agree_streamed(parse, "\n".join(rows(count)))[0]
        assert kind == "trace"

    def test_pair_open_across_blocks(self):
        filler = [f"{k // 2} CONN 3 4 {('up', 'down')[k % 2]}" for k in range(_BLOCK_ROWS + 4)]
        end = _BLOCK_ROWS + 9
        text = "\n".join(["0 CONN 1 2 up", *filler, f"{end} CONN 2 1 down"])
        (kind, labels, a, b, start, stop, *_), warnings = _agree_streamed(parse_one_report, text)
        assert labels == (1, 2, 3, 4) and (0, 1, 0, end) in zip(a, b, start, stop)
        assert warnings == []


# Times that take every way the writers print a time, to be mixed in one block:
# whole, fractional, negative, -0.0, past 2^53 and printed through ``int``
# (1e16, 2^53 + 2), and a repr with an exponent; and ids past int64.
_SEAM_TIMES = (0.0, 1.0, 2.5, -3.0, -7.25, -0.0, 1e16, float(2**53 + 2), 1e-05, 1234.75)
_SEAM_IDS = (0, 7, 2**53, 2**63, 2**64 + 1)
_SEAM_PAIRS = [(a, b) for a in range(len(_SEAM_IDS)) for b in range(a + 1, len(_SEAM_IDS))]


def _seam_trace(rows, times=_SEAM_TIMES):
    """A trace of ``rows`` contacts, unsorted and unmerged, cycling through
    the pairs and ``times`` so that every block mixes them."""
    a, b = zip(*(_SEAM_PAIRS[k % len(_SEAM_PAIRS)] for k in range(rows)))
    start = [times[k % len(times)] for k in range(rows)]
    end = [max(s, times[(3 * k + 1) % len(times)]) for k, s in enumerate(start)]
    return ContactTrace(_SEAM_IDS, a, b, start, end, min(start), max(end))


@st.composite
def seam_traces(draw):
    """Up to 12 contacts drawn from the seam ids and times."""
    rows = draw(st.lists(st.tuples(st.sampled_from(_SEAM_PAIRS), st.sampled_from(_SEAM_TIMES),
                                   st.sampled_from(_SEAM_TIMES)), max_size=12))
    a, b, start, end = ([p[0] for p, _, _ in rows], [p[1] for p, _, _ in rows],
                        [min(s, e) for _, s, e in rows], [max(s, e) for _, s, e in rows])
    return ContactTrace(_SEAM_IDS, a, b, start, end, 0.0, 0.0)


class TestWritersAcrossBlockSeams:
    """The writers print a block of rows with one ``%`` call; a seam between
    blocks, and every way of printing a time within a block, must give the
    oracles' bytes."""

    @staticmethod
    def same(got, want):
        # as lists of lines, whose first difference pytest shows without
        # diffing two long texts
        assert got.split("\n") == want.split("\n")

    @pytest.mark.parametrize("rows", _SIZES)
    @pytest.mark.parametrize("times", [_SEAM_TIMES, (0.0, 3.0, -0.0, -8.0, 2.0**53 - 1)])
    def test_rows_around_a_block(self, rows, times):
        trace = _seam_trace(rows, times)
        self.same(write_common_format(trace), oracles.common_format_text(trace))
        self.same(write_one_report(trace), oracles.one_report_text(trace))

    def test_a_block_mixes_every_time(self):
        text = write_one_report(_seam_trace(_BLOCK_ROWS + 1))
        for token in ("-7.25", "1e-05", "1234.75", "10000000000000000", str(2**53 + 2),
                      str(2**64 + 1)):
            assert f"\n{token} " in text or f" {token} " in text
        assert "-0 " not in text and "-0.0" not in text

    @settings(max_examples=200, deadline=None)
    @given(seam_traces(), st.integers(1, 3))
    def test_small_blocks(self, trace, block):
        with mock.patch.object(ingestion, "_BLOCK_ROWS", block):
            self.same(write_common_format(trace), oracles.common_format_text(trace))
            self.same(write_one_report(trace), oracles.one_report_text(trace))


def _tabbed(text: str) -> str:
    """``text`` with a tab between the first two fields of each line and no
    final line end, as a benchmark input may come."""
    return "\n".join(line.replace(" ", "\t", 1) for line in text.splitlines())


_READER_TEXTS = [
    (parse_common_format, _tabbed(write_common_format(_random_disjoint_trace(random.Random(3))))),
    (parse_common_format, _tabbed("source destination up down occ inter\n"
                                  "1 2 0 1 5 0\n1 2 3 4 1 9\n2 3 0.5 7 1 0\n")),
    (parse_one_report, _tabbed(write_one_report(_random_disjoint_trace(random.Random(3))))),
    (parse_one_report, _tabbed("time op a b action\n" + ONE_REPORT_TEXT)),
    (parse_common_format, "1 2 0 1 1 0\n\n \n\t\n"),
    (parse_one_report, "-0 CONN 1 2 up\n+2 CONN 2 1 down\n1e-05 CONN 3 1 up\n\n"),
]


class TestCleanTextsTakeNumpysReader:
    @pytest.mark.parametrize("parse, text", _READER_TEXTS)
    def test_parsed_without_the_line_loop(self, parse, text):
        want = _outcome(_ORACLES[parse], text)
        with mock.patch.object(ingestion, "_rows", side_effect=AssertionError("line loop")):
            assert _outcome(parse, text) == want

    def test_file_handles_and_lines_take_the_line_loop(self):
        parse, text = _READER_TEXTS[0]
        with mock.patch.object(ingestion, "_rows", side_effect=AssertionError("line loop")):
            for source in (io.StringIO(text), text.splitlines()):
                with pytest.raises(AssertionError, match="line loop"):
                    parse(source)


def _float_int_loadtxt(loadtxt):
    """``loadtxt`` as numpy versions that read an int field through float
    read it: a field such as "7.0" or "1.5" is truncated to an int, with
    only a DeprecationWarning."""
    def read(lines, dtype, **options):
        try:
            return loadtxt(lines, dtype, **options)
        except ValueError:
            warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            loose = np.dtype([(name, float if dtype[name].kind == "i" else dtype[name])
                              for name in dtype.names])
            return loadtxt(lines, loose, **options).astype(dtype)
    return read


_INT_FIELDS = [
    (parse_common_format, [["1", "2", "0", "1", "1", "0"], ["2", "3", "1", "4", "1", "0"]],
     (0, 1, 4)),
    (parse_one_report, [["0", "CONN", "1", "2", "up"], ["1", "CONN", "1", "2", "down"]], (2, 3)),
]


class TestFloatSpelledIntsFallBack:
    """An id or a count spelled as a float is an error of the line loop
    whatever the warning filters: the command line ignores a
    DeprecationWarning, which is all some numpy versions give for it."""

    @pytest.mark.parametrize("reader", ("numpy", "float_int"))
    @pytest.mark.parametrize("token", ("7.0", "1.5", "1e3", "2.", ".5"))
    @pytest.mark.parametrize("parse, rows, fields", _INT_FIELDS)
    def test_float_spelled_ints(self, parse, rows, fields, token, reader):
        loadtxt = np.loadtxt if reader == "numpy" else _float_int_loadtxt(np.loadtxt)
        for filters in ("ignore", "default"):
            with catch_warnings(), mock.patch.object(np, "loadtxt", loadtxt):
                simplefilter(filters)
                for k in fields:
                    table = [list(r) for r in rows]
                    table[1][k] = token
                    (kind, line, *_), _ = _agree(parse, "\n".join(map(" ".join, table)))
                    assert (kind, line) == ("error", 2)

