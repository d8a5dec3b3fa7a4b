import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtnmetrics import (
    AnalysisPeriod,
    ContactEvent,
    ContactTrace,
    WindowConfig,
    validate_trace,
)
from dtnmetrics.trace_model import group_cumsum, groups


class TestContactEvent:
    def test_pair_is_canonicalized(self):
        assert ContactEvent(5, 2, 0, 1).pair == (2, 5)
        assert ContactEvent(2, 5, 0, 1).pair == (2, 5)

    def test_canonicalization_keeps_equality(self):
        assert ContactEvent(5, 2, 0, 1) == ContactEvent(2, 5, 0, 1)

    def test_instantaneous_contact_is_legal(self):
        # [PAPER] the common format contains rows with up == down
        ev = ContactEvent(1, 3, 51293, 51293)
        assert ev.duration == 0

    def test_duration(self):
        assert ContactEvent(0, 1, 10.0, 32.5).duration == 22.5


class TestContactTrace:
    def test_events_sorted_by_start(self):
        trace = ContactTrace.from_events(
            [ContactEvent(0, 1, 50, 60), ContactEvent(2, 3, 10, 20)]
        )
        assert [ev.start for ev in trace.events] == [10, 50]

    def test_nodes_collected_from_events(self):
        trace = ContactTrace.from_events([ContactEvent(4, 9, 0, 1)])
        assert trace.nodes == frozenset({4, 9})

    def test_extra_nodes_count_toward_n(self):
        trace = ContactTrace.from_events(
            [ContactEvent(0, 1, 0, 1)], extra_nodes=[7]
        )
        assert trace.nodes == frozenset({0, 1, 7})

    def test_span_defaults_to_event_extent(self):
        trace = ContactTrace.from_events(
            [ContactEvent(0, 1, 5, 8), ContactEvent(0, 2, 2, 6)]
        )
        assert (trace.span_min, trace.span_max) == (2, 8)

    def test_explicit_span(self):
        trace = ContactTrace.from_events([ContactEvent(0, 1, 5, 8)], span=(0, 900))
        assert (trace.span_min, trace.span_max) == (0.0, 900.0)

    def test_contacts_of_is_order_insensitive(self):
        trace = ContactTrace.from_events(
            [ContactEvent(3, 1, 0, 1), ContactEvent(1, 3, 5, 6)]
        )
        assert trace.contacts_of(1, 3) == trace.contacts_of(3, 1)
        assert len(trace.contacts_of(1, 3)) == 2


class TestAnalysisPeriod:
    def test_span(self):
        assert AnalysisPeriod(0, 900).span == 900

    @pytest.mark.parametrize("lo,hi", [(10, 10), (20, 10)])
    def test_rejects_empty_or_reversed(self, lo, hi):
        with pytest.raises(ValueError):
            AnalysisPeriod(lo, hi)


class TestWindowConfig:
    def test_defaults_to_unlimited_horizon(self):
        assert WindowConfig(300).horizon is None

    @pytest.mark.parametrize("w", [0, -5])
    def test_rejects_nonpositive_width(self, w):
        with pytest.raises(ValueError):
            WindowConfig(w)

    @pytest.mark.parametrize("w", [float("inf"), float("nan")])
    def test_rejects_non_finite_width(self, w):
        with pytest.raises(ValueError, match="finite"):
            WindowConfig(w)

    @pytest.mark.parametrize("h", [0, -1])
    def test_rejects_nonpositive_horizon(self, h):
        with pytest.raises(ValueError):
            WindowConfig(300, horizon=h)


class TestValidateTrace:
    def test_valid_single_event(self):
        # [PAPER] row (1, 3, 51293, 51293) is a valid instantaneous contact
        trace = ContactTrace.from_events([ContactEvent(1, 3, 51293, 51293)])
        assert validate_trace(trace) == []

    def test_self_contact_violation(self):
        trace = ContactTrace(
            labels=(2,), a=[0], b=[0], start=[0], end=[1],
            span_min=0,
            span_max=1,
        )
        rules = [v.rule for v in validate_trace(trace)]
        assert "self-contact" in rules

    def test_reversed_interval_violation(self):
        trace = ContactTrace(
            labels=(0, 1), a=[0], b=[1], start=[9], end=[3],
            span_min=0,
            span_max=10,
        )
        rules = [v.rule for v in validate_trace(trace)]
        assert "reversed-interval" in rules

    def test_outside_span_violation(self):
        trace = ContactTrace(
            labels=(0, 1), a=[0], b=[1], start=[5], end=[15],
            span_min=0,
            span_max=10,
        )
        rules = [v.rule for v in validate_trace(trace)]
        assert "outside-span" in rules

    def test_unsorted_violation(self):
        trace = ContactTrace(
            labels=(0, 1, 2, 3), a=[0, 2], b=[1, 3], start=[5, 1], end=[6, 2],
            span_min=0,
            span_max=10,
        )
        rules = [v.rule for v in validate_trace(trace)]
        assert "unsorted" in rules

    def test_node_set_incomplete_violation(self):
        trace = ContactTrace(
            labels=(0,), a=[0], b=[1], start=[0], end=[1],
            span_min=0,
            span_max=1,
        )
        rules = [v.rule for v in validate_trace(trace)]
        assert "node-set-incomplete" in rules
        assert "unknown-node" in rules

    def test_sorting_is_idempotent_on_valid_trace(self):
        trace = ContactTrace.from_events(
            [ContactEvent(0, 1, 5, 6), ContactEvent(2, 3, 1, 2)]
        )
        assert validate_trace(trace) == []
        resorted = sorted(trace.events, key=ContactEvent.sort_key)
        assert tuple(resorted) == trace.events


@st.composite
def _columns(draw):
    """A key, up to two tie columns and a value column of one length; few
    distinct values, so that keys and ties repeat."""
    n = draw(st.integers(0, 25))
    column = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    key, *ties = (draw(column) for _ in range(draw(st.integers(1, 3))))
    values = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    return key, ties, values


class TestGroups:
    @settings(max_examples=300, deadline=None)
    @given(_columns())
    def test_match_a_sort_and_a_running_sum_per_group(self, drawn):
        key, ties, values = drawn
        order, first = groups(np.array(key, np.intp), *(np.array(t, np.intp) for t in ties))
        # np.lexsort reads the last tie first; equal rows keep their order
        want = sorted(range(len(key)), key=lambda r: (key[r], *(t[r] for t in ties[::-1]), r))
        assert order.tolist() == want
        assert first.tolist() == [k == 0 or key[want[k]] != key[want[k - 1]]
                                  for k in range(len(want))]
        running, sums = {}, []
        for r in want:
            running[key[r]] = running.get(key[r], 0) + values[r]
            sums.append(running[key[r]])
        assert group_cumsum(np.array(values, np.int64)[order], first).tolist() == sums

    def test_empty_input(self):
        order, first = groups(np.array([], np.intp), np.array([], float))
        assert order.tolist() == [] and first.tolist() == []
        assert group_cumsum(np.array([], np.int64), first).tolist() == []
