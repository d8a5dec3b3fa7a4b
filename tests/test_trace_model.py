from unittest import mock

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
from dtnmetrics import trace_model
from dtnmetrics.trace_model import group_cummax, group_cumsum, groups, row_order


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


# Pools of values that tie: ints at the int64 bounds and near +-2^62, whose
# ranges no int64 key of m rows can hold, and floats with -0.0 next to 0.0,
# +-inf and NaN of either sign.
_WIDE = np.array([2**62, 2**62 - 1, 2**62 + 1, -2**62, 2**63 - 1, -2**63, 0, -1], np.int64)
_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5, -2.25])


@st.composite
def _keys(draw):
    """One to four key columns of one length: empty, one row, a few rows or
    over a thousand; each of small ints (negative ones too), wide ints,
    special floats, or distinct fractional floats."""
    m = draw(st.sampled_from([0, 1]) | st.integers(2, 40) | st.integers(1000, 2600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys = []
    for kind in draw(st.lists(st.sampled_from(["small", "wide", "special", "distinct"]),
                              min_size=1, max_size=4)):
        if kind == "small":
            bound = draw(st.integers(0, 3000))
            keys.append(rng.integers(-bound, bound + 1, m))
        elif kind == "distinct":
            keys.append(rng.permutation(m) * 0.25 - 7.0)
        else:
            pool = _WIDE if kind == "wide" else _SPECIAL
            keys.append(rng.choice(pool[:draw(st.integers(1, len(pool)))], m))
    return keys


class TestOrder:
    @settings(max_examples=400, deadline=None)
    @given(_keys())
    def test_is_lexsort_of_the_reversed_keys(self, keys):
        assert row_order(*keys).tolist() == np.lexsort(keys[::-1]).tolist()

    @settings(max_examples=200, deadline=None)
    @given(_keys())
    def test_no_key_it_builds_reaches_m_squared(self, keys):
        # every key row_order builds is ranked afresh or sorted; none is m^2 or more
        m, seen = len(keys[0]), []

        def spy(real):
            def call(column):
                if not any(column is key for key in keys):
                    seen.append(column)
                return real(column)
            return call

        with mock.patch.object(trace_model, "_ranks", spy(trace_model._ranks)), \
                mock.patch.object(trace_model, "_key_order", spy(trace_model._key_order)):
            got = row_order(*keys)
        assert got.tolist() == np.lexsort(keys[::-1]).tolist()
        assert all(0 <= key.min() and key.max() < m * m for key in seen)
        if len(keys) > 1 and m:
            assert seen  # the combined key is sorted

    @settings(max_examples=200, deadline=None)
    @given(_keys())
    def test_ranks_order_as_the_values(self, keys):
        column = keys[0]
        if not len(column):
            return
        rank, count = trace_model._ranks(column)
        assert rank.dtype == np.int64 and 0 <= rank.min() and rank.max() < count
        assert count <= len(column)
        assert np.lexsort((rank,)).tolist() == np.lexsort((column,)).tolist()
        # equal values (NaNs with NaNs) share a rank
        for r, v in zip(rank[:50].tolist(), column[:50].tolist()):
            same = np.isnan(column) if v != v else column == v
            assert set(rank[same].tolist()) == {r}

    @settings(max_examples=200, deadline=None)
    @given(_columns())
    def test_group_cummax_is_a_running_max_per_group(self, drawn):
        key, _, values = drawn
        order, first = groups(np.array(key, np.intp))
        got = group_cummax(np.array(values, float)[order], first)
        running, want = {}, []
        for r in order.tolist():
            running[key[r]] = max(running.get(key[r], values[r]), values[r])
            want.append(running[key[r]])
        assert got.tolist() == want
