"""Cross-cutting properties checked with hypothesis."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtnmetrics import (
    AnalysisPeriod,
    ContactEvent,
    ContactTrace,
    WindowConfig,
    average_temporal_distance,
    build_snapshots,
    clip_to_period,
    parse_common_format,
    parse_one_report,
    temporal_distance_exact,
    temporal_distance_matrix,
    temporal_distance_paper,
    write_common_format,
    write_one_report,
)

from .oracles import validate_trace

W_WIDTH = 10


@st.composite
def traces(draw, max_nodes=8, max_windows=6):
    """A random trace, its period and window config (width 10)."""
    n = draw(st.integers(2, max_nodes))
    W = draw(st.integers(1, max_windows))
    n_events = draw(st.integers(0, 2 * W))
    events = []
    for _ in range(n_events):
        t = draw(st.integers(0, W - 1))
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1).filter(lambda x: x != a))
        start = t * W_WIDTH + draw(st.integers(1, W_WIDTH - 2))
        end = min(start + draw(st.integers(0, 1)), (t + 1) * W_WIDTH - 1)
        events.append(ContactEvent(a, b, start, end))
    trace = ContactTrace.from_events(
        events, extra_nodes=range(n), span=(0, W * W_WIDTH)
    )
    return trace, AnalysisPeriod(0, W * W_WIDTH), WindowConfig(W_WIDTH)


@st.composite
def disjoint_traces(draw):
    """Traces whose per-pair intervals are disjoint (round-trip exact)."""
    n = draw(st.integers(2, 8))
    events = []
    for a in range(n):
        for b in range(a + 1, n):
            count = draw(st.integers(0, 3))
            cursor = draw(st.integers(0, 20))
            for _ in range(count):
                d = draw(st.integers(0, 15))
                events.append(ContactEvent(a, b, cursor, cursor + d))
                cursor += d + draw(st.integers(1, 10))
    if not events:
        events.append(ContactEvent(0, 1, 0, 5))
    return ContactTrace.from_events(events)


@settings(max_examples=150, deadline=None)
@given(traces())
def test_paper_distance_never_exceeds_exact(data):
    trace, period, cfg = data
    snaps = build_snapshots(trace, period, cfg)
    for i in snaps.nodes:
        for j in snaps.nodes:
            exact = temporal_distance_exact(trace, period, cfg, i, j, snaps)
            if exact is not None:
                paper = temporal_distance_paper(snaps, i, j)
                assert paper is not None and paper <= exact


@settings(max_examples=100, deadline=None)
@given(traces())
def test_matrix_agrees_with_pairwise_distance(data):
    trace, period, cfg = data
    snaps = build_snapshots(trace, period, cfg)
    matrix = temporal_distance_matrix(snaps)
    for i in snaps.nodes:
        for j in snaps.nodes:
            assert matrix.distance(i, j) == temporal_distance_paper(snaps, i, j)


@settings(max_examples=60, deadline=None)
@given(traces(), st.floats(1.0, 1000.0))
def test_average_temporal_distance_linear_in_w(data, w):
    trace, period, cfg = data
    matrix = temporal_distance_matrix(build_snapshots(trace, period, cfg))
    base = average_temporal_distance(matrix, 1.0)
    assert average_temporal_distance(matrix, w) == pytest.approx(base * w, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(disjoint_traces())
def test_common_format_round_trip(trace):
    assert parse_common_format(write_common_format(trace)).events == trace.events


@settings(max_examples=100, deadline=None)
@given(disjoint_traces())
def test_one_report_round_trip(trace):
    assert parse_one_report(write_one_report(trace)).events == trace.events


@settings(max_examples=100, deadline=None)
@given(disjoint_traces())
def test_clip_is_idempotent(trace):
    period = AnalysisPeriod(trace.span_min, trace.span_max + 1)
    once = clip_to_period(trace, period)
    twice = clip_to_period(once, period)
    assert once.events == twice.events


@settings(max_examples=100, deadline=None)
@given(traces())
def test_generated_traces_are_valid(data):
    trace, _, _ = data
    assert validate_trace(trace) == []


@settings(max_examples=80, deadline=None)
@given(traces())
def test_every_in_period_event_lands_in_a_window(data):
    trace, period, cfg = data
    snaps = build_snapshots(trace, period, cfg)
    for ev in trace.events:
        assert any(ev.pair in s.edges for s in snaps.windows)
