import random

import pytest

from dtnmetrics import (
    AnalysisPeriod,
    ContactEvent,
    ContactTrace,
    PairAggregate,
    WindowConfig,
    average_meeting_time,
    build_snapshots,
    clip_to_period,
    pair_aggregates,
    recommend_window,
    temporal_betweenness_all,
    temporal_distance_matrix,
    window_count,
)

from .conftest import meeting_trace, random_trace


class TestPairAggregates:
    def test_totals_and_counts(self):
        trace = ContactTrace.from_events(
            [
                ContactEvent(0, 1, 0, 10),
                ContactEvent(0, 1, 20, 25),
                ContactEvent(1, 2, 5, 5),
            ]
        )
        aggs = {a.pair: a for a in pair_aggregates(trace)}
        assert aggs[(0, 1)].total_contact_time == 15
        assert aggs[(0, 1)].occurrence_count == 2
        # instantaneous contact: zero time, one occurrence
        assert aggs[(1, 2)].total_contact_time == 0
        assert aggs[(1, 2)].occurrence_count == 1

    def test_optional_period_clips(self):
        trace = ContactTrace.from_events(
            [ContactEvent(0, 1, 0, 10), ContactEvent(0, 1, 100, 110)]
        )
        aggs = pair_aggregates(clip_to_period(trace, AnalysisPeriod(50, 200)))
        assert aggs[0].occurrence_count == 1


class TestAverageMeetingTime:
    def test_meeting_table_average(self):
        # [PAPER] 20320 s over 82 meetings = 247.80
        aggs = pair_aggregates(meeting_trace())
        assert average_meeting_time(aggs) == pytest.approx(20320 / 82)
        assert average_meeting_time(aggs) == pytest.approx(247.80, abs=0.01)

    def test_empty_aggregates_rejected(self):
        with pytest.raises(ValueError, match="no contacts"):
            average_meeting_time([])


class TestRecommendWindow:
    @pytest.mark.parametrize(
        "avg,expected",
        [
            (247.80487804878049, 300.0),  # [PAPER] "time window = 300 seconds"
            (60.0, 120.0),  # multiple of 60 must be strictly greater
            (3129.55, 3180.0),
            (1.0, 60.0),
        ],
    )
    def test_next_minute_multiple(self, avg, expected):
        aggs = [PairAggregate((0, 1), avg, 1)]
        assert recommend_window(aggs) == expected


class TestWindowCount:
    def test_exact_division(self):
        # [PAPER] (900 - 0)/300 = 3 timestamps
        assert window_count(AnalysisPeriod(0, 900), 300) == 3

    def test_partial_final_window_rounds_up(self):
        assert window_count(AnalysisPeriod(0, 901), 300) == 4

    def test_float_noise_near_integer_ratio(self):
        # spans from epoch-scale timestamps must not sprout a phantom window
        assert window_count(AnalysisPeriod(1.1564e9, 1.1564e9 + 86400), 300) == 288

    def test_width_wider_than_span(self):
        assert window_count(AnalysisPeriod(0, 10), 300) == 1

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError):
            window_count(AnalysisPeriod(0, 10), 0)

    @pytest.mark.parametrize("w", [float("inf"), float("nan")])
    def test_non_finite_width_rejected(self, w):
        with pytest.raises(ValueError, match="finite"):
            window_count(AnalysisPeriod(0, 10), w)

    def test_width_whose_window_count_is_not_finite_rejected(self):
        with pytest.raises(ValueError, match="too fine"):
            window_count(AnalysisPeriod(0, 100), 5e-324)


class TestBuildSnapshots:
    def test_six_node_fixture_windows(self, six_node_trace):
        snaps = build_snapshots(
            six_node_trace, AnalysisPeriod(0, 900), WindowConfig(300)
        )
        assert snaps.window_count == 3
        assert snaps.windows[0].edges == frozenset({(0, 1)})
        assert snaps.windows[1].edges == frozenset({(2, 4), (4, 5)})
        assert snaps.windows[2].edges == frozenset({(1, 3), (2, 3)})

    def test_occupants_union_of_edge_endpoints(self, six_node_snapshots):
        assert six_node_snapshots.windows[1].occupants == frozenset({2, 4, 5})

    def test_boundary_instant_belongs_to_later_window(self):
        trace = ContactTrace.from_events([ContactEvent(0, 1, 300, 300)], span=(0, 900))
        snaps = build_snapshots(trace, AnalysisPeriod(0, 900), WindowConfig(300))
        assert snaps.windows[0].edges == frozenset()
        assert snaps.windows[1].edges == frozenset({(0, 1)})

    def test_event_spanning_windows_appears_in_each(self):
        trace = ContactTrace.from_events([ContactEvent(0, 1, 100, 700)], span=(0, 900))
        snaps = build_snapshots(trace, AnalysisPeriod(0, 900), WindowConfig(300))
        assert all((0, 1) in s.edges for s in snaps.windows)

    def test_trace_end_at_t_max_stays_in_last_window(self):
        trace = ContactTrace.from_events([ContactEvent(0, 1, 890, 900)], span=(0, 900))
        snaps = build_snapshots(trace, AnalysisPeriod(0, 900), WindowConfig(300))
        assert snaps.window_count == 3
        assert snaps.windows[2].edges == frozenset({(0, 1)})

    def test_empty_windows_retained(self):
        trace = ContactTrace.from_events([ContactEvent(0, 1, 10, 20)], span=(0, 900))
        snaps = build_snapshots(trace, AnalysisPeriod(0, 900), WindowConfig(300))
        assert snaps.window_count == 3
        assert snaps.windows[1].edges == frozenset()

    def test_unknown_node_occurs_nowhere(self, six_node_snapshots):
        assert not any(42 in window.occupants for window in six_node_snapshots.windows)


class TestContactArray:
    def test_rows_are_window_and_columns(self, six_node_snapshots):
        # A-B in window 0; C-E, E-F in window 1; B-D, C-D in window 2
        assert six_node_snapshots.contacts.tolist() == [
            [0, 0, 1], [1, 2, 4], [1, 4, 5], [2, 1, 3], [2, 2, 3]
        ]

    def test_metrics_never_build_the_snapshot_view(self):
        rnd = random.Random(11)
        for _ in range(20):
            trace, period, cfg = random_trace(rnd, max_nodes=7, max_windows=5)
            snaps = build_snapshots(trace, period, cfg)
            temporal_distance_matrix(snaps)
            temporal_betweenness_all(snaps)
            assert "windows" not in snaps.__dict__
