import random
import time
import tracemalloc

import numpy as np
import pytest

from dtnmetrics import (
    AnalysisPeriod,
    CentralityScore,
    ContactEvent,
    ContactTrace,
    TemporalDistanceMatrix,
    WindowConfig,
    average_temporal_distance,
    build_snapshots,
    clip_to_period,
    parse_common_format,
    rank_nodes,
    reachable_pair_count,
    temporal_betweenness,
    temporal_betweenness_all,
    temporal_closeness,
    temporal_closeness_all,
    temporal_diameter,
    temporal_distance_exact,
    temporal_distance_matrix,
    temporal_distance_paper,
)
from dtnmetrics import static_metrics, temporal_metrics

from . import oracles
from .conftest import OVERFLOW_ROWS, SIX_NODE_MATRIX, A, B, C, D, E, F, random_trace, star_trace


class TestTemporalDistancePaper:
    def test_self_distance_is_zero(self, six_node_snapshots):
        # [PAPER] Case 1: d(A, A) = 0
        assert temporal_distance_paper(six_node_snapshots, A, A) == 0

    def test_same_window_distance_is_zero(self, six_node_snapshots):
        # [PAPER] Case 2: A and B both occur in the first window
        assert temporal_distance_paper(six_node_snapshots, A, B) == 0

    def test_forward_chain(self, six_node_snapshots):
        # [PAPER] A reaches C two windows later via B and D
        assert temporal_distance_paper(six_node_snapshots, A, C) == 2

    def test_unreachable(self, six_node_snapshots):
        # [PAPER] Case 4: no forward chain from A to E
        assert temporal_distance_paper(six_node_snapshots, A, E) is None

    def test_asymmetry(self, six_node_snapshots):
        # [PAPER] d(A,C) = 2 but d(C,A) is unreachable: time order matters
        assert temporal_distance_paper(six_node_snapshots, A, C) == 2
        assert temporal_distance_paper(six_node_snapshots, C, A) is None

    def test_scan_starts_at_first_source_occurrence(self, six_node_snapshots):
        # [PAPER] C first occurs in window 1 and meets D in window 2, so
        # d(C,D)=1 even though C and D co-occur in window 2: the scan is
        # anchored at the source's first occurrence
        assert temporal_distance_paper(six_node_snapshots, C, D) == 1
        assert temporal_distance_paper(six_node_snapshots, E, D) == 1

    def test_unknown_node_rejected(self, six_node_snapshots):
        with pytest.raises(KeyError):
            temporal_distance_paper(six_node_snapshots, A, 99)

    def test_matches_exhaustive_chain_oracle(self, rng):
        for _ in range(150):
            trace, period, cfg = random_trace(rng)
            snaps = build_snapshots(trace, period, cfg)
            for i in snaps.nodes:
                for j in snaps.nodes:
                    assert temporal_distance_paper(snaps, i, j) == oracles.paper_distance(
                        snaps, i, j
                    ), (trace.events, i, j)


class TestTemporalDistanceMatrix:
    def test_published_matrix(self, six_node_snapshots):
        # [PAPER] the full 6x6 worked-example matrix
        matrix = temporal_distance_matrix(six_node_snapshots)
        assert matrix.entries.tolist() == SIX_NODE_MATRIX

    def test_labels_ascending(self, six_node_snapshots):
        matrix = temporal_distance_matrix(six_node_snapshots)
        assert matrix.labels == (0, 1, 2, 3, 4, 5)

    def test_distance_accessor_maps_sentinel_to_none(self, six_node_snapshots):
        matrix = temporal_distance_matrix(six_node_snapshots)
        assert matrix.distance(A, C) == 2
        assert matrix.distance(A, E) is None

    def test_to_text(self, six_node_snapshots):
        text = temporal_distance_matrix(six_node_snapshots).to_text()
        assert text.splitlines()[0] == "[[0, 0, 2, 2, -1, -1],"
        assert text.splitlines()[-1] == " [-1, 1, 0, 1, 0, 0]]"

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 36, 98])
    def test_to_text_matches_the_entry_loop(self, n):
        rnd = np.random.default_rng(n)
        entries = np.where(rnd.random((n, n)) < 0.3, -1, rnd.integers(0, 500, (n, n)))
        np.fill_diagonal(entries, 0)
        text = TemporalDistanceMatrix(tuple(range(n)), entries).to_text()
        assert text == oracles.matrix_text(entries)
        assert n > 1 or text == ["", "[[0]]"][n]

    def test_unknown_label_rejected(self, six_node_snapshots):
        matrix = temporal_distance_matrix(six_node_snapshots)
        with pytest.raises(KeyError):
            matrix.distance(0, 42)


class TestAverageTemporalDistance:
    def test_published_average(self, six_node_snapshots):
        # [PAPER] Eq. 1: 300 * 14 / (6*5) = 140 seconds
        matrix = temporal_distance_matrix(six_node_snapshots)
        assert average_temporal_distance(matrix, 300) == 140.0

    def test_linear_in_w(self, six_node_snapshots):
        matrix = temporal_distance_matrix(six_node_snapshots)
        assert average_temporal_distance(matrix, 600) == 280.0

    def test_needs_two_nodes(self):
        matrix = TemporalDistanceMatrix((0,), np.zeros((1, 1), dtype=np.int64))
        with pytest.raises(ValueError):
            average_temporal_distance(matrix, 300)


class TestDiameterAndReachability:
    def test_six_node_diameter(self, six_node_snapshots):
        matrix = temporal_distance_matrix(six_node_snapshots)
        dia = temporal_diameter(matrix, 300)
        assert dia.hops == 2
        assert dia.seconds == 600.0
        assert not dia.disconnected

    def test_reachable_pair_count(self, six_node_snapshots):
        matrix = temporal_distance_matrix(six_node_snapshots)
        assert reachable_pair_count(matrix) == 20

    def test_fully_disconnected(self):
        entries = np.full((3, 3), -1, dtype=np.int64)
        np.fill_diagonal(entries, 0)
        matrix = TemporalDistanceMatrix((0, 1, 2), entries)
        assert temporal_diameter(matrix, 300).disconnected
        assert reachable_pair_count(matrix) == 0


class TestTemporalCloseness:
    def test_worked_example(self):
        # [PAPER] node p: distances (2, 2, 3, 3, 3), W=3, N=6 -> 0.867
        entries = np.zeros((6, 6), dtype=np.int64)
        entries[0, 1:] = [2, 2, 3, 3, 3]
        matrix = TemporalDistanceMatrix((0, 1, 2, 3, 4, 5), entries)
        score = temporal_closeness(matrix, 3, 0)
        assert score.value == pytest.approx(0.867, abs=0.001)

    def test_all_zero_distances(self):
        matrix = TemporalDistanceMatrix((0, 1), np.zeros((2, 2), dtype=np.int64))
        assert temporal_closeness(matrix, 5, 0).value == 0.0

    def test_unreachable_contributes_nothing(self, six_node_snapshots):
        matrix = temporal_distance_matrix(six_node_snapshots)
        # row A: 0, 0, 2, 2, -1, -1 -> 4 / (3*5)
        assert temporal_closeness(matrix, 3, A).value == pytest.approx(4 / 15)

    def test_needs_two_nodes_and_a_window(self, six_node_snapshots):
        one = TemporalDistanceMatrix((0,), np.zeros((1, 1), dtype=np.int64))
        with pytest.raises(ValueError, match="at least 2 nodes"):
            temporal_closeness_all(one, 3)
        with pytest.raises(ValueError, match="window count must be >= 1"):
            temporal_closeness_all(temporal_distance_matrix(six_node_snapshots), 0)

    def test_all_variant_covers_every_node(self, six_node_snapshots):
        matrix = temporal_distance_matrix(six_node_snapshots)
        scores = temporal_closeness_all(matrix, 3)
        assert [s.node for s in scores] == [0, 1, 2, 3, 4, 5]


class TestTemporalDistanceExact:
    def test_six_node_fixture_matches_paper(self, six_node_trace):
        # every window of the fixture is connected over its occupants, so
        # occurrence-chain and edge-respecting distances coincide... except
        # window 2 ({B,D} and {C,D} edges) is connected too, so all agree
        period, cfg = AnalysisPeriod(0, 900), WindowConfig(300)
        snaps = build_snapshots(six_node_trace, period, cfg)
        for i in snaps.nodes:
            for j in snaps.nodes:
                paper = temporal_distance_paper(snaps, i, j)
                exact = temporal_distance_exact(six_node_trace, period, cfg, i, j)
                assert paper == exact

    def test_disconnected_window_splits_semantics(self):
        # window 0 holds two separate edges (0,1) and (2,3): node 1 "occurs"
        # with 2 in the occurrence list but shares no edge with it
        trace = ContactTrace.from_events(
            [
                ContactEvent(0, 1, 1, 2),
                ContactEvent(2, 3, 3, 4),
                ContactEvent(1, 2, 11, 12),
            ],
            span=(0, 20),
        )
        period, cfg = AnalysisPeriod(0, 20), WindowConfig(10)
        snaps = build_snapshots(trace, period, cfg)
        assert temporal_distance_paper(snaps, 0, 3) == 0
        assert temporal_distance_exact(trace, period, cfg, 0, 3) is None

    def test_horizon_limits_intra_window_hops(self):
        # chain 0-1-2 inside one window: two hops
        trace = ContactTrace.from_events(
            [ContactEvent(0, 1, 1, 2), ContactEvent(1, 2, 3, 4)], span=(0, 10)
        )
        period = AnalysisPeriod(0, 10)
        assert temporal_distance_exact(trace, period, WindowConfig(10), 0, 2) == 0
        assert (
            temporal_distance_exact(trace, period, WindowConfig(10, horizon=1), 0, 2)
            is None
        )

    def test_matches_journey_oracle(self, rng):
        for _ in range(80):
            trace, period, cfg = random_trace(rng, max_nodes=6, max_windows=5)
            snaps = build_snapshots(trace, period, cfg)
            for horizon in (None, 1, 2):
                hcfg = WindowConfig(cfg.w, horizon=horizon)
                for i in snaps.nodes:
                    for j in snaps.nodes:
                        got = temporal_distance_exact(trace, period, hcfg, i, j)
                        want = oracles.exact_distance(snaps, i, j, horizon)
                        assert got == want, (trace.events, horizon, i, j)

    @pytest.mark.parametrize("horizon, want", [(999, None), (1000, 1), (None, 1)])
    def test_large_window_ring(self, horizon, want):
        # a 2,000-node ring in window 0 puts node 1,000 exactly 1,000 hops
        # from node 0; node 1,000 meets the new node 2,000 in window 1
        n = 2000
        events = [ContactEvent(k, (k + 1) % n, 0.25, 0.5) for k in range(n)]
        events.append(ContactEvent(n // 2, n, 1.25, 1.5))
        trace, period = ContactTrace.from_events(events, span=(0, 2)), AnalysisPeriod(0, 2)
        cfg = WindowConfig(1, horizon=horizon)
        snaps = build_snapshots(trace, period, cfg)
        assert oracles.exact_distance(snaps, 0, n, horizon) == want
        t0 = time.perf_counter()
        assert temporal_distance_exact(trace, period, cfg, 0, n, snaps) == want
        assert time.perf_counter() - t0 < 1.0  # no k x k work per window


class TestScaleAtTheBound:
    """Every node in every window at the two worst sizes that the CLI's
    window bound admits (``test_cli.TestWindowCountBound``). Work per window
    per window, in the infection table or the scan schedule, takes close to
    a minute here; the limit is far above the expected second."""

    @pytest.mark.parametrize("nodes, windows", [(2, 56568), (10, 25298)])
    def test_full_occupancy_table_and_matrix(self, nodes, windows):
        span = windows * 60
        events = [ContactEvent(c, c + 1, 0, span) for c in range(nodes - 1)]
        trace = ContactTrace.from_events(events)
        snaps = build_snapshots(trace, AnalysisPeriod(0, span), WindowConfig(60))
        assert snaps.window_count == windows and snaps.occupancy.all()
        start = time.perf_counter()
        H = snaps.infection_table
        matrix = temporal_distance_matrix(snaps)
        elapsed = time.perf_counter() - start
        assert np.array_equal(H, np.broadcast_to(np.arange(windows)[:, None], H.shape))
        assert not matrix.entries.any()
        assert elapsed < 10


class TestTemporalBetweenness:
    def test_two_sided_star_hub_is_one(self):
        # [PAPER] star graph in a single window: every shortest path between
        # the 12 leaves passes through the hub -> 1.0
        trace = star_trace(12)
        snaps = build_snapshots(trace, AnalysisPeriod(0, 100), WindowConfig(100))
        assert temporal_betweenness(snaps, 0).value == 1.0

    def test_leaf_scores_zero(self):
        trace = star_trace(12)
        snaps = build_snapshots(trace, AnalysisPeriod(0, 100), WindowConfig(100))
        scores = {s.node: s.value for s in temporal_betweenness_all(snaps)}
        assert all(scores[leaf] == 0.0 for leaf in range(1, 13))

    def test_scores_within_unit_interval(self, rng):
        for _ in range(30):
            trace, period, cfg = random_trace(rng, max_nodes=6, max_windows=4)
            if len(trace.nodes) < 3:
                continue
            snaps = build_snapshots(trace, period, cfg)
            for s in temporal_betweenness_all(snaps):
                assert 0.0 <= s.value <= 1.0

    @pytest.mark.parametrize("w", [1, 10])
    def test_below_three_nodes_scores_zero(self, w):
        for event in (ContactEvent(0, 1, 1, 2), ContactEvent(4, 4, 1, 2)):
            trace = ContactTrace.from_events([event], span=(0, 10))
            snaps = build_snapshots(trace, AnalysisPeriod(0, 10), WindowConfig(w))
            got = temporal_betweenness_all(snaps)
            assert got == [CentralityScore(v, 0.0) for v in sorted(trace.nodes)]

    def test_overflowing_journey_counts_raise(self, overflowing_levels):
        period = AnalysisPeriod(0, 10)
        trace = clip_to_period(parse_common_format(OVERFLOW_ROWS), period)
        snaps = build_snapshots(trace, period, WindowConfig(1))
        with pytest.raises(FloatingPointError, match="overflow"):
            temporal_metrics.shortest_journeys(snaps)

    def test_sweep_memory_stays_within_its_blocks(self):
        # 98 nodes, about 900 contacts in every window; the last node occurs
        # only in the last window, so no source stops early. One block of all
        # 98 sources peaks above 6 MB here; blocks sized by the busiest
        # window keep the sweep near 2 MB.
        rnd = random.Random(3)
        nodes, windows, w = 98, 12, 10.0
        events = []
        for t in range(windows):
            for _ in range(1000):
                a, b = rnd.sample(range(nodes - 1), 2)
                start = t * w + rnd.uniform(1, 8)
                events.append(ContactEvent(a, b, start, start + 0.5))
        last = (windows - 1) * w + 5
        events.append(ContactEvent(nodes - 1, 0, last, last))
        trace = ContactTrace.from_events(events, span=(0, windows * w))
        snaps = build_snapshots(trace, AnalysisPeriod(0, windows * w), WindowConfig(w))
        snaps.occupancy, snaps.window_graphs  # cached structures, built once
        tracemalloc.start()
        try:
            temporal_betweenness_all(snaps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(60):
            trace, period, cfg = random_trace(rng, max_nodes=6, max_windows=4)
            if len(trace.nodes) < 3:
                continue
            snaps = build_snapshots(trace, period, cfg)
            got = {s.node: s.value for s in temporal_betweenness_all(snaps)}
            want = oracles.betweenness(snaps)
            for node in snaps.nodes:
                assert got[node] == pytest.approx(want[node], abs=1e-9), trace.events


class TestRankNodes:
    def test_descending_with_id_tiebreak(self):
        scores = [
            CentralityScore(3, 0.5),
            CentralityScore(1, 0.9),
            CentralityScore(2, 0.5),
        ]
        assert [s.node for s in rank_nodes(scores)] == [1, 2, 3]

    def test_rounding_does_not_split_a_tie(self):
        # one true tie, summed in two orders: the lower id ranks first
        scores = [
            CentralityScore(5, 0.027777777777777776),
            CentralityScore(2, 0.027777777777777773),
        ]
        assert [s.node for s in rank_nodes(scores)] == [2, 5]
        assert [s.node for s in rank_nodes(scores[::-1])] == [2, 5]

    def test_a_real_difference_still_ranks(self):
        scores = [CentralityScore(1, 0.5), CentralityScore(4, 0.5 + 1e-9)]
        assert [s.node for s in rank_nodes(scores)] == [4, 1]


def single_node_calls(trace, snaps):
    """Every entry point that takes one node id (two for distances), by name."""
    g = static_metrics.aggregate(trace)
    matrix = temporal_distance_matrix(snaps)
    period, cfg = AnalysisPeriod(0, 900), WindowConfig(300)
    return {
        "degree": lambda x: static_metrics.degree(g, x),
        "degree_centrality": lambda x: static_metrics.degree_centrality(g, x),
        "closeness_centrality": lambda x: static_metrics.closeness_centrality(g, x),
        "betweenness_centrality": lambda x: static_metrics.betweenness_centrality(g, x),
        "paper_source": lambda x: temporal_distance_paper(snaps, x, A),
        "paper_target": lambda x: temporal_distance_paper(snaps, A, x),
        "exact_source": lambda x: temporal_distance_exact(trace, period, cfg, x, A),
        "exact_target": lambda x: temporal_distance_exact(trace, period, cfg, A, x),
        "temporal_betweenness": lambda x: temporal_betweenness(snaps, x),
        "temporal_closeness": lambda x: temporal_closeness(matrix, snaps.window_count, x),
        "distance_source": lambda x: matrix.distance(x, A),
        "distance_target": lambda x: matrix.distance(A, x),
    }


@pytest.mark.parametrize("name", [
    "degree", "degree_centrality", "closeness_centrality", "betweenness_centrality",
    "paper_source", "paper_target", "exact_source", "exact_target",
    "temporal_betweenness", "temporal_closeness", "distance_source", "distance_target",
])
def test_every_single_node_entry_point_rejects_an_unknown_id(
    name, six_node_trace, six_node_snapshots
):
    call = single_node_calls(six_node_trace, six_node_snapshots)[name]
    assert call(A) is not None
    with pytest.raises(KeyError, match="unknown node id 42"):
        call(42)
