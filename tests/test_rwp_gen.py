import numpy as np
import pytest

from dtnmetrics import RwpParams, generate, validate_trace
from dtnmetrics.rwp_gen import build_tracks, positions_at


def small_params(**overrides) -> RwpParams:
    defaults = dict(
        node_count=8,
        duration=400.0,
        range=150.0,
        area_width=500.0,
        area_height=500.0,
        speed_min=1.0,
        speed_max=3.0,
        pause_max=20.0,
        seed=3,
        tick=0.5,
    )
    defaults.update(overrides)
    return RwpParams(**defaults)


class TestRwpParams:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"node_count": 1},
            {"duration": 0},
            {"range": 0},
            {"speed_min": 0},
            {"speed_min": 3.0, "speed_max": 1.0},
            {"pause_max": -1},
            {"tick": 0},
            {"area_width": 0},
        ],
    )
    def test_invalid_params_rejected(self, overrides):
        with pytest.raises(ValueError):
            small_params(**overrides)

    @pytest.mark.parametrize(
        "overrides",
        [{"seed": -1}] + [{key: float("inf")} for key in
                          ("duration", "speed_max", "pause_max", "tick", "area_width", "area_height")],
    )
    def test_infinite_sizes_and_negative_seed_rejected(self, overrides):
        with pytest.raises(ValueError):
            small_params(**overrides)


class TestTracks:
    def test_tracks_cover_duration(self):
        p = small_params()
        for t_arr, _, _ in build_tracks(p):
            assert t_arr[-1] >= p.duration
            assert np.all(np.diff(t_arr) > 0)

    def test_positions_stay_in_area(self):
        p = small_params()
        tracks = build_tracks(p)
        times = np.linspace(0, p.duration, 200)
        pos = positions_at(tracks, times)
        assert np.all(pos[..., 0] >= 0) and np.all(pos[..., 0] <= p.area_width)
        assert np.all(pos[..., 1] >= 0) and np.all(pos[..., 1] <= p.area_height)


class TestGenerate:
    def test_deterministic_per_seed(self):
        a = generate(small_params())
        b = generate(small_params())
        assert a.events == b.events

    def test_seed_changes_output(self):
        a = generate(small_params())
        b = generate(small_params(seed=4))
        assert a.events != b.events

    def test_trace_is_valid(self):
        trace = generate(small_params())
        assert validate_trace(trace) == []

    def test_all_nodes_in_node_set(self):
        p = small_params()
        trace = generate(p)
        assert trace.nodes == frozenset(range(p.node_count))
        assert (trace.span_min, trace.span_max) == (0.0, p.duration)

    def test_events_match_tick_positions(self):
        # every contact must open in range and close out of range
        p = small_params()
        trace = generate(p)
        assert trace.events  # dense params: contacts must exist
        tracks = build_tracks(p)
        for ev in trace.events[:50]:
            start_pos = positions_at(tracks, np.array([ev.start]))[0]
            d = np.hypot(*(start_pos[ev.a] - start_pos[ev.b]))
            assert d <= p.range + 1e-6
            if ev.end < p.duration:  # truncated contacts may still be in range
                end_pos = positions_at(tracks, np.array([ev.end]))[0]
                d = np.hypot(*(end_pos[ev.a] - end_pos[ev.b]))
                assert d > p.range - 1e-6

    def test_per_pair_intervals_disjoint(self):
        trace = generate(small_params())
        by_pair = {}
        for ev in trace.events:
            by_pair.setdefault(ev.pair, []).append(ev)
        for evs in by_pair.values():
            evs.sort(key=lambda e: e.start)
            for prev, nxt in zip(evs, evs[1:]):
                assert prev.end < nxt.start
