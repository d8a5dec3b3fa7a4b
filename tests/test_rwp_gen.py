import hashlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtnmetrics import RwpParams, generate, rwp_gen
from dtnmetrics.cli import EXIT_USAGE, main
from dtnmetrics.rwp_gen import build_tracks, positions_at

from . import oracles
from .oracles import validate_trace


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


def assert_tracks_equal(got, want):
    assert len(got) == len(want)
    for node_got, node_want in zip(got, want):
        for a, b in zip(node_got, node_want):  # t, x, y
            assert a.dtype == b.dtype and np.array_equal(a, b)


@st.composite
def track_cases(draw):
    """Track parameters and a batch size. A 1 m area crossed at 1e10 m/s
    makes every leg take the 1e-9 s floor; a duration scaled down to 1e-12
    of a leg's travel time ends inside the first leg."""
    area = draw(st.sampled_from((1.0, 60.0, 1000.0)))
    speed_max = draw(st.sampled_from((0.5, 20.0, 1e10)))
    travel = max(area / speed_max, 1e-9)
    params = RwpParams(
        node_count=draw(st.integers(2, 4)),
        duration=travel * draw(st.sampled_from((1e-12, 0.5, 3.0, 40.0))) * draw(st.floats(0.5, 2.0)),
        area_width=area,
        area_height=draw(st.sampled_from((area, 1.0))),
        speed_min=draw(st.sampled_from((speed_max, speed_max / 3))),
        speed_max=speed_max,
        pause_max=draw(st.sampled_from((0.0, 1e-3, travel, 120.0))),
        seed=draw(st.integers(0, 2**32)),
    )
    return params, draw(st.integers(1, 40))


class TestTracks:
    @settings(max_examples=200, deadline=None)
    @given(track_cases())
    def test_matches_per_leg_oracle(self, case):
        params, batch = case
        with mock.patch.object(rwp_gen, "_LEGS_PER_DRAW", batch):
            assert_tracks_equal(build_tracks(params), oracles.waypoint_tracks(params))

    @pytest.mark.parametrize("pause_max", [0.0, 20.0])
    def test_leg_count_a_multiple_of_the_batch(self, pause_max):
        p = small_params(duration=6000.0, pause_max=pause_max)
        want = oracles.waypoint_tracks(p)
        _, x, y = want[0]  # node 0's legs: its moves to a new point
        legs = int(np.count_nonzero((np.diff(x) != 0) | (np.diff(y) != 0)))
        batches = [b for b in range(1, legs + 1) if legs % b == 0]
        assert len(batches) > 2
        for batch in batches:
            with mock.patch.object(rwp_gen, "_LEGS_PER_DRAW", batch):
                assert_tracks_equal(build_tracks(p), want)

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


@st.composite
def rwp_cases(draw):
    """Parameters for the chunked scan, its block size in elements and the
    legs drawn per batch, small enough that a run spans several chunks.

    An area of 1 with fast nodes flips contacts on consecutive ticks; a
    range of 1.5 x the area's side keeps every pair in range from tick 0
    to the end."""
    tick = draw(st.sampled_from((0.1, 0.25, 0.5, 1.0, 2.5)))
    area = draw(st.sampled_from((1.0, 60.0, 400.0)))
    fast = draw(st.booleans())
    speed_max = area * (0.6 if fast else 0.02) / tick
    params = RwpParams(
        node_count=draw(st.integers(2, 12)),
        duration=tick * (draw(st.integers(0, 240)) + draw(st.sampled_from((0.4, 0.999, 1.0)))),
        range=area * draw(st.sampled_from((0.15, 0.4, 1.5))),
        area_width=area,
        area_height=area,
        speed_min=speed_max / 3,
        speed_max=speed_max,
        pause_max=draw(st.sampled_from((0.0, 4 * tick))),
        seed=draw(st.integers(0, 2**32)),
        tick=tick,
    )
    return params, draw(st.integers(1, 300)), draw(st.integers(1, 40))


class TestBlockScan:
    @settings(max_examples=150, deadline=None)
    @given(rwp_cases())
    def test_matches_per_tick_oracle(self, case):
        params, block, batch = case
        with mock.patch.object(rwp_gen, "_BLOCK_ELEMENTS", block), \
                mock.patch.object(rwp_gen, "_LEGS_PER_DRAW", batch):
            got = generate(params).events
        assert got == oracles.rwp_events(params)

    def test_contacts_open_at_tick_zero_close_at_the_end(self):
        p = small_params(range=1000.0, duration=20.3)
        events = generate(p).events
        assert len(events) == 28
        assert all((ev.start, ev.end) == (0.0, 20.0) for ev in events)
        assert events == oracles.rwp_events(p)

    def test_default_block_size_matches_oracle(self):
        p = small_params(node_count=40, duration=6000.3, tick=1.0)
        assert p.tick_count > 3 * (rwp_gen._BLOCK_ELEMENTS // 39)  # ticks per chunk
        assert generate(p).events == oracles.rwp_events(p)


class TestTickCount:
    @pytest.mark.parametrize(
        "duration, tick, count",
        [(3000.0, 1.0, 3001), (400.0, 0.5, 801), (300.0, 0.5, 601), (4600.0, 1.0, 4601),
         (0.3, 0.1, 4), (10.6, 1.0, 11), (2999.6, 1.0, 3000), (0.8999999999, 0.3, 3)],
    )
    def test_ticks_up_to_duration(self, duration, tick, count):
        assert small_params(duration=duration, tick=tick).tick_count == count

    @pytest.mark.parametrize("duration", [10.6, 2999.6])
    def test_non_multiple_duration_has_no_outside_span_events(self, duration):
        p = RwpParams(node_count=20, duration=duration, range=100.0, area_width=60.0,
                      area_height=60.0, seed=1, tick=1.0)
        trace = generate(p)
        assert trace.events and validate_trace(trace) == []

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(0.01, 120.0),
        st.sampled_from((0.1, 0.123, 0.25, 0.3, 1.0, 2.5, 7.0)),
        st.integers(2, 10),
        st.integers(0, 2**32),
    )
    def test_events_end_by_duration(self, duration, tick, nodes, seed):
        p = RwpParams(node_count=nodes, duration=duration, range=30.0, area_width=60.0,
                      area_height=60.0, speed_min=2.0, speed_max=6.0, pause_max=3.0,
                      seed=seed, tick=tick)
        trace = generate(p)
        assert validate_trace(trace) == []
        assert all(ev.end <= duration for ev in trace.events)
        assert round((p.tick_count - 1) * tick, p.decimals) <= duration


class TestWorkBound:
    @pytest.mark.parametrize(
        "overrides",
        [{"node_count": 100_000}, {"node_count": 1449, "duration": 1.0},
         {"tick": 1e-9}, {"node_count": 98, "duration": 1e6, "tick": 1.0},
         {"duration": 1e300, "tick": 1e-300},
         {"node_count": 2, "duration": 10.0, "area_width": 1.0, "area_height": 1.0,
          "speed_min": 1e6, "speed_max": 1e6, "pause_max": 0.0, "tick": 1.0}],
    )
    def test_rejected_before_any_allocation(self, overrides):
        with mock.patch.object(rwp_gen, "build_tracks", side_effect=AssertionError), \
                pytest.raises(ValueError, match="too large"):
            generate(small_params(**overrides))

    @pytest.mark.parametrize(
        "overrides",
        [dict(node_count=98, duration=4600.0, tick=1.0),  # the scale test
         dict(node_count=60, duration=3000.0, tick=1.0),  # the benchmark
         dict(node_count=63, duration=3096.0, tick=0.1),  # the README example
         dict(node_count=1448, duration=1.0, tick=1.0),  # the most pairs
         dict(node_count=100, duration=30000.0, area_width=323.0, area_height=323.0,
              speed_min=0.5, speed_max=1.5, pause_max=120.0, tick=10.0)],  # the long trace
    )
    def test_sizes_in_use_are_admitted(self, overrides):
        small_params(**overrides)

    def test_cli_exits_two(self, capsys):
        with mock.patch.object(rwp_gen, "build_tracks", side_effect=AssertionError):
            assert main(["generate", "--nodes", "100000", "--duration", "10"]) == EXIT_USAGE
            assert main(["generate", "--nodes", "3", "--duration", "10",
                         "--tick", "1e-9"]) == EXIT_USAGE
            assert main(["generate", "--nodes", "3", "--duration", "10", "--tick", "1",
                         "--area-width", "1", "--area-height", "1", "--speed-min", "1e6",
                         "--speed-max", "1e6", "--pause-max", "0"]) == EXIT_USAGE
        assert "too large" in capsys.readouterr().err


# perfbench/run.py's generate command, less its seed, format and output.
BENCH_GENERATE = ["generate", "--nodes", "60", "--duration", "3000", "--area-width", "250",
                  "--area-height", "250", "--range", "40", "--tick", "1"]
BASELINE = Path(__file__).resolve().parents[1] / "perfbench" / "baseline.json"
# sha256 of that command's output where perfbench/baseline.json records none.
GENERATE_SHA256 = {
    (1, "common"): "95efe6cb4ec1fb8e0c2e97a0982656d2f350469405cc5bdfbdcf57b670401284",
    (2, "one"): "ed4d0396aaaa1b3dd37667db1909c5ad76e5501058f7bae738d71989e00d34a5",
    (2, "common"): "46a78b40d8a6894c34ea87a23f1275a7b23a02c32643f13396228e8702d192a8",
    (3, "one"): "61b7b60181b7b40244f026b10319c942df7360041918b3718d92e545097c8aa1",
    (3, "common"): "3a7c31778d1ae5fb7cbc287916b8c4a3ffcd3d81d48245f3758f9b4a9f3ccfd2",
}


@pytest.mark.parametrize("seed, fmt", [(1, "one"), *GENERATE_SHA256])
def test_generate_bytes_pinned(tmp_path, seed, fmt):
    out = tmp_path / f"rwp.{fmt}"
    assert main([*BENCH_GENERATE, "--seed", str(seed), "--format", fmt,
                 "--output", str(out)]) == 0
    if (seed, fmt) == (1, "one"):  # the fingerprint every benchmark run checks
        fingerprints = json.loads(BASELINE.read_text(encoding="utf-8"))["fingerprints"]
        want = fingerprints["synth-days"]["1"]["generate"]
    else:
        want = GENERATE_SHA256[seed, fmt]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


def test_benchmark_chain_bytes_pinned(tmp_path):
    # perfbench/run.py's synth-days convert and matrix on the seed-1 trace,
    # against the fingerprints every benchmark run checks
    one, common, matrix = (str(tmp_path / name) for name in ("rwp.one", "rwp.txt", "matrix.txt"))
    assert main([*BENCH_GENERATE, "--seed", "1", "--format", "one", "--output", one]) == 0
    assert main(["convert", "--input", one, "--from", "one", "--to", "common",
                 "--output", common]) == 0
    assert main(["matrix", "--input", common, "--tmin", "0", "--tmax", "3000", "--window", "60",
                 "--output", matrix]) == 0
    want = json.loads(BASELINE.read_text(encoding="utf-8"))["fingerprints"]["synth-days"]["1"]
    for command, path in (("convert", common), ("matrix", matrix)):
        assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == want[command], command
