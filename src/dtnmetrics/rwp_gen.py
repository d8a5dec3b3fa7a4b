"""Synthetic contact traces from random-waypoint mobility.

Nodes pick uniform destinations in a rectangle, travel at a uniform
speed, pause, and repeat. Positions are sampled on a fixed tick; a
contact opens when two nodes come within radio range at a tick and
closes at the first tick they are out of range again. The pseudo-random
source is numpy's seeded PCG64 generator, so a fixed seed reproduces
the exact event list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trace_model import ContactEvent, ContactTrace


@dataclass(frozen=True)
class RwpParams:
    node_count: int
    duration: float
    range: float = 100.0
    area_width: float = 1000.0
    area_height: float = 1000.0
    speed_min: float = 0.5
    speed_max: float = 1.5
    pause_max: float = 120.0
    seed: int = 0
    tick: float = 0.1

    def __post_init__(self):
        if self.node_count < 2:
            raise ValueError("node_count must be >= 2")
        if not self.duration > 0:
            raise ValueError("duration must be positive")
        if not self.range > 0:
            raise ValueError("range must be positive")
        if not 0 < self.speed_min <= self.speed_max:
            raise ValueError("need 0 < speed_min <= speed_max")
        if self.pause_max < 0:
            raise ValueError("pause_max must be >= 0")
        if not self.tick > 0:
            raise ValueError("tick must be positive")
        if self.area_width <= 0 or self.area_height <= 0:
            raise ValueError("area dimensions must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        sizes = [self.duration, self.speed_max, self.pause_max, self.tick,
                 self.area_width, self.area_height]
        if not np.isfinite(sizes).all():
            raise ValueError("duration, speed, pause, tick and area must be finite")


def _waypoint_track(rng: np.random.Generator, p: RwpParams):
    """Breakpoint arrays (t, x, y) for one node's piecewise-linear path."""
    times = [0.0]
    xs = [rng.uniform(0.0, p.area_width)]
    ys = [rng.uniform(0.0, p.area_height)]
    t = 0.0
    while t <= p.duration:
        dest_x = rng.uniform(0.0, p.area_width)
        dest_y = rng.uniform(0.0, p.area_height)
        speed = rng.uniform(p.speed_min, p.speed_max)
        dist = float(np.hypot(dest_x - xs[-1], dest_y - ys[-1]))
        t += max(dist / speed, 1e-9)
        times.append(t)
        xs.append(dest_x)
        ys.append(dest_y)
        pause = rng.uniform(0.0, p.pause_max) if p.pause_max > 0 else 0.0
        if pause > 0:
            t += pause
            times.append(t)
            xs.append(dest_x)
            ys.append(dest_y)
    return np.asarray(times), np.asarray(xs), np.asarray(ys)


def build_tracks(params: RwpParams) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per-node piecewise-linear trajectories, deterministic per seed."""
    rng = np.random.default_rng(params.seed)
    return [_waypoint_track(rng, params) for _ in range(params.node_count)]


def positions_at(
    tracks: list[tuple[np.ndarray, np.ndarray, np.ndarray]], times: np.ndarray
) -> np.ndarray:
    """Positions for the given times, shape (len(times), nodes, 2)."""
    pos = np.empty((len(times), len(tracks), 2))
    for node, (t_arr, x_arr, y_arr) in enumerate(tracks):
        pos[:, node, 0] = np.interp(times, t_arr, x_arr)
        pos[:, node, 1] = np.interp(times, t_arr, y_arr)
    return pos


_CHUNK_TICKS = 20000  # bounds position-buffer memory for long runs


def generate(params: RwpParams) -> ContactTrace:
    """Simulate and return the contact trace (deterministic per seed)."""
    tracks = build_tracks(params)
    n = params.node_count
    range_sq = params.range * params.range
    iu, ju = np.triu_indices(n, k=1)
    open_since: dict[tuple[int, int], float] = {}
    events: list[ContactEvent] = []
    decimals = max(0, int(round(-np.log10(params.tick)))) + 1
    prev_in = np.zeros(len(iu), dtype=bool)
    n_ticks = int(round(params.duration / params.tick)) + 1
    final_t = 0.0
    for chunk_start in range(0, n_ticks, _CHUNK_TICKS):
        idx = np.arange(chunk_start, min(chunk_start + _CHUNK_TICKS, n_ticks))
        tick_times = idx * params.tick
        pos = positions_at(tracks, tick_times)
        for k in range(len(idx)):
            t = round(float(tick_times[k]), decimals)
            diff = pos[k, iu] - pos[k, ju]
            in_range = (diff * diff).sum(axis=1) <= range_sq
            changed = np.nonzero(in_range != prev_in)[0]
            for c in changed:
                pair = (int(iu[c]), int(ju[c]))
                if in_range[c]:
                    open_since[pair] = t
                else:
                    start = open_since.pop(pair)
                    events.append(ContactEvent(pair[0], pair[1], start, t))
            prev_in = in_range
            final_t = t
    for pair, start in sorted(open_since.items()):
        if final_t > start:
            events.append(ContactEvent(pair[0], pair[1], start, final_t))
    return ContactTrace.from_events(
        events, extra_nodes=range(n), span=(0.0, params.duration)
    )
