"""Synthetic contact traces from random-waypoint mobility.

Nodes pick uniform destinations in a rectangle, travel at a uniform
speed, pause, and repeat. Positions are sampled on a fixed tick, at the
times ``k * tick <= duration``; a contact opens when two nodes come
within radio range at a tick and closes at the first tick they are out
of range again. The pseudo-random source is numpy's seeded PCG64
generator, so a fixed seed reproduces the exact event list.

Contacts are detected a block of ticks at a time: the squared distances
of every node pair at every tick of the block form one (ticks x pairs)
array, each row is compared with the row before it (the previous block's
last row is carried across the boundary), and one ``np.flatnonzero``
gives the (tick, pair) transitions. Grouping them by pair, in tick order,
then pairs them, since each pair alternates up, down, up, ...; an up
left open closes at the final tick. A block holds three float64 and two
boolean (ticks x pairs) buffers of at most ``_BLOCK_ELEMENTS`` elements
each, 1.7 MB in all, and positions are sampled for at most
``_CHUNK_ELEMENTS`` (tick, node) points at once, 8 MB.

``RwpParams`` rejects, before anything is allocated, a run of more than
``_MAX_TICK_PAIRS`` ticks x pairs or ``_MAX_PAIRS`` pairs, or one whose
paths may take more than ``_MAX_WAYPOINTS`` waypoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .trace_model import ContactTrace, group_cumsum, groups

# Bounds on the scan, checked before allocation: ticks x pairs sets the time
# (and the contacts a run can find), pairs alone the per-pair arrays and one
# block row. At the first bound the generate command took 10.6-11.5 s and
# 322-370 MB of RSS on a 2-CPU Xeon (98 nodes over 28,237 ticks, 665k
# contacts), and 16.3 s and 96 MB for 2 nodes over 1.3e8 ticks; at the
# second, 0.4 s and 80 MB (1,448 nodes over 2 ticks).
_MAX_TICK_PAIRS = 1 << 27
_MAX_PAIRS = 1 << 20
# Bound on the waypoints the paths may take, built one leg at a time in
# Python. A leg is on average at least a third of the area's longer side, so a
# node makes about 3 * duration * speed_max / side legs at most, each one
# waypoint (two with pauses). At the bound the generate command took 12.1 s and
# 122 MB of RSS on a 2-CPU Xeon (2 nodes at 1 m/s for 1.7e8 s in a 1000 x 1 m
# area: 1.05M waypoints).
_MAX_WAYPOINTS = 1 << 20
# Elements of one (ticks x pairs) block, and (tick, node) positions per chunk.
_BLOCK_ELEMENTS = 1 << 16
_CHUNK_ELEMENTS = 1 << 19


@dataclass(frozen=True)
class RwpParams:
    """Random-waypoint settings: metres, seconds and m/s; the one home of
    the defaults."""

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
        pairs = self.node_count * (self.node_count - 1) // 2
        if pairs > _MAX_PAIRS or (self.duration / self.tick + 1) * pairs > _MAX_TICK_PAIRS:
            raise ValueError(
                f"{self.node_count} nodes over {self.duration / self.tick:.2g} ticks is too"
                f" large: more than {_MAX_PAIRS:.1e} pairs or {_MAX_TICK_PAIRS:.1e} ticks x pairs"
            )
        legs = 3 * self.duration * self.speed_max / max(self.area_width, self.area_height)
        waypoints = self.node_count * (legs + 1) * (2 if self.pause_max > 0 else 1)
        if waypoints > _MAX_WAYPOINTS:
            raise ValueError(
                f"{self.node_count} nodes moving up to {self.speed_max:g} m/s for"
                f" {self.duration:g} s is too large: about {waypoints:.1e} waypoints,"
                f" more than {_MAX_WAYPOINTS:.1e}"
            )

    @property
    def decimals(self) -> int:
        """Decimal places event times are rounded to: one below the tick's."""
        return max(0, int(round(-np.log10(self.tick)))) + 1

    @property
    def tick_count(self) -> int:
        """Number of ticks k = 0, 1, ...: those with k * tick <= duration (1e-9
        ticks of slack absorb float error) whose time, rounded to
        ``decimals``, is at most duration."""
        count = math.floor(self.duration / self.tick + 1e-9) + 1
        if round((count - 1) * self.tick, self.decimals) > self.duration:
            count -= 1
        return count


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
    """Positions for the given times, shape (len(times), nodes, 2).

    Each coordinate is stored contiguously: ``pos[..., 0]`` is a C-ordered
    (times x nodes) view.
    """
    pos = np.empty((2, len(times), len(tracks))).transpose(1, 2, 0)
    for node, (t_arr, x_arr, y_arr) in enumerate(tracks):
        pos[:, node, 0] = np.interp(times, t_arr, x_arr)
        pos[:, node, 1] = np.interp(times, t_arr, y_arr)
    return pos


def _transitions(params: RwpParams, iu: np.ndarray, ju: np.ndarray):
    """Tick and pair index of every change of a pair's in-range flag, the
    flag being False before tick 0, in tick order."""
    tracks = build_tracks(params)
    n_ticks, range_sq = params.tick_count, params.range * params.range
    block = max(1, _BLOCK_ELEMENTS // len(iu))
    chunk = block * max(1, _CHUNK_ELEMENTS // (block * params.node_count))
    d2, dy, tmp = (np.empty((block, len(iu))) for _ in range(3))
    inside = np.zeros((block + 1, len(iu)), dtype=bool)  # row 0: the tick before
    changed = np.empty((block, len(iu)), dtype=bool)
    ticks, pairs = [], []
    for c0 in range(0, n_ticks, chunk):
        pos = positions_at(tracks, np.arange(c0, min(c0 + chunk, n_ticks)) * params.tick)
        for k0 in range(0, len(pos), block):
            rows = min(block, len(pos) - k0)
            x, y = pos[k0:k0 + rows, :, 0], pos[k0:k0 + rows, :, 1]
            d, e, f = d2[:rows], dy[:rows], tmp[:rows]
            # mode="clip" lets take write straight into out; iu and ju are in range.
            np.subtract(x.take(iu, 1, d, "clip"), x.take(ju, 1, f, "clip"), out=d)
            np.multiply(d, d, out=d)
            np.subtract(y.take(iu, 1, e, "clip"), y.take(ju, 1, f, "clip"), out=e)
            np.multiply(e, e, out=e)
            np.add(d, e, out=d)
            np.less_equal(d, range_sq, out=inside[1:rows + 1])
            np.not_equal(inside[1:rows + 1], inside[:rows], out=changed[:rows])
            t, p = np.divmod(np.flatnonzero(changed[:rows]), len(iu))
            ticks.append(t + (c0 + k0))
            pairs.append(p)
            inside[0] = inside[rows]
    return np.concatenate(ticks), np.concatenate(pairs)


def generate(params: RwpParams) -> ContactTrace:
    """Simulate and return the contact trace (deterministic per seed)."""
    iu, ju = np.triu_indices(params.node_count, k=1)
    tick, pair = _transitions(params, iu, ju)
    order, first = groups(pair, tick)
    tick, pair = tick[order], pair[order]
    # Each pair's transitions alternate up, down, ...: an up is the odd-numbered
    # transition of its pair, and the next one closes it.
    up = np.flatnonzero(group_cumsum(np.ones(len(pair), np.intp), first) % 2 == 1)
    nxt = np.minimum(up + 1, len(pair) - 1)
    closed = (up + 1 < len(pair)) & (pair[nxt] == pair[up])
    down_tick = np.where(closed, tick[nxt], params.tick_count - 1)
    a, b = iu[pair[up]], ju[pair[up]]
    start, end = ((t * params.tick).tolist() for t in (tick[up], down_tick))
    start, end = (np.array(list(map(round, t, repeat(params.decimals)))) for t in (start, end))
    keep = start < end  # a contact still open closes at the final tick, unless it opened there
    trace = ContactTrace(tuple(range(params.node_count)), a[keep], b[keep], start[keep],
                         end[keep], 0.0, float(params.duration))
    return trace._time_ordered()
