"""Synthetic contact traces from random-waypoint mobility.

Nodes pick uniform destinations in a rectangle, travel at a uniform
speed, pause, and repeat. Positions are sampled on a fixed tick, at the
times ``k * tick <= duration``; a contact opens when two nodes come
within radio range at a tick and closes at the first tick they are out
of range again. The pseudo-random source is numpy's seeded PCG64
generator, so a fixed seed reproduces the exact event list.

Each node's path is drawn ``_LEGS_PER_DRAW`` legs at a time, with the
same doubles, in the same order, as one leg at a time. Contacts are
detected a chunk of ticks at a time, node by node: node i's pairs
(i, j > i) at every tick of the chunk are the rows of ``x[i] - x[i+1:]``,
and each row's in-range flags are compared with the flag one tick before
(the previous chunk's last flag is carried across the boundary), so one
``np.flatnonzero`` per node gives the (tick, pair) transitions. Grouping
them by pair, in tick order, then pairs them, since each pair alternates
up, down, up, ...; an up left open closes at the final tick. A chunk
holds two float64 and two boolean (nodes - 1) x ticks buffers of about
``_BLOCK_ELEMENTS`` elements each, 1.1 MB in all, and the chunk's
positions, 1 to 2 MB. Event times are rounded once per distinct tick.

``RwpParams`` rejects, before anything is allocated, a run of more than
``_MAX_TICK_PAIRS`` ticks x pairs or ``_MAX_PAIRS`` pairs, one whose paths
may take more than ``_MAX_WAYPOINTS`` waypoints, and one whose squared
distances or first leg ending past duration may overflow a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .trace_model import ContactTrace, InputError, group_cumsum, groups

# Bounds on the scan, checked before allocation: ticks x pairs sets the time
# (and the contacts a run can find), pairs alone the per-pair arrays. At the
# first bound the generate command took 3.3-3.8 s and 234 MB of RSS on a 2-CPU
# Xeon (98 nodes over 28,237 ticks in a 100 m square at 13 m range, 927k
# contacts), and 5.5 s and 58 MB for 2 nodes over 1.3e8 ticks; at the second,
# 0.2 s and 59 MB (1,448 nodes over 2 ticks).
_MAX_TICK_PAIRS = 1 << 27
_MAX_PAIRS = 1 << 20
# Bound on the waypoints the paths may take. A leg is on average at least a
# third of the area's longer side, so a node makes about
# 3 * duration * speed_max / side legs at most, each one waypoint (two with
# pauses). Near the bound the generate command took 3.4 s and 95 MB of RSS on
# a 2-CPU Xeon (2 nodes at 1 m/s for 1.74e8 s in a 1000 x 1 m area at a 10 s
# tick: 1.04M waypoints).
_MAX_WAYPOINTS = 1 << 20
# Elements of one (nodes - 1) x ticks buffer of a chunk, and legs per batch of draws.
_BLOCK_ELEMENTS = 1 << 16
_LEGS_PER_DRAW = 32


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
            raise InputError("node_count must be >= 2")
        if not self.duration > 0:
            raise InputError("duration must be positive")
        if not self.range > 0:
            raise InputError("range must be positive")
        if not 0 < self.speed_min <= self.speed_max:
            raise InputError("need 0 < speed_min <= speed_max")
        if self.pause_max < 0:
            raise InputError("pause_max must be >= 0")
        if not self.tick > 0:
            raise InputError("tick must be positive")
        if self.area_width <= 0 or self.area_height <= 0:
            raise InputError("area dimensions must be positive")
        if self.seed < 0:
            raise InputError("seed must be >= 0")
        sizes = [self.duration, self.speed_max, self.pause_max, self.tick,
                 self.area_width, self.area_height]
        if not np.isfinite(sizes).all():
            raise InputError("duration, speed, pause, tick and area must be finite")
        pairs = self.node_count * (self.node_count - 1) // 2
        if pairs > _MAX_PAIRS or (self.duration / self.tick + 1) * pairs > _MAX_TICK_PAIRS:
            raise InputError(
                f"{self.node_count} nodes over {self.duration / self.tick:.2g} ticks is too"
                f" large: more than {_MAX_PAIRS:.1e} pairs or {_MAX_TICK_PAIRS:.1e} ticks x pairs"
            )
        legs = 3 * self.duration * self.speed_max / max(self.area_width, self.area_height)
        waypoints = self.node_count * (legs + 1) * (2 if self.pause_max > 0 else 1)
        if waypoints > _MAX_WAYPOINTS:
            raise InputError(
                f"{self.node_count} nodes moving up to {self.speed_max:g} m/s for"
                f" {self.duration:g} s is too large: about {waypoints:.1e} waypoints,"
                f" more than {_MAX_WAYPOINTS:.1e}"
            )
        area_sq = self.area_width * self.area_width + self.area_height * self.area_height
        leg = math.hypot(self.area_width, self.area_height) / self.speed_min + self.pause_max
        if not (math.isfinite(area_sq) and math.isfinite(self.duration + leg)):
            raise InputError("area, speed_min or pause_max out of range: a squared distance or"
                             " the end of a leg across the area may overflow a float")

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
    """Breakpoint arrays (t, x, y) for one node's piecewise-linear path.

    Legs are drawn ``_LEGS_PER_DRAW`` at a time, one row each of dest x,
    dest y, speed and, when ``pause_max > 0``, pause: the doubles a leg at a
    time would draw, in the same order. ``cumsum`` adds the travel and pause
    times in order, as ``t += ...`` does. The legs after the first whose
    pause ends past ``duration`` are dropped, and the generator is moved to
    just after that leg's draws, so the next node's draws are unchanged.
    """
    bits, batch = rng.bit_generator, _LEGS_PER_DRAW
    stride = 4 if p.pause_max > 0 else 3
    low = np.array([0.0, 0.0, p.speed_min, 0.0][:stride])
    scale = np.array([p.area_width, p.area_height, p.speed_max - p.speed_min,
                      p.pause_max][:stride])
    legs = np.empty((batch + 1, stride))  # row 0: the waypoint the batch starts from
    legs[-1, :2] = rng.random(2) * scale[:2]
    times, points = [np.zeros(1)], [legs[-1:, :2].copy()]
    t = 0.0
    while t <= p.duration:
        state = bits.state
        legs[0, :2] = legs[-1, :2]
        draw = legs[1:]
        # low + (high - low) * u, as rng.uniform computes it
        np.add(np.multiply(rng.random((batch, stride)), scale, out=draw), low, out=draw)
        move = draw[:, :2] - legs[:-1, :2]
        steps = draw[:, 2:]  # travel time, then pause
        np.maximum(np.hypot(move[:, 0], move[:, 1]) / draw[:, 2], 1e-9, out=steps[:, 0])
        steps[0, 0] += t
        with np.errstate(over="ignore"):  # ends that overflow follow the first past duration
            ends = np.cumsum(steps).reshape(batch, -1)
        over = np.flatnonzero(ends[:, -1] > p.duration)
        n = int(over[0]) + 1 if len(over) else batch
        keep = (steps[:n] > 0).ravel()  # a zero pause adds no point
        times.append(ends[:n].ravel()[keep])
        points.append(np.repeat(draw[:n, :2], stride - 2, axis=0)[keep])
        t = ends[n - 1, -1]
        if n < batch:
            bits.state = state
            bits.advance(n * stride)  # PCG64 takes one 64-bit output per double
    x, y = np.concatenate(points).T.copy()
    return np.concatenate(times), x, y


def build_tracks(params: RwpParams) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per-node piecewise-linear trajectories, deterministic per seed."""
    rng = np.random.default_rng(params.seed)
    return [_waypoint_track(rng, params) for _ in range(params.node_count)]


def positions_at(
    tracks: list[tuple[np.ndarray, np.ndarray, np.ndarray]], times: np.ndarray
) -> np.ndarray:
    """Positions for the given times, shape (len(times), nodes, 2).

    The array is the transposed view of a C-ordered (2, nodes, times) one:
    ``pos.T[0]`` holds the x of each node over the times contiguously.
    """
    pos = np.empty((2, len(tracks), len(times)))
    for node, (t_arr, x_arr, y_arr) in enumerate(tracks):
        pos[0, node] = np.interp(times, t_arr, x_arr)
        pos[1, node] = np.interp(times, t_arr, y_arr)
    return pos.T


def _transitions(params: RwpParams):
    """Tick and pair index of every change of a pair's in-range flag, the
    flag being False before tick 0, in no particular order."""
    tracks = build_tracks(params)
    n, n_ticks = params.node_count, params.tick_count
    range_sq = params.range * params.range
    chunk = max(1, _BLOCK_ELEMENTS // (n - 1))
    d2, dy, changed = (np.empty(chunk * (n - 1), dtype) for dtype in (float, float, bool))
    inside = np.empty((chunk + 1) * (n - 1), dtype=bool)
    last = np.zeros(n * (n - 1) // 2, dtype=bool)  # each pair's flag at the last tick seen
    ticks, pairs = [], []
    for c0 in range(0, n_ticks, chunk):
        rows = min(chunk, n_ticks - c0)
        x, y = positions_at(tracks, np.arange(c0, c0 + rows) * params.tick).T
        d2s, dys, flips = (buf[:(n - 1) * rows].reshape(n - 1, rows) for buf in (d2, dy, changed))
        nows = inside[:(n - 1) * (rows + 1)].reshape(n - 1, rows + 1)
        found, lo = [], 0
        for i in range(n - 1):
            # node i's pairs (i, j > i) are pairs lo..hi-1, in the rows of x[i] - x[i+1:]
            m = n - 1 - i
            hi = lo + m
            d, e, now, flip = d2s[:m], dys[:m], nows[:m], flips[:m]
            np.subtract(x[i], x[i + 1:], out=d)
            np.multiply(d, d, out=d)
            np.subtract(y[i], y[i + 1:], out=e)
            np.multiply(e, e, out=e)
            np.add(d, e, out=d)
            now[:, 0] = last[lo:hi]  # column 0: the tick before the chunk
            np.less_equal(d, range_sq, out=now[:, 1:])
            last[lo:hi] = now[:, rows]
            np.not_equal(now[:, 1:], now[:, :-1], out=flip)
            found.append(np.flatnonzero(flip) + lo * rows)
            lo = hi
        pair, tick = np.divmod(np.concatenate(found), rows)
        ticks.append(tick + c0)
        pairs.append(pair)
    return np.concatenate(ticks), np.concatenate(pairs)


def generate(params: RwpParams) -> ContactTrace:
    """Simulate and return the contact trace (deterministic per seed)."""
    iu, ju = np.triu_indices(params.node_count, k=1)
    tick, pair = _transitions(params)
    order, first = groups(pair, tick)
    tick, pair = tick[order], pair[order]
    # Each pair's transitions alternate up, down, ...: an up is the odd-numbered
    # transition of its pair, and the next one closes it.
    up = np.flatnonzero(group_cumsum(np.ones(len(pair), np.intp), first) % 2 == 1)
    nxt = np.minimum(up + 1, len(pair) - 1)
    closed = (up + 1 < len(pair)) & (pair[nxt] == pair[up])
    down_tick = np.where(closed, tick[nxt], params.tick_count - 1)
    a, b = iu[pair[up]], ju[pair[up]]
    # one round per distinct tick: far fewer than the event times
    at = np.concatenate((tick[up], down_tick))
    order, first = groups(at)
    rounded = list(map(round, (at[order[first]] * params.tick).tolist(),
                       repeat(params.decimals)))
    times = np.empty(len(at))
    times[order] = np.array(rounded)[np.cumsum(first) - 1]
    start, end = times[:len(up)], times[len(up):]
    keep = start < end  # a contact still open closes at the final tick, unless it opened there
    trace = ContactTrace(tuple(range(params.node_count)), a[keep], b[keep], start[keep],
                         end[keep], 0.0, float(params.duration))
    return trace._time_ordered()
