from __future__ import annotations

import random

import pytest

from dtnmetrics import (
    AnalysisPeriod,
    ContactEvent,
    ContactTrace,
    WindowConfig,
    build_snapshots,
)
from dtnmetrics import temporal_metrics

# Node ids for the six-node worked example: letters A..F map to 0..5.
A, B, C, D, E, F = range(6)


@pytest.fixture()
def six_node_trace() -> ContactTrace:
    """Six nodes, 900 s, three 300 s windows.

    Window 0 holds A-B, window 1 holds C-E and E-F, window 2 holds B-D
    and C-D. [PAPER] the resulting distance matrix is published verbatim.
    """
    events = [
        ContactEvent(A, B, 50, 60),
        ContactEvent(C, E, 350, 360),
        ContactEvent(E, F, 400, 410),
        ContactEvent(B, D, 650, 660),
        ContactEvent(C, D, 700, 710),
    ]
    return ContactTrace.from_events(events, span=(0, 900))


@pytest.fixture()
def six_node_snapshots(six_node_trace):
    return build_snapshots(
        six_node_trace, AnalysisPeriod(0, 900), WindowConfig(300)
    )


# [PAPER] published 6x6 matrix for the fixture above; -1 = unreachable.
SIX_NODE_MATRIX = [
    [0, 0, 2, 2, -1, -1],
    [0, 0, 2, 2, -1, -1],
    [-1, 1, 0, 1, 0, 0],
    [-1, 0, 0, 0, -1, -1],
    [-1, 1, 0, 1, 0, 0],
    [-1, 1, 0, 1, 0, 0],
]


# [PAPER] per-pair (total contact time, meeting count), both directions of
# the published directed table folded together; sums 20320 s over 82
# meetings, so the average meeting time is 20320/82 = 247.804... s.
MEETING_TABLE = [
    ((1, 2), 980, 4),
    ((1, 3), 1455, 6),
    ((1, 4), 715, 3),
    ((1, 5), 2260, 9),
    ((1, 6), 990, 4),
    ((2, 3), 1240, 5),
    ((2, 4), 1190, 5),
    ((2, 5), 1260, 5),
    ((2, 6), 1010, 4),
    ((3, 4), 1665, 7),
    ((3, 5), 1515, 6),
    ((3, 6), 500, 2),
    ((4, 5), 1225, 5),
    ((4, 6), 2000, 8),
    ((5, 6), 2315, 9),
]


def meeting_trace() -> ContactTrace:
    """Trace realizing MEETING_TABLE with sequential non-overlapping
    contacts; only totals and counts matter to the average, not placement."""
    events = []
    cursor = 0
    for (a, b), total, count in MEETING_TABLE:
        base = total // count
        for k in range(count):
            d = base if k < count - 1 else total - base * (count - 1)
            events.append(ContactEvent(a, b, cursor, cursor + d))
            cursor += d + 1
    return ContactTrace.from_events(events, span=(0, cursor))


# A short ONE-simulator connectivity report with reversed pair order on
# several down rows and six contacts left open at end of stream. [PAPER]
ONE_REPORT_TEXT = """\
0.1 CONN 22 9 up
0.1 CONN 39 14 up
0.1 CONN 21 16 up
0.1 CONN 36 0 up
0.1 CONN 38 57 up
0.1 CONN 27 10 up
22.2 CONN 21 16 down
31.8 CONN 13 60 up
56.4 CONN 0 36 down
75.9 CONN 39 14 down
80.5 CONN 21 16 up
83.6 CONN 9 22 down
93.3 CONN 13 60 down
139.2 CONN 24 50 up
159.3 CONN 17 54 up
192.5 CONN 62 35 up
202.5 CONN 27 10 down
214 CONN 29 16 up
216.3 CONN 57 38 down
227.2 CONN 23 58 up
233.3 CONN 17 45 up
234.1 CONN 50 24 down
"""

# [DERIVED] expected events after up/down pairing, pair canonicalization
# and truncation of the six unclosed ups at the last simulation time,
# sorted by (start, end, a, b).
ONE_REPORT_EVENTS = [
    ContactEvent(16, 21, 0.1, 22.2),
    ContactEvent(0, 36, 0.1, 56.4),
    ContactEvent(14, 39, 0.1, 75.9),
    ContactEvent(9, 22, 0.1, 83.6),
    ContactEvent(10, 27, 0.1, 202.5),
    ContactEvent(38, 57, 0.1, 216.3),
    ContactEvent(13, 60, 31.8, 93.3),
    ContactEvent(16, 21, 80.5, 234.1),
    ContactEvent(24, 50, 139.2, 234.1),
    ContactEvent(17, 54, 159.3, 234.1),
    ContactEvent(35, 62, 192.5, 234.1),
    ContactEvent(16, 29, 214.0, 234.1),
    ContactEvent(23, 58, 227.2, 234.1),
    ContactEvent(17, 45, 233.3, 234.1),
]


def star_trace(leaves: int, hub: int = 0) -> ContactTrace:
    """One-window star: the hub contacts each leaf once."""
    events = [
        ContactEvent(hub, leaf, 10 + leaf, 20 + leaf)
        for leaf in range(1, leaves + 1)
    ]
    return ContactTrace.from_events(events, span=(0, 100))


# Common-format rows whose journey counts overflow float64 within two hops
# once the sweep's adjacency is scaled (see overflowing_levels); analysed with
# window 1 over [0, 10].
OVERFLOW_ROWS = "0 1 0 1 1 0\n1 2 0 1 1 0\n2 3 5 6 1 0\n"


@pytest.fixture()
def overflowing_levels(monkeypatch):
    """Scale every window adjacency the journey sweep reads by 1e308."""
    levels = temporal_metrics._levels

    def scaled(graph, h):
        adj, level, base = levels(graph, h)
        return adj * 1e308, level, base

    monkeypatch.setattr(temporal_metrics, "_levels", scaled)


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(0xD7)


def random_trace(rnd: random.Random, *, max_nodes=8, max_windows=6, w=10.0):
    """Random small trace for property tests: per window, a random set of
    contact events fully inside that window."""
    n = rnd.randint(2, max_nodes)
    W = rnd.randint(1, max_windows)
    events = []
    for t in range(W):
        base = t * w
        k = rnd.randint(0, n)  # number of contacts in this window
        for _ in range(k):
            a, b = rnd.sample(range(n), 2)
            start = base + rnd.uniform(0.5, w - 2.0)
            end = min(start + rnd.uniform(0.1, 1.0), base + w - 0.5)
            events.append(ContactEvent(a, b, round(start, 3), round(end, 3)))
    span = (0.0, W * w)
    trace = ContactTrace.from_events(events, extra_nodes=range(n), span=span)
    return trace, AnalysisPeriod(*span), WindowConfig(w)


def connected_window_trace(rnd: random.Random, *, max_nodes=8, max_windows=6, w=10.0):
    """Random trace where every window's contact graph is connected over
    its occupants (a random spanning tree of the occupant set)."""
    n = rnd.randint(2, max_nodes)
    W = rnd.randint(1, max_windows)
    events = []
    for t in range(W):
        base = t * w
        size = rnd.randint(0, n)
        if size < 2:
            continue
        members = rnd.sample(range(n), size)
        for idx in range(1, len(members)):
            a = members[idx]
            b = rnd.choice(members[:idx])
            start = base + rnd.uniform(0.5, w - 2.0)
            end = min(start + rnd.uniform(0.1, 1.0), base + w - 0.5)
            events.append(ContactEvent(a, b, round(start, 3), round(end, 3)))
    span = (0.0, W * w)
    trace = ContactTrace.from_events(events, extra_nodes=range(n), span=span)
    return trace, AnalysisPeriod(*span), WindowConfig(w)
