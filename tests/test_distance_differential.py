"""Differential tests of the array-backed distances and betweenness
against the oracles.

The traces here exercise the window arithmetic that the generators in
``conftest`` and ``test_properties`` never produce: events that straddle
several windows, instants exactly on a window boundary (including
``t_max``), periods with ``t_min != 0`` and fractional window widths.
The aggregated static graph is checked against the distinct pairs of the
same traces with repeated rows, self-contact rows and isolated nodes added,
and its hops against a relaxation oracle; the sweep's journey hops against
a breadth-first search per window, and the whole sweep against the fixpoint
sweep on long sequences whose windows split into several components and on
sources that enter in different windows of one block, with the way back's
level step held to the way forward's.
Snapshot placement is also fuzzed with float-noise times against the
scalar placement loop, with node ids beyond float64 precision, and the
infection table against the forward build on raw occupancy arrays. The
window graphs are held to the ``np.split`` build on those sequences and on
empty-window cases. On sequences whose windows are all matchings, or mix
single contacts with larger components, the sweep's closed-form hop is held
bit for bit to the dense kernel it replaced in matching windows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtnmetrics import temporal_metrics
from dtnmetrics import (
    AnalysisPeriod,
    ContactEvent,
    ContactTrace,
    SnapshotSequence,
    WindowConfig,
    aggregate,
    build_snapshots,
    shortest_journeys,
    temporal_betweenness_all,
    temporal_distance_exact,
    temporal_distance_matrix,
    temporal_distance_paper,
)

from . import oracles

T_MINS = (0.0, 3.5, -40.25, 1234.1)
WIDTHS = (0.1, 0.3, 2.5, 7.3, 10 / 3)
# Offsets inside a window, as fractions of w; 0 is the window's left edge.
OFFSETS = (0.0, 0.25, 0.5, 0.999)


@st.composite
def boundary_traces(draw, max_nodes=7, max_windows=6):
    """A trace, its period and window config, plus the windows each pair
    was placed in by construction."""
    t_min = draw(st.sampled_from(T_MINS))
    w = draw(st.sampled_from(WIDTHS))
    W = draw(st.integers(1, max_windows))
    n = draw(st.integers(2, max_nodes))
    events = []
    placed: list[set[tuple[int, int]]] = [set() for _ in range(W)]
    for _ in range(draw(st.integers(0, 2 * W + 2))):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1).filter(lambda x: x != a))
        k0 = draw(st.integers(0, W - 1))
        f0 = draw(st.sampled_from(OFFSETS))
        # k1 == W with offset 0 puts the end exactly on t_max
        k1 = draw(st.integers(k0, min(k0 + 2, W)))
        f1 = 0.0 if k1 == W else draw(st.sampled_from(OFFSETS))
        if k1 == k0 and f1 < f0:
            f1 = f0
        start = t_min + (k0 + f0) * w
        end = t_min + (k1 + f1) * w
        events.append(ContactEvent(a, b, start, end))
        for k in range(k0, min(k1, W - 1) + 1):
            placed[k].add((min(a, b), max(a, b)))
    period = AnalysisPeriod(t_min, t_min + W * w)
    trace = ContactTrace.from_events(
        events, extra_nodes=range(n), span=(period.t_min, period.t_max)
    )
    return trace, period, WindowConfig(w), placed


@settings(max_examples=150, deadline=None)
@given(boundary_traces())
def test_snapshots_place_events_in_intersected_windows(case):
    trace, period, cfg, placed = case
    snaps = build_snapshots(trace, period, cfg)
    assert [set(s.edges) for s in snaps.windows] == placed


@settings(max_examples=150, deadline=None)
@given(boundary_traces())
def test_matrix_matches_chain_oracle_entry_by_entry(case):
    trace, period, cfg, _ = case
    snaps = build_snapshots(trace, period, cfg)
    matrix = temporal_distance_matrix(snaps)
    for i in snaps.nodes:
        for j in snaps.nodes:
            want = oracles.paper_distance(snaps, i, j)
            assert matrix.distance(i, j) == want, (trace.events, i, j)


@settings(max_examples=100, deadline=None)
@given(boundary_traces())
def test_one_pair_distance_equals_matrix_entry(case):
    trace, period, cfg, _ = case
    snaps = build_snapshots(trace, period, cfg)
    matrix = temporal_distance_matrix(snaps)
    for i in snaps.nodes:
        for j in snaps.nodes:
            assert temporal_distance_paper(snaps, i, j) == matrix.distance(i, j)


@settings(max_examples=60, deadline=None)
@given(boundary_traces(max_nodes=6, max_windows=5), st.sampled_from((None, 1, 2)))
def test_exact_distance_matches_journey_oracle(case, horizon):
    trace, period, cfg, _ = case
    snaps = build_snapshots(trace, period, cfg)
    hcfg = WindowConfig(cfg.w, horizon=horizon)
    for i in snaps.nodes:
        for j in snaps.nodes:
            got = temporal_distance_exact(trace, period, hcfg, i, j, snaps)
            want = oracles.exact_distance(snaps, i, j, horizon)
            assert got == want, (trace.events, horizon, i, j)


@settings(max_examples=60, deadline=None)
@given(boundary_traces(), boundary_traces())
def test_interleaved_sequences_keep_their_own_answers(first, second):
    seqs = [build_snapshots(trace, period, cfg) for trace, period, cfg, _ in (first, second)]
    want = [
        {(i, j): oracles.paper_distance(s, i, j) for i in s.nodes for j in s.nodes}
        for s in seqs
    ]
    # alternate between the two sequences on every call
    pairs = [sorted(w) for w in want]
    for k in range(max(len(p) for p in pairs)):
        for seq, p, expected in zip(seqs, pairs, want):
            if k < len(p):
                i, j = p[k]
                assert temporal_distance_paper(seq, i, j) == expected[(i, j)]


@st.composite
def occupancy_sequences(draw, max_nodes=7, max_windows=7):
    """A sequence drawn as a raw W x N occupancy array: full or random, with
    empty windows, nodes that never occur and a node occurring only in the
    last window. Each window's occupants are joined by a path of contacts;
    a lone occupant gets node 0 or 1 as a partner, since a contact has two
    ends."""
    W = draw(st.integers(1, max_windows))
    n = draw(st.integers(2, max_nodes))
    occ = np.ones((W, n), dtype=bool)
    if draw(st.booleans()):
        cells = draw(st.lists(st.booleans(), min_size=W * n, max_size=W * n))
        occ[:] = np.reshape(cells, (W, n))
        occ[draw(st.lists(st.integers(0, W - 1), max_size=W))] = False
        occ[:, draw(st.lists(st.integers(0, n - 1), max_size=2))] = False
    if n > 2 and draw(st.booleans()):
        occ[:, -1] = False
        occ[-1, -1] = True
    rows = []
    for t, members in enumerate(occ):
        cols = np.flatnonzero(members).tolist()
        if len(cols) == 1:
            cols = sorted({cols[0], 1 if cols[0] == 0 else 0})
        rows.extend((t, a, b) for a, b in zip(cols, cols[1:]))
    contacts = np.array(rows, dtype=np.intp).reshape(-1, 3)
    return SnapshotSequence(1.0, W, contacts, tuple(range(n)))


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(boundary_traces().map(lambda c: build_snapshots(*c[:3])), occupancy_sequences())
)
def test_infection_table_and_matrix_match_the_oracles(snaps):
    H = snaps.infection_table
    assert H.dtype == np.int64
    assert np.array_equal(H, oracles.infection_table(snaps)), snaps.contacts.tolist()
    matrix = temporal_distance_matrix(snaps)
    for i in snaps.nodes:
        for j in snaps.nodes:
            want = oracles.paper_distance(snaps, i, j)
            assert matrix.distance(i, j) == want, (snaps.contacts.tolist(), i, j)


@settings(max_examples=200, deadline=None)
@given(occupancy_sequences(max_nodes=16, max_windows=60))
def test_infection_table_matches_the_forward_build_on_long_sequences(snaps):
    assert np.array_equal(snaps.infection_table, oracles.infection_table(snaps))


@st.composite
def betweenness_traces(draw):
    """A boundary trace plus, on demand, a node whose first occurrence is
    the last window and up to two nodes that never occur in the period."""
    trace, period, cfg, _ = draw(boundary_traces(max_nodes=6, max_windows=5))
    n = len(trace.nodes)
    events = list(trace.events)
    if draw(st.booleans()):
        at = period.t_max - draw(st.sampled_from(OFFSETS[1:])) * cfg.w
        events.append(ContactEvent(n, draw(st.integers(0, n - 1)), at, at))
    idle = draw(st.integers(0, 2))
    trace = ContactTrace.from_events(
        events, extra_nodes=range(n + 1 + idle), span=(period.t_min, period.t_max)
    )
    return trace, period, cfg


def _scores(snaps):
    return {s.node: s.value for s in temporal_betweenness_all(snaps)}


@settings(max_examples=100, deadline=None)
@given(betweenness_traces())
def test_betweenness_matches_enumeration_oracle(case):
    trace, period, cfg = case
    snaps = build_snapshots(trace, period, cfg)
    got = _scores(snaps)
    want = oracles.betweenness(snaps)
    for node in snaps.nodes:
        assert got[node] == pytest.approx(want[node], abs=1e-9), (trace.events, node)


@settings(max_examples=60, deadline=None)
@given(betweenness_traces())
def test_betweenness_blocks_of_one_and_two_rows_agree(case):
    trace, period, cfg = case
    snaps = build_snapshots(trace, period, cfg)
    whole = _scores(snaps)
    widest = 2 * max(len(u) for _, u, _, _, _ in snaps.window_graphs)
    for budget in (1, 2 * widest):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(temporal_metrics, "_BLOCK_ELEMENTS", budget)
            blocked = _scores(snaps)
        for node in snaps.nodes:
            assert blocked[node] == pytest.approx(whole[node], rel=1e-12, abs=1e-15)


@settings(max_examples=80, deadline=None)
@given(betweenness_traces())
def test_journey_hops_match_the_oracle_in_any_blocks(case):
    trace, period, cfg = case
    snaps = build_snapshots(trace, period, cfg)
    want = oracles.journey_hops(snaps)
    widest = 2 * max(len(u) for _, u, _, _, _ in snaps.window_graphs)
    for budget in (temporal_metrics._BLOCK_ELEMENTS, 1, 2 * widest):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(temporal_metrics, "_BLOCK_ELEMENTS", budget)
            hops = shortest_journeys(snaps)[1]
        assert np.array_equal(hops, want), (trace.events, budget)


@st.composite
def split_window_sequences(draw):
    """A sequence of 40 to 64 windows over 6 to 14 nodes chained in one
    fixed order. Each window keeps about 90% of the chain, cuts it into one
    to four runs and wires each run mostly as a path along the chain. An
    uncut window carries a message far down the chain, one hop per node, so
    a later cut window often holds components whose occupants arrive with
    hop counts far apart (5 to 10 hops in about half the examples)."""
    n, W = draw(st.integers(6, 14)), draw(st.integers(40, 64))
    rnd = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chain = rnd.permutation(n)
    rows = set()
    for t in range(W):
        kept = chain[rnd.random(n) < 0.9]
        runs = 1 if rnd.random() < 0.2 or len(kept) < 2 else rnd.integers(1, 5)
        cuts = np.sort(rnd.choice(np.arange(1, len(kept)), min(runs, len(kept)) - 1, replace=False))
        for run in np.split(kept, cuts):
            for k in range(1, len(run)):
                other = run[k - 1] if rnd.random() < 0.9 else run[rnd.integers(0, k)]
                rows.add((t, min(run[k], other), max(run[k], other)))
    contacts = np.array(sorted(rows), dtype=np.intp).reshape(-1, 3)
    return SnapshotSequence(1.0, W, contacts, tuple(range(n)))


@settings(max_examples=60, deadline=None)
@given(split_window_sequences(), st.sampled_from((None, 1, 2)))
def test_level_sweep_matches_the_fixpoint_sweep(snaps, blocks):
    want_scores, want_hops = oracles.fixpoint_journeys(snaps)
    widest = 2 * max(len(u) for _, u, _, _, _ in snaps.window_graphs)
    with pytest.MonkeyPatch.context() as mp:
        if blocks is not None:
            mp.setattr(temporal_metrics, "_BLOCK_ELEMENTS", blocks * widest)
        scores, hops = shortest_journeys(snaps)
    assert np.array_equal(hops, want_hops), snaps.contacts.tolist()
    for got, want in zip(scores, want_scores):
        assert (got.value == 0.0) == (want == 0.0)
        assert got.value == pytest.approx(want, rel=1e-12, abs=0.0)


@settings(max_examples=200, deadline=None)
@given(st.one_of(split_window_sequences(), betweenness_traces().map(lambda c: build_snapshots(*c))))
def test_the_way_back_rederives_the_levels_of_the_way_forward(snaps):
    # The log keeps no top level and no arrivals: per logged window the way
    # back's _levels, on the post-window hops, gives the forward call's least
    # hops, and levels running 0..max in every reached (row, component).
    levels, block_credit = temporal_metrics._levels, temporal_metrics._block_credit
    calls, blocks = [], []

    def spy_levels(graph, h):
        calls.append((graph, levels(graph, h)))
        return calls[-1][1]

    def spy_block_credit(*args):
        credit = block_credit(*args)
        blocks.append(calls.copy())
        calls.clear()
        return credit

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(temporal_metrics, "_levels", spy_levels)
        mp.setattr(temporal_metrics, "_block_credit", spy_block_credit)
        shortest_journeys(snaps)
    assert not calls  # every call belongs to a block
    for block in blocks:
        half = len(block) // 2
        assert len(block) == 2 * half > 0
        for (graph, (_, _, base)), (back, (_, level, back_base)) in zip(
            block[:half], reversed(block[half:])
        ):
            assert back is graph
            assert np.array_equal(back_base, base), snaps.contacts.tolist()
            comp = graph[3]
            for r, row in enumerate(level):
                for k in np.unique(comp[base[r] < temporal_metrics._NO_HOPS]):
                    got = set(row[comp == k].tolist())
                    assert got == set(range(max(got) + 1)), snaps.contacts.tolist()


def test_sweep_with_no_target_logs_its_first_window():
    # one occurring column, so no (row, target) state is pending from the start
    snaps = SnapshotSequence(1.0, 1, np.array([[0, 0, 0]]), (0, 1))
    want_scores, want_hops = oracles.fixpoint_journeys(snaps)
    scores, hops = shortest_journeys(snaps)
    assert [s.value for s in scores] == want_scores == [0.0, 0.0]
    assert np.array_equal(hops, want_hops) and hops.tolist() == [[0, -1], [-1, 0]]


# Sources 0 and 1 first occur in window 0, 2 to 4 in window 2 and 5 in
# window 4; window 3 is empty and node 6 never occurs.
STAGGERED = SnapshotSequence(1.0, 6, np.array(
    [[0, 0, 1], [2, 1, 2], [2, 3, 4], [4, 2, 5], [4, 4, 5], [5, 0, 5]]), tuple(range(7)))


@pytest.mark.parametrize("budget", [1, temporal_metrics._BLOCK_ELEMENTS])
def test_sources_entering_in_different_windows_match_the_fixpoint_sweep(budget):
    widest = 2 * max(len(u) for _, u, _, _, _ in STAGGERED.window_graphs)
    rows = max(1, budget // widest)  # sources per block
    assert rows == 1 or rows >= 6
    want_scores, want_hops = oracles.fixpoint_journeys(STAGGERED)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(temporal_metrics, "_BLOCK_ELEMENTS", budget)
        scores, hops = shortest_journeys(STAGGERED)
    assert np.array_equal(hops, want_hops)
    assert hops[0, 5] == 3 and hops[5, 0] == 1 and hops[6].tolist() == [-1] * 6 + [0]
    assert any(want_scores)
    assert [s.value for s in scores] == pytest.approx(want_scores, rel=1e-12, abs=0.0)


@st.composite
def static_traces(draw):
    """A boundary trace with some rows repeated, up to three self-contact
    rows and up to two nodes beyond the trace's that never occur."""
    trace, period, _, _ = draw(boundary_traces())
    n, events = len(trace.labels), list(trace.events)
    if events:
        events += draw(st.lists(st.sampled_from(events), max_size=4))
    loops = draw(st.lists(st.integers(0, n + 1), max_size=3))
    events += [ContactEvent(v, v, period.t_min, period.t_min) for v in loops]
    idle = range(n + 2, n + 2 + draw(st.integers(0, 2)))
    return ContactTrace.from_events(events, extra_nodes=[*trace.labels, *idle])


@settings(max_examples=150, deadline=None)
@given(static_traces())
def test_static_graph_is_the_distinct_pairs(trace):
    g = aggregate(trace)
    assert g.edges == oracles.static_edges(trace)
    assert g.window.nodes == trace.labels and g.window.window_count == 1
    t, a, b = g.window.contacts.T
    key = a * len(trace.labels) + b
    assert not t.any() and np.all(a <= b) and np.all(np.diff(key) > 0)


@settings(max_examples=150, deadline=None)
@given(static_traces())
def test_static_hops_match_the_relaxation_oracle(trace):
    g = aggregate(trace)
    assert np.array_equal(g.hops, oracles.hop_matrix(g.window)), trace.events


# Ids at and above 2**53, where neighbouring integers share one float64.
FLOAT_NOISE_IDS = (0, 1, 7, 2**53, 2**53 + 1, 2**64 + 1)
FINITE = dict(allow_nan=False, allow_infinity=False)


@st.composite
def float_noise_traces(draw):
    """A trace with arbitrary float times rather than window boundaries:
    events before, across and after the period, ``t_min != 0`` and
    fractional ``w``."""
    t_min = draw(st.floats(-1e6, 1e6, **FINITE))
    w = draw(st.floats(1e-3, 1e3, **FINITE))
    span = w * draw(st.floats(0.01, 6.0, **FINITE))
    ids = draw(st.lists(st.sampled_from(FLOAT_NOISE_IDS), min_size=2, max_size=5, unique=True))
    events = []
    for _ in range(draw(st.integers(0, 12))):
        a, b = draw(st.permutations(ids))[:2]
        start = t_min + w * draw(st.floats(-2.0, span / w + 2.0, **FINITE))
        end = start + w * draw(st.floats(0.0, 3.0, **FINITE))
        events.append(ContactEvent(a, b, start, end))
    trace = ContactTrace.from_events(events, extra_nodes=ids)
    return trace, AnalysisPeriod(t_min, t_min + span), WindowConfig(w)


@settings(max_examples=300, deadline=None)
@given(float_noise_traces())
def test_placement_matches_scalar_loop_on_float_noise(case):
    trace, period, cfg = case
    seq = build_snapshots(trace, period, cfg)
    view = [set(s.edges) for s in seq.windows]
    assert view == oracles.placed_edges(trace, period, cfg.w)
    rows = [tuple(r) for r in seq.contacts.tolist()]
    assert rows == sorted(set(rows)) and all(a < b for _, a, b in rows)
    nodes = seq.nodes
    assert nodes == tuple(sorted(trace.nodes))
    for t, edges in enumerate(view):
        occupants = {n for pair in edges for n in pair}
        assert seq.windows[t].occupants == occupants
        assert {nodes[c] for c in np.flatnonzero(seq.occupancy[t])} == occupants
        cols, u, v, comp, firsts = seq.window_graphs[t]
        parts = sorted(sorted(p) for p in oracles.components(edges))
        assert [nodes[c] for c in cols] == [x for p in parts for x in p]
        assert len(u) == len(v) == len(edges)
        assert {(nodes[cols[x]], nodes[cols[y]]) for x, y in zip(u, v)} == edges
        assert np.array_equal(comp[u], comp[v])
        assert comp.tolist() == [c for c, p in enumerate(parts) for _ in p]
        assert firsts.tolist() == np.searchsorted(comp, np.arange(len(parts))).tolist()


def _assert_split_graphs(snaps):
    got, want = snaps.window_graphs, oracles.split_window_graphs(snaps)
    assert len(got) == len(want) == snaps.window_count
    for t, (arrays, expected) in enumerate(zip(got, want)):
        for x, y in zip(arrays, expected, strict=True):
            assert x.dtype == y.dtype == np.intp, (t, snaps.contacts.tolist())
            assert np.array_equal(x, y), (t, snaps.contacts.tolist())


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    split_window_sequences(),
    float_noise_traces().map(lambda c: build_snapshots(*c)),
    occupancy_sequences(max_nodes=16, max_windows=60),
))
def test_window_graphs_equal_the_split_build(snaps):
    _assert_split_graphs(snaps)


NO_CONTACTS = np.empty((0, 3), dtype=np.intp)


@pytest.mark.parametrize("snaps", [
    SnapshotSequence(1.0, 1, NO_CONTACTS, (0, 1, 2)),
    SnapshotSequence(1.0, 4, NO_CONTACTS, (0, 1, 2)),
    # empty windows 0, 1, 3 and 5 around two edged ones
    SnapshotSequence(1.0, 6, np.array([[2, 0, 1], [2, 2, 3], [4, 1, 2]]), tuple(range(4))),
    aggregate(ContactTrace.from_events(
        [ContactEvent(0, 1, 0, 1), ContactEvent(2, 3, 5, 6), ContactEvent(1, 4, 2, 2)],
        extra_nodes=[9])).window,
], ids=["one-window-no-contacts", "four-windows-no-contacts", "empty-ends", "aggregate"])
def test_window_graphs_equal_the_split_build_on_edge_cases(snaps):
    _assert_split_graphs(snaps)
    for cols, u, v, comp, firsts in snaps.window_graphs:
        assert len(u) == len(v) and len(cols) == len(comp)
        assert len(firsts) == (comp.max() + 1 if len(comp) else 0)


def test_no_contacts_give_zero_scores_and_no_journeys():
    snaps = SnapshotSequence(1.0, 3, NO_CONTACTS, (0, 1, 2, 3))
    scores, hops = shortest_journeys(snaps)
    assert [s.value for s in scores] == [0.0] * 4
    assert hops.tolist() == np.where(np.eye(4, dtype=bool), 0, -1).tolist()


def _sequence(n, W, rows):
    contacts = np.array(sorted(rows), dtype=np.intp).reshape(-1, 3)
    return SnapshotSequence(1.0, W, contacts, tuple(range(n)))


@st.composite
def matching_sequences(draw, max_nodes=12, max_windows=30):
    """Every window a random matching: disjoint pairs of a shuffled node set,
    from none to all of them."""
    n, W = draw(st.integers(2, max_nodes)), draw(st.integers(1, max_windows))
    rnd = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = set()
    for t in range(W):
        pairs = rnd.permutation(n)[: 2 * rnd.integers(0, n // 2 + 1)].reshape(-1, 2)
        rows.update((t, min(a, b), max(a, b)) for a, b in pairs.tolist())
    return _sequence(n, W, rows)


@st.composite
def mixed_component_sequences(draw, max_nodes=12, max_windows=30):
    """Windows that cut a shuffled node set into absent nodes, single
    contacts and random trees of 3 to 5 nodes (a cycle closed in some), so
    one-contact components sit next to larger ones."""
    n, W = draw(st.integers(3, max_nodes)), draw(st.integers(1, max_windows))
    rnd = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = set()
    for t in range(W):
        order, at = rnd.permutation(n), 0
        while at < n:
            size = int(rnd.choice([1, 2, 2, 3, 4, 5]))
            group = order[at : at + size].tolist()
            at += size
            edges = [(group[k], group[rnd.integers(0, k)]) for k in range(1, len(group))]
            if len(group) >= 3 and rnd.random() < 0.3:
                edges.append((group[0], group[-1]))
            rows.update((t, min(a, b), max(a, b)) for a, b in edges)
    return _sequence(n, W, rows)


def _sweep_and_dense_sweep(snaps):
    """``shortest_journeys`` as built and with the dense oracle kernel, and
    per ``_levels`` call of the first whether its window is a matching and
    whether it got no adjacency."""
    levels, calls = temporal_metrics._levels, []

    def spy_levels(graph, h):
        got = levels(graph, h)
        calls.append((2 * len(graph[1]) == len(graph[0]), got[0] is None))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(temporal_metrics, "_levels", spy_levels)
        got = shortest_journeys(snaps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(temporal_metrics, "_block_credit", oracles._block_credit)
        want = shortest_journeys(snaps)
    return got, want, calls


SWEEP_CASES = st.one_of(
    st.tuples(st.just("matching"), matching_sequences()),
    st.tuples(st.just("mixed"), mixed_component_sequences()),
    st.tuples(st.just("split"), split_window_sequences()),
    st.tuples(st.just("boundary"), betweenness_traces().map(lambda c: build_snapshots(*c))),
)


def test_closed_form_hop_matches_the_dense_kernel_bit_for_bit():
    settled = []  # windows the sweep settled with no adjacency, over all examples

    @settings(max_examples=200, deadline=None)
    @given(SWEEP_CASES)
    def check(case):
        kind, snaps = case
        (scores, hops), (want_scores, want_hops), calls = _sweep_and_dense_sweep(snaps)
        assert [s.node for s in scores] == [s.node for s in want_scores]
        assert [s.value.hex() for s in scores] == [s.value.hex() for s in want_scores], (
            snaps.contacts.tolist())
        assert np.array_equal(hops, want_hops)
        assert all(matching == none for matching, none in calls), snaps.contacts.tolist()
        if kind == "matching" and len(snaps.contacts):
            assert any(none for _, none in calls)  # every window is a matching
        settled.extend(none for _, none in calls if none)
        if len(snaps.nodes) <= 6 and snaps.window_count <= 8:
            want = oracles.betweenness(snaps)
            for s in scores:
                assert s.value == pytest.approx(want[s.node], abs=1e-9), snaps.contacts.tolist()

    check()
    assert settled

