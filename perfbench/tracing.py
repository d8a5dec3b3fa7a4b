"""Spans and counts recorded from outside the program.

The tracer replaces public functions of the ``dtnmetrics`` modules with
wrappers that record a span per call: name, start, end, the enclosing span
and the run (session) id. Spans stay in memory; the session hands them to
the benchmark, which writes them out when it ends. Counts are taken from
each call's arguments and result after the span has closed, so computing
them is tracing overhead rather than layer time.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run: int):
        self.run = run
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``count(counts, args, result)`` runs after the span closes.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else None
            span = Span(name, time.perf_counter(), 0.0, parent, tracer.run)
            tracer.spans.append(span)
            tracer._open.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()
            if count is not None:
                count(tracer.counts, args, result)
            return result

        setattr(owner, attr, traced)


def _rows(text) -> int:
    lines = [line for line in text.splitlines() if line.strip()]
    if lines and not _numeric(lines[0].split()[0]):
        return len(lines) - 1
    return len(lines)


def _numeric(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _count_parse(counts, args, trace):
    counts["ingestion.rows"] += _rows(args[0])
    counts["ingestion.events"] += len(trace.events)


def _count_merge(counts, args, merged):
    counts["ingestion.overlaps_merged"] += len(args[0]) - len(merged)


def _count_clip(counts, args, clipped):
    counts["ingestion.events_in_periods"] += len(clipped.events)


def _count_snapshots(counts, args, seq):
    counts["windowing.nodes"] += len(seq.nodes)
    counts["windowing.windows"] += seq.window_count
    counts["windowing.window_edges"] += sum(len(s.edges) for s in seq.windows)
    counts["windowing.occupants"] += sum(len(s.occupants) for s in seq.windows)
    counts["windowing.empty_windows"] += sum(1 for s in seq.windows if not s.edges)


def _count_matrix(counts, args, matrix):
    n = matrix.n
    entries = matrix.entries
    off = entries[~np.eye(n, dtype=bool)]
    counts["temporal_metrics.pairs"] += off.size
    counts["temporal_metrics.pair_windows"] += off.size * args[0].window_count
    counts["temporal_metrics.reachable_pairs"] += int((off >= 0).sum())
    counts["temporal_metrics.zero_distance_pairs"] += int((off == 0).sum())
    hops = int(off.max()) if off.size else 0
    counts["temporal_metrics.diameter_hops"] = max(
        counts["temporal_metrics.diameter_hops"], hops
    )


def _count_aggregate(counts, args, graph):
    counts["static_metrics.edges"] += len(graph.edges)


def _count_generate(counts, args, trace):
    p = args[0]
    ticks = int(round(p.duration / p.tick)) + 1
    counts["rwp_gen.ticks"] += ticks
    counts["rwp_gen.tick_pairs"] += ticks * p.node_count * (p.node_count - 1) // 2
    counts["rwp_gen.events"] += len(trace.events)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every ``dtnmetrics`` module.

    Functions are replaced on their module, so calls through the module
    attribute or the module's own globals both reach the wrapper.
    """
    from dtnmetrics import (
        cli,
        ingestion,
        rwp_gen,
        static_metrics,
        temporal_metrics,
        windowing,
    )

    wrap = tracer.wrap
    wrap(cli, "main", "cli.command")
    wrap(cli, "_load_trace", "cli.read")
    wrap(cli, "format_reports", "cli.render")
    wrap(cli, "_write_output", "cli.render")
    wrap(temporal_metrics.TemporalDistanceMatrix, "to_text", "cli.render")
    wrap(ingestion, "parse_common_format", "ingestion.parse", _count_parse)
    wrap(ingestion, "parse_one_report", "ingestion.parse", _count_parse)
    wrap(ingestion, "_merge_pair_overlaps", "ingestion.merge", _count_merge)
    wrap(ingestion, "clip_to_period", "ingestion.clip", _count_clip)
    wrap(ingestion, "write_common_format", "ingestion.write")
    wrap(ingestion, "write_one_report", "ingestion.write")
    wrap(windowing, "pair_aggregates", "windowing.aggregates")
    wrap(windowing, "build_snapshots", "windowing.snapshots", _count_snapshots)
    wrap(temporal_metrics, "temporal_distance_matrix", "temporal_metrics.matrix", _count_matrix)
    wrap(temporal_metrics, "temporal_betweenness_all", "temporal_metrics.betweenness")
    for name in (
        "average_temporal_distance",
        "temporal_diameter",
        "reachable_pair_count",
        "temporal_closeness_all",
    ):
        wrap(temporal_metrics, name, "temporal_metrics.summary")
    wrap(static_metrics, "aggregate", "static_metrics.aggregate", _count_aggregate)
    for name in ("static_average_distance", "static_diameter"):
        wrap(static_metrics, name, "static_metrics.paths")
    for name in (
        "degree_centrality_all",
        "closeness_centrality_all",
        "betweenness_centrality_all",
    ):
        wrap(static_metrics, name, "static_metrics.centrality")
    wrap(rwp_gen, "generate", "rwp_gen.generate", _count_generate)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: total duration minus the time its children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.duration
    out: dict[str, float] = defaultdict(float)
    for span, covered in zip(spans, child):
        out[span.name] += span.duration - covered
    return dict(out)


def totals(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        out[span.name] += span.duration
    return dict(out)


# Unit of every per-layer metric: those layer_metrics returns, then the
# tracing overhead, which the benchmark takes from untraced sessions.
UNITS = {
    "ingestion.parse_s": "s",
    "ingestion.parse_us_per_row": "us",
    "ingestion.clip_s": "s",
    "ingestion.write_s": "s",
    "ingestion.rows": "count",
    "ingestion.events": "count",
    "ingestion.overlaps_merged": "count",
    "ingestion.events_in_periods": "count",
    "windowing.aggregates_s": "s",
    "windowing.snapshots_s": "s",
    "windowing.nodes": "count",
    "windowing.windows": "count",
    "windowing.window_edges": "count",
    "windowing.occupancy_mean": "nodes",
    "windowing.empty_windows": "count",
    "temporal_metrics.matrix_s": "s",
    "temporal_metrics.matrix_ns_per_pair_window": "ns",
    "temporal_metrics.betweenness_s": "s",
    "temporal_metrics.summary_s": "s",
    "temporal_metrics.reachable_pairs": "count",
    "temporal_metrics.zero_distance_share": "ratio",
    "temporal_metrics.diameter_hops": "hops",
    "static_metrics.aggregate_s": "s",
    "static_metrics.paths_s": "s",
    "static_metrics.centrality_s": "s",
    "static_metrics.edges": "count",
    "rwp_gen.generate_s": "s",
    "rwp_gen.ns_per_tick_pair": "ns",
    "rwp_gen.ticks": "count",
    "rwp_gen.events": "count",
    "cli.read_s": "s",
    "cli.render_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[Span], counts: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one traced session, as BENCHMARK.json names them."""
    t = defaultdict(float, totals(spans))
    own = self_times(spans)
    c = defaultdict(float, counts)
    rows = c["ingestion.rows"]
    windows = c["windowing.windows"]
    return {
        "ingestion.parse_s": t["ingestion.parse"],
        "ingestion.parse_us_per_row": 1e6 * t["ingestion.parse"] / rows if rows else 0.0,
        "ingestion.clip_s": t["ingestion.clip"],
        "ingestion.write_s": t["ingestion.write"],
        "ingestion.rows": rows,
        "ingestion.events": c["ingestion.events"],
        "ingestion.overlaps_merged": c["ingestion.overlaps_merged"],
        "ingestion.events_in_periods": c["ingestion.events_in_periods"],
        "windowing.aggregates_s": t["windowing.aggregates"],
        "windowing.snapshots_s": t["windowing.snapshots"],
        "windowing.nodes": c["windowing.nodes"],
        "windowing.windows": windows,
        "windowing.window_edges": c["windowing.window_edges"],
        "windowing.occupancy_mean": c["windowing.occupants"] / windows if windows else 0.0,
        "windowing.empty_windows": c["windowing.empty_windows"],
        "temporal_metrics.matrix_s": t["temporal_metrics.matrix"],
        "temporal_metrics.matrix_ns_per_pair_window": (
            1e9 * t["temporal_metrics.matrix"] / c["temporal_metrics.pair_windows"]
            if c["temporal_metrics.pair_windows"]
            else 0.0
        ),
        "temporal_metrics.betweenness_s": t["temporal_metrics.betweenness"],
        "temporal_metrics.summary_s": t["temporal_metrics.summary"],
        "temporal_metrics.reachable_pairs": c["temporal_metrics.reachable_pairs"],
        "temporal_metrics.zero_distance_share": (
            c["temporal_metrics.zero_distance_pairs"] / c["temporal_metrics.pairs"]
            if c["temporal_metrics.pairs"]
            else 0.0
        ),
        "temporal_metrics.diameter_hops": c["temporal_metrics.diameter_hops"],
        "static_metrics.aggregate_s": t["static_metrics.aggregate"],
        "static_metrics.paths_s": t["static_metrics.paths"],
        "static_metrics.centrality_s": t["static_metrics.centrality"],
        "static_metrics.edges": c["static_metrics.edges"],
        "rwp_gen.generate_s": t["rwp_gen.generate"],
        "rwp_gen.ns_per_tick_pair": (
            1e9 * t["rwp_gen.generate"] / c["rwp_gen.tick_pairs"]
            if c["rwp_gen.tick_pairs"]
            else 0.0
        ),
        "rwp_gen.ticks": c["rwp_gen.ticks"],
        "rwp_gen.events": c["rwp_gen.events"],
        "cli.read_s": own.get("cli.read", 0.0),
        "cli.render_s": t["cli.render"],
        "cli.self_s": own.get("cli.command", 0.0),
    }


def medians(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
