"""Command-line interface: window sizing, analysis reports, matrices,
format conversion and synthetic trace generation.

Exit codes: 0 success, 1 internal error, 2 input/usage error: every check
of input, the library's included, raises ``InputError`` (a ValueError;
``ingestion.ParseError`` is one), which ``main`` alone turns into exit 2
and one ``error:`` line. ``generate`` rejects parameters whose squared
distances or leg times would overflow a float.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, dataclass, fields
from typing import get_type_hints

from . import ingestion, rwp_gen, static_metrics, temporal_metrics, windowing
from .trace_model import AnalysisPeriod, ContactTrace, InputError, WindowConfig

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
# Bound on windows^2 x nodes, checked before allocation. It bounds the W x N
# tables, but not the temporal betweenness sweep's log of rows x occupants per
# window. At the bound, on a 2-CPU Xeon, analyze took at most 5.3 s and 415 MB
# of RSS on a 100-node random-waypoint trace over 8,000 windows, and under 1 s
# on 10 x 25,298 and 2 x 56,568 full windows; but 164-168 s and 1,391 MB on a
# 100-node path whose 98 contacts span all 8,000 windows, one more node joining
# in the last: that node keeps the sweep going, so every window is logged, and
# each window walks up to 98 hop levels. Nor does it bound build_snapshots'
# contact-window rows, one per pair per window a contact spans.
_MAX_SCAN_WORK = 64 * 10**8


@dataclass(frozen=True)
class MetricsReport:
    """One analysis period's full row of computed metrics.

    The first thirteen fields mirror the evaluation table layout; the
    trailing fields add the reachable-pair count, the temporal diameter
    variant and the temporal centrality family.
    """

    dataset_name: str
    t_min: float
    t_max: float
    total_nodes: int
    total_connections: int
    total_timestamps: int
    time_window: float
    static_distance: float
    average_temporal_distance: float
    diameter: int
    top_degree: tuple[int, float]
    top_betweenness: tuple[int, float]
    top_closeness: tuple[int, float]
    reachable_pairs: int
    temporal_diameter_hops: int
    temporal_diameter_seconds: float
    top_temporal_closeness: tuple[int, float]
    top_temporal_betweenness: tuple[int, float]


def build_report(
    trace: ContactTrace,
    period: AnalysisPeriod,
    w: float | None = None,
    dataset_name: str = "trace",
) -> MetricsReport:
    """Run the full pipeline for one period and assemble the report row."""
    clipped, w, snapshots = _snapshots(trace, period, w)
    n = len(clipped.labels)
    if n < 2:
        raise InputError("analysis needs at least 2 nodes in the period")
    matrix = temporal_metrics.temporal_distance_matrix(snapshots)
    tdia = temporal_metrics.temporal_diameter(matrix, w)

    graph = static_metrics.aggregate(clipped)
    return MetricsReport(
        dataset_name=dataset_name,
        t_min=period.t_min,
        t_max=period.t_max,
        total_nodes=n,
        total_connections=len(clipped),
        total_timestamps=snapshots.window_count,
        time_window=w,
        static_distance=static_metrics.static_average_distance(graph),
        average_temporal_distance=temporal_metrics.average_temporal_distance(matrix, w),
        diameter=static_metrics.static_diameter(graph),
        top_degree=_top_cell(static_metrics.degree_centrality_all(graph)),
        top_betweenness=_top_cell(static_metrics.betweenness_centrality_all(graph)),
        top_closeness=_top_cell(static_metrics.closeness_centrality_all(graph)),
        reachable_pairs=temporal_metrics.reachable_pair_count(matrix),
        temporal_diameter_hops=tdia.hops,
        temporal_diameter_seconds=tdia.seconds,
        top_temporal_closeness=_top_cell(
            temporal_metrics.temporal_closeness_all(matrix, snapshots.window_count)
        ),
        top_temporal_betweenness=_top_cell(
            temporal_metrics.temporal_betweenness_all(snapshots)
        ),
    )


def _top_cell(scores: list[temporal_metrics.CentralityScore]) -> tuple[int, float]:
    """The (node, value) report cell of the top-ranked score."""
    top = min(scores, key=temporal_metrics.rank_key)
    return top.node, top.value


def _snapshots(trace: ContactTrace, period: AnalysisPeriod, w: float | None):
    """The trace clipped to the period, its window width (see _window_width)
    and its snapshots at that width."""
    clipped = ingestion.clip_to_period(trace, period)
    w = _window_width(clipped, period, w)
    return clipped, w, windowing.build_snapshots(clipped, period, WindowConfig(w=w))


def _window_width(clipped: ContactTrace, period: AnalysisPeriod, w: float | None) -> float:
    """``w``, or the recommended width when None; windows^2 x nodes at most
    ``_MAX_SCAN_WORK``, counting the windows that would be allocated."""
    if not len(clipped):
        raise InputError("no contacts in period")
    if w is None:
        w = windowing.recommend_window(windowing.pair_aggregates(clipped))
    windows, n = windowing.window_count(period, w), len(clipped.labels)
    if windows * windows * n > _MAX_SCAN_WORK:
        raise InputError(
            f"window {w:g} is too fine: {windows:.2g} windows for {n} nodes,"
            f" windows^2 x nodes over {_MAX_SCAN_WORK:.1e}"
        )
    return w


def _fmt_cell(value) -> str:
    if isinstance(value, tuple):
        return f"({value[0]}, {value[1]:.4g})"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def format_reports(reports: list[MetricsReport], style: str) -> str:
    """Render rows as an aligned table or a tab-delimited block."""
    names = [f.name for f in fields(MetricsReport)]
    rows = [names] + [[_fmt_cell(getattr(r, n)) for n in names] for r in reports]
    if style == "delimited":
        return "".join("\t".join(row) + "\n" for row in rows)
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "".join("  ".join(map(str.ljust, row, widths)) + "\n" for row in rows)


def _load_trace(path: str, fmt: str) -> ContactTrace:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    parse = ingestion.parse_one_report if fmt == "one" else ingestion.parse_common_format
    warnings: list[ingestion.ParseWarning] = []
    try:
        trace = parse(text, warnings)
    except ingestion.ParseError as exc:
        raise InputError(f"{path}: {exc}") from None
    if warnings:
        print(f"warning: {path}: {len(warnings)} parse warning(s)", file=sys.stderr)
        for w in warnings[:3]:
            print(f"warning: {path}: line {w.line}: {w.message}", file=sys.stderr)
    return trace


def _parse_period_flag(value: str) -> tuple[float, float]:
    try:
        lo, hi = value.split(":")
        return float(lo), float(hi)
    except ValueError:
        raise InputError(f"bad --period {value!r}, expected TMIN:TMAX") from None


def _resolve_periods(args, trace: ContactTrace) -> list[AnalysisPeriod]:
    if getattr(args, "period", None):
        if args.tmin is not None or args.tmax is not None:
            raise InputError("--period cannot be combined with --tmin or --tmax")
        return [AnalysisPeriod(*_parse_period_flag(p)) for p in args.period]
    lo = args.tmin if args.tmin is not None else trace.span_min
    hi = args.tmax if args.tmax is not None else trace.span_max
    return [AnalysisPeriod(lo, hi)]


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None
    with fh:
        fh.write(text)


def _write_trace(trace: ContactTrace, fmt: str, path: str | None) -> None:
    write = ingestion.write_one_report if fmt == "one" else ingestion.write_common_format
    _write_output(write(trace), path)


def cmd_window(args) -> int:
    trace = _load_trace(args.input, args.format)
    period = _resolve_periods(args, trace)[0]
    aggs = windowing.pair_aggregates(ingestion.clip_to_period(trace, period))
    avg, rec = windowing.average_meeting_time(aggs), windowing.recommend_window(aggs)
    count = windowing.window_count(period, rec)
    _write_output(f"avg={avg:.2f} recommended={rec:g} windows={count}\n", args.output)
    return EXIT_OK


def cmd_analyze(args) -> int:
    trace = _load_trace(args.input, args.format)
    reports = [build_report(trace, period, w=args.window, dataset_name=args.input)
               for period in _resolve_periods(args, trace)]
    _write_output(format_reports(reports, args.report_format), args.output)
    return EXIT_OK


def cmd_matrix(args) -> int:
    trace = _load_trace(args.input, args.format)
    snapshots = _snapshots(trace, _resolve_periods(args, trace)[0], args.window)[2]
    matrix = temporal_metrics.temporal_distance_matrix(snapshots)
    _write_output(matrix.to_text() + "\n", args.output)
    return EXIT_OK


def cmd_convert(args) -> int:
    _write_trace(_load_trace(args.input, getattr(args, "from")), args.to, args.output)
    return EXIT_OK


def cmd_generate(args) -> int:
    given = {f.name: getattr(args, f.name) for f in fields(rwp_gen.RwpParams)}
    params = rwp_gen.RwpParams(**{k: v for k, v in given.items() if v is not None})
    _write_trace(rwp_gen.generate(params), args.format, args.output)
    return EXIT_OK


def _add_io_flags(p):
    p.add_argument("--input", required=True, help="trace file to read")
    p.add_argument(
        "--format", choices=("common", "one"), default="common", help="input format"
    )
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.add_argument("--tmin", type=float, default=None)
    p.add_argument("--tmax", type=float, default=None)


def _analyze_flags(p):
    _add_io_flags(p)
    p.add_argument(
        "--period",
        action="append",
        metavar="TMIN:TMAX",
        help="analysis period; repeat for one report row per period",
    )
    p.add_argument("--window", type=float, default=None, help="window width override")
    p.add_argument(
        "--report-format", choices=("table", "delimited"), default="table"
    )


def _matrix_flags(p):
    _add_io_flags(p)
    p.add_argument("--window", type=float, default=None, help="window width override")


def _convert_flags(p):
    p.add_argument("--input", required=True)
    p.add_argument("--from", dest="from", choices=("common", "one"), required=True)
    p.add_argument("--to", choices=("common", "one"), required=True)
    p.add_argument("--output", default=None)


def _generate_flags(p):
    # One flag per RwpParams field, which holds the defaults.
    hints = get_type_hints(rwp_gen.RwpParams)
    for f in fields(rwp_gen.RwpParams):
        flag = "--nodes" if f.name == "node_count" else "--" + f.name.replace("_", "-")
        p.add_argument(flag, dest=f.name, type=hints[f.name], required=f.default is MISSING)
    p.add_argument("--format", choices=("common", "one"), default="common")
    p.add_argument("--output", default=None)


# name: (help, flags, command)
_SUBCOMMANDS = {
    "window": ("recommend a time-window size", _add_io_flags, cmd_window),
    "analyze": ("full metrics report for one or more periods", _analyze_flags, cmd_analyze),
    "matrix": ("print the temporal distance matrix", _matrix_flags, cmd_matrix),
    "convert": ("convert between trace formats", _convert_flags, cmd_convert),
    "generate": ("synthesize a random-waypoint trace", _generate_flags, cmd_generate),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser, with the flags of every subcommand or, given one's
    name, of that one only: the others then parse no flag, but top-level
    help, usage and errors read the same."""
    parser = argparse.ArgumentParser(
        prog="dtnmetrics",
        description="Temporal-graph metrics for DTN contact traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_flags, func) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=text)
        if command in (None, name):
            add_flags(p)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top level takes no option but -h, so its first other word names the subcommand
    named = next((a for a in argv if not a.startswith("-")), None)
    args = build_parser(named).parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
