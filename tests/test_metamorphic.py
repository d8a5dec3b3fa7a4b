"""Metamorphic relations of the command line.

Each test runs ``analyze --report-format delimited`` and ``matrix`` on a
drawn trace and on a transformed copy of it, in the common format or as a
ONE report, and compares the outputs byte for byte, except the report
cells that the transformation changes. No oracle is needed: the
relations check the pipeline against itself.

Times lie on a grid of w/4 for a dyadic width w, the period starts off
zero, shifts are whole multiples of w and scalings powers of two, so that
every relation holds exactly in float arithmetic. The benchmark's own trace
generators, run at reduced size, give two more inputs for three of the
relations.
"""

from __future__ import annotations

import importlib.util
import io
import random
import re
import sys
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtnmetrics import parse_common_format
from dtnmetrics.cli import main
from dtnmetrics.ingestion import COMMON_FORMAT_HEADER

# Report columns by name, as ``analyze --report-format delimited`` heads them.
_COLUMNS = ("dataset_name t_min t_max total_nodes total_connections total_timestamps "
            "time_window static_distance average_temporal_distance diameter top_degree "
            "top_betweenness top_closeness reachable_pairs temporal_diameter_hops "
            "temporal_diameter_seconds top_temporal_closeness top_temporal_betweenness").split()
_SECONDS = ("time_window", "average_temporal_distance", "temporal_diameter_seconds")
_RELATION = settings(max_examples=30, deadline=None)


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    """Run a subcommand on a trace text, always read from the same path (the
    report's dataset_name), and return its exit code, stdout and stderr."""
    path = tmp_path_factory.mktemp("metamorphic") / "trace.txt"

    def run(text: str, command: str, *flags: str) -> tuple[int, str, str]:
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, "--input", str(path), *flags])
        return code, out.getvalue(), err.getvalue()

    return run


@st.composite
def cases(draw, formats=("common", "one")):
    """A format, a window width w, a period and the contacts (a, b, start,
    end) of a trace, as ``parse_common_format`` leaves them (overlaps
    merged, a < b, time ordered), one contact at least in the period. Merged
    rows do not overlap, so a ONE report of them pairs each up with its own
    down."""
    fmt = draw(st.sampled_from(formats))
    w = draw(st.sampled_from([0.25, 0.75, 2.5, 10.0, 37.5]))
    q = w / 4
    span = draw(st.integers(5, 24))  # the period's length in steps of q, 2 windows or more
    t_min = draw(st.integers(-40, 40).filter(bool)) * q
    ids = draw(st.lists(st.integers(0, 40), min_size=2, max_size=6, unique=True))

    def contact(lo, hi):
        pair = st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True)
        return st.tuples(pair, st.integers(lo, hi), st.integers(0, 6)).map(
            lambda c: (*c[0], t_min + c[1] * q, t_min + (c[1] + c[2]) * q))

    rows = [draw(contact(0, span)), *draw(st.lists(contact(-4, span + 4), max_size=12))]
    events = parse_common_format(_common(rows)).events
    return fmt, w, (t_min, t_min + span * q), [(e.a, e.b, e.start, e.end) for e in events]


def _common(rows) -> str:
    """The common format of ``rows`` in the given order, each row's occurrence
    count and inter-contact time those its pair's rows before it give."""
    count, last, lines = defaultdict(int), {}, [COMMON_FORMAT_HEADER]
    for a, b, start, end in rows:
        pair = frozenset((a, b))
        count[pair] += 1
        gap = start - last.get(pair, start)
        last[pair] = start
        lines.append(f"{a} {b} {start!r} {end!r} {count[pair]} {gap!r}")
    return "\n".join(lines) + "\n"


def _one_lines(rows) -> list[tuple[frozenset, str]]:
    """A ONE report's (pair, line) rows of ``rows``: ups and downs by time,
    ups first at equal times, otherwise in row order."""
    marks = sorted((t, kind, k) for k, row in enumerate(rows) for kind, t in enumerate(row[2:]))
    return [(frozenset(rows[k][:2]), f"{t!r} CONN {rows[k][0]} {rows[k][1]} "
                                     + ("down" if kind else "up"))
            for t, kind, k in marks]


def _text(fmt: str, rows) -> str:
    if fmt == "common":
        return _common(rows)
    return "".join(line + "\n" for _, line in _one_lines(rows))


def _outputs(cli, fmt: str, w: float, period, rows=(), text=None) -> tuple[list[list[str]], str]:
    """The report's cells, header included, and the matrix text of ``rows``
    (or of ``text``) over ``period`` at width ``w``; both runs succeed
    without a word on stderr."""
    text = _text(fmt, rows) if text is None else text
    flags = ("--format", fmt, f"--tmin={period[0]!r}", f"--tmax={period[1]!r}",
             f"--window={w!r}")
    report = cli(text, "analyze", *flags, "--report-format", "delimited")
    matrix = cli(text, "matrix", *flags)
    assert report[0] == matrix[0] == 0 and report[2] == matrix[2] == ""
    return [line.split("\t") for line in report[1].splitlines()], matrix[1]


def _cell(cells, name: str) -> str:
    return cells[1][_COLUMNS.index(name)]


@_RELATION
@given(cases())
def test_relabelled_ids_change_only_the_report_ids(cli, case):
    fmt, w, period, rows = case
    report, matrix = _outputs(cli, fmt, w, period, rows)
    # an increasing map, so that the order of the ids holds
    moved = _outputs(cli, fmt, w, period, [(3 * a + 1000, 3 * b + 1000, s, e)
                                           for a, b, s, e in rows])
    assert report[0] == _COLUMNS
    expected = [re.sub(r"^\((\d+),", lambda m: f"({3 * int(m[1]) + 1000},", cell)
                for cell in report[1]]
    assert moved == ([report[0], expected], matrix)


@_RELATION
@given(cases(), st.randoms(use_true_random=False))
def test_shuffled_doubled_swapped_rows_change_nothing(cli, case, rng):
    fmt, w, period, rows = case
    # Only contacts of positive length are given twice: the overlap merge joins
    # strictly overlapping rows, so a zero-length row given twice stays two.
    twice = [(b, a, s, e) for a, b, s, e in rows for _ in range(1 + (s < e))]
    if fmt == "common":
        rng.shuffle(twice)
        text = _common(twice)
    else:  # interleave the pairs at random, each pair's rows kept in order
        by_pair = defaultdict(list)
        for pair, line in _one_lines(twice):
            by_pair[pair].append(line)
        queues = [lines[::-1] for lines in by_pair.values()]
        lines = []
        while queues:
            queue = rng.choice(queues)
            lines.append(queue.pop())
            if not queue:
                queues.remove(queue)
        text = "".join(line + "\n" for line in lines)
    assert _outputs(cli, fmt, w, period, text=text) == _outputs(cli, fmt, w, period, rows)


@_RELATION
@given(cases(), st.integers(-3072, 3072))
def test_shift_by_whole_windows_changes_only_the_period(cli, case, k):
    fmt, w, period, rows = case
    shift = k * w
    report, matrix = _outputs(cli, fmt, w, period, rows)
    moved_period = (period[0] + shift, period[1] + shift)
    moved = _outputs(cli, fmt, w, moved_period,
                     [(a, b, s + shift, e + shift) for a, b, s, e in rows])
    assert moved[1] == matrix
    for name, t in zip(("t_min", "t_max"), moved_period):
        assert _cell(moved[0], name) == f"{t:.6g}"
    keep = [c for c in _COLUMNS if c not in ("t_min", "t_max")]
    assert [_cell(moved[0], c) for c in keep] == [_cell(report, c) for c in keep]


@_RELATION
@given(cases())
def test_doubled_time_doubles_only_the_seconds(cli, case):
    fmt, w, period, rows = case
    report, matrix = _outputs(cli, fmt, w, period, rows)
    doubled = _outputs(cli, fmt, 2 * w, (2 * period[0], 2 * period[1]),
                       [(a, b, 2 * s, 2 * e) for a, b, s, e in rows])
    assert doubled[1] == matrix
    for name, value in (("t_min", period[0]), ("t_max", period[1]), ("time_window", w)):
        assert _cell(doubled[0], name) == f"{2 * value:.6g}"
    for name in _SECONDS:  # each cell is its value to 6 digits
        assert float(_cell(doubled[0], name)) == pytest.approx(
            2 * float(_cell(report, name)), rel=1e-5)
    keep = [c for c in _COLUMNS if c not in ("t_min", "t_max", *_SECONDS)]
    assert [_cell(doubled[0], c) for c in keep] == [_cell(report, c) for c in keep]


@_RELATION
@given(cases(), st.lists(st.tuples(st.integers(-4, 24), st.integers(1, 24)), min_size=3,
                         max_size=3))
def test_period_rows_equal_single_period_runs(cli, case, steps):
    fmt, w, (t_min, _), rows = case
    periods = [(t_min + lo * w / 4, t_min + (lo + n) * w / 4) for lo, n in steps]
    text = _text(fmt, rows)
    flags = ("--format", fmt, f"--window={w!r}", "--report-format", "delimited")
    singles = [cli(text, "analyze", *flags, f"--tmin={lo!r}", f"--tmax={hi!r}")
               for lo, hi in periods]
    together = cli(text, "analyze", *flags, *(f"--period={lo!r}:{hi!r}" for lo, hi in periods))
    failed = [run for run in singles if run[0]]
    if failed:  # the first period that fails stops the run with its error
        assert together == (failed[0][0], "", failed[0][2])
    else:
        header = singles[0][1].splitlines(keepends=True)[0]
        assert together == (0, header + "".join(run[1][len(header):] for run in singles), "")


@_RELATION
@given(cases(formats=("one",)))
def test_one_report_equals_its_common_format_conversion(cli, case):
    fmt, w, period, rows = case
    code, converted, err = cli(_text(fmt, rows), "convert", "--from", fmt, "--to", "common")
    assert (code, err) == (0, "")
    as_common = _outputs(cli, "common", w, period, text=converted)
    assert as_common == _outputs(cli, fmt, w, period, rows)


def _benchmark_inputs():
    """``perfbench/inputs.py``, loaded once from its file under a private name
    (its dataclasses look their module up in ``sys.modules``)."""
    if "_benchmark_inputs" not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
        spec = importlib.util.spec_from_file_location("_benchmark_inputs", path)
        sys.modules[spec.name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules["_benchmark_inputs"]


@pytest.mark.parametrize("workload, sizes", [
    # the smallest sizes near these that still pass the generators' regime checks
    ("sparse_long", dict(nodes=16, span=3000, w=20, events=150)),
    ("dense_contacts", dict(nodes=12, span=300, w=30, events=200)),
])
def test_benchmark_traces_keep_the_relations(cli, workload, sizes):
    trace = getattr(_benchmark_inputs(), workload)(1, **sizes)
    rows = list(zip(*(c.tolist() for c in (trace.a, trace.b, trace.start, trace.end))))
    w, period = trace.w, (0, trace.span)
    report, matrix = _outputs(cli, "common", w, period, rows)
    assert len(report) == 2 and matrix

    relabelled = _outputs(cli, "common", w, period, [(3 * a + 1000, 3 * b + 1000, s, e)
                                                     for a, b, s, e in rows])
    expected = [re.sub(r"^\((\d+),", lambda m: f"({3 * int(m[1]) + 1000},", cell)
                for cell in report[1]]
    assert relabelled == ([report[0], expected], matrix)

    twice = [(b, a, s, e) for a, b, s, e in rows for _ in range(2)]  # every contact s < e
    random.Random(1).shuffle(twice)
    assert _outputs(cli, "common", w, period, text=_common(twice)) == (report, matrix)

    shift = 3072 * w
    moved_period = (period[0] + shift, period[1] + shift)
    moved = _outputs(cli, "common", w, moved_period,
                     [(a, b, s + shift, e + shift) for a, b, s, e in rows])
    assert moved[1] == matrix
    keep = [c for c in _COLUMNS if c not in ("t_min", "t_max")]
    assert [_cell(moved[0], c) for c in keep] == [_cell(report, c) for c in keep]
