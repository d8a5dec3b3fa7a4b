import argparse
import ast
import importlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from dataclasses import fields
from io import StringIO
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dtnmetrics
from dtnmetrics import (
    AggregatedGraph,
    AnalysisPeriod,
    ContactEvent,
    ContactTrace,
    PairAggregate,
    SnapshotSequence,
    WindowConfig,
    average_meeting_time,
    parse_common_format,
    parse_one_report,
    recommend_window,
    window_count,
    write_common_format,
)
from dtnmetrics import rwp_gen, trace_model
from dtnmetrics.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    InputError,
    _window_width,
    build_parser,
    build_report,
    format_reports,
    main,
)

from .conftest import ONE_REPORT_TEXT, OVERFLOW_ROWS


@pytest.fixture()
def six_node_file(tmp_path, six_node_trace):
    path = tmp_path / "six.txt"
    path.write_text(write_common_format(six_node_trace))
    return str(path)


@pytest.fixture()
def one_report_file(tmp_path):
    path = tmp_path / "report.txt"
    path.write_text(ONE_REPORT_TEXT)
    return str(path)


class TestWindowCommand:
    def test_prints_recommendation(self, capsys, tmp_path, six_node_file):
        assert main(["window", "--input", six_node_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "avg=" in out and "recommended=" in out and "windows=" in out

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["window", "--input", "/no/such/file"]) == EXIT_USAGE

    def test_output_file(self, capsys, tmp_path, six_node_file):
        out = tmp_path / "window.txt"
        assert main(["window", "--input", six_node_file, "--output", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert out.read_text().startswith("avg=") and out.read_text().count("\n") == 1

    def test_empty_period_is_usage_error(self, capsys, six_node_file):
        rc = main(["window", "--input", six_node_file, "--tmin", "2000", "--tmax", "3000"])
        assert rc == EXIT_USAGE
        assert "no contacts in period" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_six_node_report(self, capsys, six_node_file):
        rc = main(
            [
                "analyze",
                "--input",
                six_node_file,
                "--tmin",
                "0",
                "--tmax",
                "900",
                "--window",
                "300",
                "--report-format",
                "delimited",
            ]
        )
        assert rc == EXIT_OK
        header, row = capsys.readouterr().out.strip().splitlines()
        cells = dict(zip(header.split("\t"), row.split("\t")))
        assert cells["total_nodes"] == "6"
        assert cells["total_connections"] == "5"
        assert cells["total_timestamps"] == "3"
        assert cells["time_window"] == "300"
        assert cells["average_temporal_distance"] == "140"
        assert cells["temporal_diameter_hops"] == "2"
        assert cells["temporal_diameter_seconds"] == "600"
        assert cells["reachable_pairs"] == "20"

    def test_repeated_periods_make_rows(self, capsys, six_node_file):
        rc = main(
            [
                "analyze",
                "--input",
                six_node_file,
                "--period",
                "0:450",
                "--period",
                "450:900",
                "--window",
                "300",
                "--report-format",
                "delimited",
            ]
        )
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # header + one row per period

    @pytest.mark.parametrize(
        "fmt, text, cells",
        [
            ("common", "7 3 0 10 1 0\n3 7 20 25 2 20\n",
             "0\t25\t2\t2\t1\t60\t1\t0\t1\t(3, 1)\t(3, 0)\t(3, 1)\t2\t0\t0\t(3, 0)\t(3, 0)"),
            ("one", "0 CONN 5 2 up\n4 CONN 5 2 down\n10 CONN 2 5 up\n12 CONN 2 5 down\n",
             "0\t12\t2\t2\t1\t60\t1\t0\t1\t(2, 1)\t(2, 0)\t(2, 1)\t2\t0\t0\t(2, 0)\t(2, 0)"),
        ],
    )
    def test_two_node_report(self, capsys, tmp_path, fmt, text, cells):
        # both betweenness cells read (lower id, 0): every node scores 0
        path = tmp_path / "two.txt"
        path.write_text(text)
        argv = ["analyze", "--input", str(path), "--format", fmt, "--report-format", "delimited"]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr()
        assert out.out.splitlines()[1:] == [f"{path}\t{cells}"] and not out.err

    def test_output_file(self, tmp_path, six_node_file):
        out = tmp_path / "report.txt"
        rc = main(
            ["analyze", "--input", six_node_file, "--window", "300", "--output", str(out)]
        )
        assert rc == EXIT_OK
        assert "average_temporal_distance" in out.read_text()

    def test_bad_period_flag(self, capsys, six_node_file):
        rc = main(["analyze", "--input", six_node_file, "--period", "nonsense"])
        assert rc == EXIT_USAGE

    def test_empty_period_is_usage_error(self, capsys, six_node_file):
        rc = main(["analyze", "--input", six_node_file, "--period", "2000:3000"])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("flag", ["--tmin", "--tmax"])
    def test_period_with_tmin_or_tmax_is_usage_error(self, capsys, six_node_file, flag):
        rc = main(["analyze", "--input", six_node_file, flag, "100", "--period", "0:300"])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--period" in err and flag in err

    def test_one_format_input(self, capsys, one_report_file):
        rc = main(
            ["analyze", "--input", one_report_file, "--format", "one", "--window", "60"]
        )
        assert rc == EXIT_OK

    @pytest.mark.parametrize("row", ["0 1 5 inf 1 0", "0 1 nan 5 1 0"])
    def test_non_finite_time_is_usage_error(self, capsys, tmp_path, row):
        path = tmp_path / "bad.txt"
        path.write_text(row + "\n")
        assert main(["analyze", "--input", str(path)]) == EXIT_USAGE
        assert "line 1: non-finite time" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fmt, text",
        [("common", "0 1 0 1 1 0\n0 0 1 5 1 0\n"), ("one", "0 CONN 1 2 up\n1 CONN 0 0 up\n")],
    )
    def test_self_contact_is_usage_error(self, capsys, tmp_path, fmt, text):
        path = tmp_path / "self.txt"
        path.write_text(text)
        assert main(["analyze", "--input", str(path), "--format", fmt]) == EXIT_USAGE
        assert "line 2: self-contact of node 0" in capsys.readouterr().err

    def test_parse_warnings_go_to_stderr(self, capsys, tmp_path, six_node_file):
        # the occurrence column is re-derived, so a wrong one changes no result
        argv = ["analyze", "--window", "300", "--report-format", "delimited"]
        assert main([*argv, "--input", six_node_file]) == EXIT_OK
        want = capsys.readouterr()
        with open(six_node_file) as fh:
            lines = fh.read().splitlines()
        src, dst, up, down, _, gap = lines[2].split()
        lines[2] = " ".join([src, dst, up, down, "9", gap])
        path = tmp_path / "wrong_count.txt"
        path.write_text("\n".join(lines) + "\n")
        assert main([*argv, "--input", str(path)]) == EXIT_OK
        got = capsys.readouterr()
        cells = [[line.split("\t", 1)[1] for line in r.out.splitlines()] for r in (got, want)]
        assert cells[0] == cells[1]  # all but dataset_name, the input path
        assert want.err == ""
        assert "1 parse warning(s)" in got.err
        assert "line 3: occurrence count 9 != recomputed 1" in got.err

    @pytest.mark.parametrize(
        "fmt, text",
        [
            ("common", "0 1 0 10 1 0\n1 2 10 20 1 0\n2 3 20 30 1 0\n"),
            ("one", "0 CONN 1 2 up\n5 CONN 1 2 down\n10 CONN 2 3 up\n15 CONN 0 1 up\n"),
        ],
    )
    def test_byte_order_mark_changes_nothing(self, capsys, tmp_path, fmt, text):
        # a UTF-8 BOM must not stick to the first token and make row 1 a header
        argv = ["analyze", "--format", fmt, "--window", "10", "--report-format", "delimited"]
        cells = []
        for name, bom in (("plain.txt", b""), ("bom.txt", b"\xef\xbb\xbf")):
            path = tmp_path / name
            path.write_bytes(bom + text.encode())
            assert main([*argv, "--input", str(path)]) == EXIT_OK
            out = capsys.readouterr().out.splitlines()
            cells.append([line.split("\t")[1:] for line in out])  # all but the input path
        assert cells[0] == cells[1]
        row = dict(zip(cells[0][0], cells[0][1]))
        assert (row["total_nodes"], row["total_connections"]) == ("4", "3")

    def test_header_after_blank_line(self, capsys, tmp_path, six_node_file):
        path = tmp_path / "blank_first.txt"
        with open(six_node_file) as fh:
            path.write_text("\n" + fh.read())
        assert main(["analyze", "--input", str(path), "--window", "300"]) == EXIT_OK

    def test_horizon_flag_is_gone(self, capsys, six_node_file):
        # nothing on the report path reads a hop horizon, so analyze offers none
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--input", six_node_file, "--horizon", "1"])
        assert exc.value.code == EXIT_USAGE
        assert "--horizon" in capsys.readouterr().err


class TestMatrixCommand:
    def test_published_matrix(self, capsys, six_node_file):
        # [PAPER] the worked-example matrix, verbatim
        rc = main(
            [
                "matrix",
                "--input",
                six_node_file,
                "--tmin",
                "0",
                "--tmax",
                "900",
                "--window",
                "300",
            ]
        )
        assert rc == EXIT_OK
        assert capsys.readouterr().out == (
            "[[0, 0, 2, 2, -1, -1],\n"
            " [0, 0, 2, 2, -1, -1],\n"
            " [-1, 1, 0, 1, 0, 0],\n"
            " [-1, 0, 0, 0, -1, -1],\n"
            " [-1, 1, 0, 1, 0, 0],\n"
            " [-1, 1, 0, 1, 0, 0]]\n"
        )

    @pytest.mark.parametrize("window", ["0", "-60"])
    def test_non_positive_window_is_usage_error(self, capsys, six_node_file, window):
        rc = main(["matrix", "--input", six_node_file, "--window", window])
        assert rc == EXIT_USAGE
        assert "window width must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("window", [[], ["--window", "60"]])
    def test_empty_period_is_usage_error(self, capsys, six_node_file, window):
        period = ["--tmin", "2000", "--tmax", "3000"]
        rc = main(["matrix", "--input", six_node_file, *period, *window])
        assert rc == EXIT_USAGE
        assert "no contacts in period" in capsys.readouterr().err


class TestConvertCommand:
    def test_one_to_common_and_back(self, capsys, tmp_path, one_report_file):
        common = tmp_path / "common.txt"
        rc = main(
            [
                "convert",
                "--input",
                one_report_file,
                "--from",
                "one",
                "--to",
                "common",
                "--output",
                str(common),
            ]
        )
        assert rc == EXIT_OK
        original = parse_one_report(ONE_REPORT_TEXT)
        assert parse_common_format(common.read_text()).events == original.events

    def test_malformed_input_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 3\n")
        rc = main(["convert", "--input", str(bad), "--from", "common", "--to", "one"])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("fmt, text", [
        ("one", "-1.7976931348623157e308 CONN 1 2 up\n-1e308 CONN 1 2 down\n"
                "1e308 CONN 1 2 up\n1.7976931348623157e308 CONN 1 2 down\n"),
        ("common", "1 2 -1.7976931348623157e308 -1e308 1 0\n"
                   "1 2 1e308 1.7976931348623157e308 2 0\n"),
    ])
    def test_overflowing_inter_contact_time_is_usage_error(self, capsys, tmp_path, fmt, text):
        # the pair's second contact starts 1e308 + 1.79e308 s after its first
        path = tmp_path / "overflow.txt"
        path.write_text(text)
        argv = ["convert", "--input", str(path), "--from", fmt, "--to"]
        assert main([*argv, "common"]) == EXIT_USAGE
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == ["error: inter-contact time of pair (1, 2) is not a finite number: "
                          "1e+308 - -1.7976931348623157e+308 overflows"]
        assert main([*argv, "one"]) == EXIT_OK


class TestGenerateCommand:
    GEN_FLAGS = [
        "--nodes", "6", "--duration", "300", "--range", "150",
        "--area-width", "400", "--area-height", "400",
        "--speed-min", "1", "--speed-max", "3", "--pause-max", "10",
        "--seed", "7", "--tick", "0.5",
    ]

    def test_generates_parseable_trace(self, capsys, tmp_path):
        out = tmp_path / "gen.txt"
        rc = main(["generate", *self.GEN_FLAGS, "--output", str(out)])
        assert rc == EXIT_OK
        trace = parse_common_format(out.read_text())
        assert len(trace.nodes) <= 6

    def test_determinism_across_invocations(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["generate", *self.GEN_FLAGS, "--output", str(a)]) == EXIT_OK
        assert main(["generate", *self.GEN_FLAGS, "--output", str(b)]) == EXIT_OK
        assert a.read_text() == b.read_text()

    def test_single_node_is_usage_error(self, capsys):
        rc = main(["generate", "--nodes", "1", "--duration", "100"])
        assert rc == EXIT_USAGE

    def test_flags_are_the_rwp_params_fields(self, monkeypatch, capsys):
        # RwpParams holds the defaults: one flag per field, in field order,
        # and no flag with a default of its own
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        names = [f.name for f in fields(rwp_gen.RwpParams)]
        flags = [a for a in sub.choices["generate"]._actions if a.dest in names]
        assert [a.dest for a in flags] == names
        assert [a.default for a in flags] == [None] * len(names)
        seen = []

        def generate(params):
            seen.append(params)
            return ContactTrace.from_events([ContactEvent(0, 1, 0, 1)])

        monkeypatch.setattr(rwp_gen, "generate", generate)
        assert main(["generate", "--nodes", "4", "--duration", "50"]) == EXIT_OK
        assert main(["generate", *self.GEN_FLAGS]) == EXIT_OK
        assert seen == [rwp_gen.RwpParams(4, 50.0),
                        rwp_gen.RwpParams(6, 300.0, 150.0, 400.0, 400.0, 1.0, 3.0, 10.0, 7, 0.5)]


# A row whose span, t_max - t_min, overflows float64; and two pairs whose
# contact times, over a finite span, overflow their sum.
_INFINITE_SPAN = "1 2 -1e308 1e308 1 0\n"
_OVERFLOWING_CONTACT_TIME = "1 2 0 1.6e308 1 0\n3 4 0 1.6e308 1 0\n"
# A meeting time so close to the largest float that no multiple of 60 above
# it is finite.
_HUGE_MEETING_TIME = "007 3 0 1.7976931348623157e308 1 0\n"


class TestNonFiniteSpans:
    @pytest.mark.parametrize("text, message", [
        (_INFINITE_SPAN, "analysis period [-1e+308, 1e+308] is too long: t_max - t_min is not "
                         "a finite number"),
        (_OVERFLOWING_CONTACT_TIME, "average meeting time is not a finite number: the total "
                                    "contact time overflows"),
        (_HUGE_MEETING_TIME, "recommended window is not a finite number: the average meeting "
                             "time 1.79769e+308 is too close to the largest float"),
    ])
    @pytest.mark.parametrize("command", ["window", "analyze", "matrix"])
    def test_is_usage_error_without_a_warning(self, capsys, tmp_path, command, text, message):
        path = tmp_path / "huge.txt"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")  # as the CLI runs, not as these tests do
            assert main([command, "--input", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not caught


_MAX = sys.float_info.max
# Times that break arithmetic: near the largest float, denormals and signed
# zeros, with a few ordinary ones; a small pool makes equal times common.
_FUZZ_TIMES = st.one_of(
    st.sampled_from([-_MAX, -1.6e308, -1e308, -1.0, -5e-324, -0.0, 0.0, 5e-324, 2.2e-308,
                     1.0, 59.5, 60.0, 1e308, 1.6e308, _MAX]),
    st.floats(-_MAX, _MAX, allow_nan=False))
# Huge and zero-padded ids, few enough that pairs repeat; "1" and "01" are
# one node.
_FUZZ_IDS = ["1", "01", "007", str(2**64)]
_FUZZ_WINDOWS = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1e-9, 0.5, 1.0, 60.0, 1e300, _MAX]),
    st.floats(5e-324, _MAX))


@st.composite
def _fuzz_case(draw):
    """``(format, text, period flags, window flags)``: one to four contacts,
    as common-format rows or as the up and down rows of a ONE report in
    time order, and maybe ``--tmin=``, ``--tmax=`` and ``--window``."""
    contacts = []
    for _ in range(draw(st.integers(1, 4))):
        a, b = draw(st.lists(st.sampled_from(_FUZZ_IDS), min_size=2, max_size=2, unique=True))
        up, down = sorted(draw(st.lists(_FUZZ_TIMES, min_size=2, max_size=2)))
        contacts.append((a, b, up, down))
    if draw(st.booleans()):
        fmt, text = "common", "".join(f"{a} {b} {up!r} {down!r} 1 0\n"
                                      for a, b, up, down in contacts)
    else:
        rows = sorted([(up, 0, f"{a} {b} up") for a, b, up, _ in contacts]
                      + [(down, 1, f"{a} {b} down") for a, b, _, down in contacts])
        fmt, text = "one", "".join(f"{t!r} CONN {row}\n" for t, _, row in rows)
    period = [f"{flag}={draw(_FUZZ_TIMES)!r}" for flag in ("--tmin", "--tmax")
              if not draw(st.integers(0, 3))]
    window = ["--window", repr(draw(_FUZZ_WINDOWS))] if draw(st.booleans()) else []
    return fmt, text, period, window


class TestExitCodeContract:
    """Every input is analysed or rejected with exit 2 and one error line,
    and never makes Python warn; the files stay too small for the journey
    counts to overflow (see test_overflowing_journey_counts_are_exit_one)."""

    @settings(max_examples=120, deadline=None)
    @given(_fuzz_case())
    # a meeting time within an ulp of the largest float; a pair whose
    # inter-contact time overflows
    @example(("common", _HUGE_MEETING_TIME, [], []))
    @example(("one", "-1e308 CONN 1 007 up\n0.0 CONN 1 007 down\n1e308 CONN 1 007 up\n"
                     "1e308 CONN 1 007 down\n", [], []))
    def test_small_files_exit_zero_or_two(self, tmp_path_factory, case):
        fmt, text, period, window = case
        path = tmp_path_factory.getbasetemp() / "exit-code-contract.txt"
        path.write_text(text)
        for argv in (["window", "--format", fmt, *period],
                     ["analyze", "--format", fmt, *period, *window],
                     ["matrix", "--format", fmt, *period, *window],
                     ["convert", "--from", fmt, "--to", "common"],
                     ["convert", "--from", fmt, "--to", "one"]):
            out, err = StringIO(), StringIO()
            with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), \
                    redirect_stderr(err):
                warnings.simplefilter("always")
                rc = main([*argv, "--input", str(path)])
            errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
            assert (rc, len(errors)) in ((EXIT_OK, 0), (EXIT_USAGE, 1)), (argv, err.getvalue())
            assert not caught, (argv, [str(w.message) for w in caught])


# Values for each generate flag: small valid ones (repeated, so that more of
# the runs generate), 0, negatives, denormals, nan, inf and values near the
# largest float, or any float at all.
_GEN_FLOATS = st.one_of(
    st.sampled_from([0.5, 1.0, 3.0, 100.0] * 5
                    + [0.0, -0.0, -1.0, 5e-324, -5e-324, 2.2e-308, math.nan, math.inf,
                       -math.inf, 1e308, 1.6e308, _MAX, -1e308, -_MAX]),
    st.floats())


@st.composite
def _generate_argv(draw):
    """A generate command line whose every flag is drawn, or left to its
    default, and that is rejected or generates at most 5 nodes over at most
    400 ticks and a few thousand waypoints."""
    given = {"node_count": draw(st.sampled_from([2, 3, 4, 5] * 3 + [1, 0, -1])),
             "duration": draw(_GEN_FLOATS)}
    argv = ["generate", f"--nodes={given['node_count']}", f"--duration={given['duration']!r}"]
    if draw(st.booleans()):
        given["seed"] = draw(st.sampled_from([0, 7, -1]))
        argv.append(f"--seed={given['seed']}")
    for name in ("range", "area_width", "area_height", "speed_min", "speed_max", "pause_max",
                 "tick"):
        if draw(st.booleans()):
            given[name] = draw(_GEN_FLOATS)
            argv.append(f"--{name.replace('_', '-')}={given[name]!r}")
    try:
        p = rwp_gen.RwpParams(**given)
    except ValueError:
        return argv
    legs = p.duration * p.speed_max / max(p.area_width, p.area_height)
    assume(p.tick_count <= 400 and legs <= 1000)
    return argv


class TestGenerateExitCodeContract:
    """generate's parameters are generated from or rejected with exit 2 and
    one error line, and never make Python warn."""

    @settings(max_examples=500, deadline=None)
    @given(_generate_argv())
    # a pause, and an area, whose sums of times or squared distances overflow
    @example(["generate", "--nodes", "3", "--duration", "100", "--tick", "1",
              "--pause-max", "1e308"])
    @example(["generate", "--nodes", "3", "--duration", "100", "--tick", "1",
              "--area-width", "1e308"])
    def test_parameters_exit_zero_or_two(self, argv):
        out, err = StringIO(), StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), \
                redirect_stderr(err):
            warnings.simplefilter("always")
            rc = main(argv)
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        assert (rc, len(errors)) in ((EXIT_OK, 0), (EXIT_USAGE, 1)), (argv, err.getvalue())
        assert not caught, (argv, [str(w.message) for w in caught])


class TestInputError:
    @pytest.mark.parametrize("check, message", [
        (lambda: AnalysisPeriod(math.nan, 1.0),
         "analysis period needs finite bounds, got [nan, 1.0]"),
        (lambda: AnalysisPeriod(5.0, 5.0),
         "analysis period requires t_min < t_max, got [5.0, 5.0]"),
        (lambda: AnalysisPeriod(-1e308, 1e308),
         "analysis period [-1e+308, 1e+308] is too long: t_max - t_min is not a finite number"),
        (lambda: WindowConfig(0), "window width must be positive and finite, got 0"),
        (lambda: WindowConfig(60, horizon=0), "horizon must be a positive integer, got 0"),
        (lambda: window_count(AnalysisPeriod(0, 10), -1.0),
         "window width must be positive and finite, got -1.0"),
        (lambda: window_count(AnalysisPeriod(0, 100), 5e-324),
         "window 4.94066e-324 is too fine: span / width is not a finite number"),
        (lambda: average_meeting_time([]), "no contacts in period"),
        (lambda: recommend_window([PairAggregate((1, 2), 1.6e308, 1),
                                   PairAggregate((3, 4), 1.6e308, 1)]),
         "average meeting time is not a finite number: the total contact time overflows"),
        (lambda: recommend_window([PairAggregate((3, 7), _MAX, 1)]),
         "recommended window is not a finite number: the average meeting time 1.79769e+308 is "
         "too close to the largest float"),
        (lambda: rwp_gen.RwpParams(1, 10), "node_count must be >= 2"),
        (lambda: rwp_gen.RwpParams(3, 10, speed_max=math.inf),
         "duration, speed, pause, tick and area must be finite"),
        (lambda: rwp_gen.RwpParams(3, 1e9, tick=1),
         "3 nodes over 1e+09 ticks is too large: more than 1.0e+06 pairs or 1.3e+08 ticks x "
         "pairs"),
        (lambda: rwp_gen.RwpParams(2, 1e8, tick=1e3, speed_min=1, speed_max=1, area_width=10,
                                   area_height=10),
         "2 nodes moving up to 1 m/s for 1e+08 s is too large: about 1.2e+08 waypoints, more "
         "than 1.0e+06"),
        (lambda: rwp_gen.RwpParams(3, 100, tick=1, area_width=1e308),
         "area, speed_min or pause_max out of range: a squared distance or the end of a leg "
         "across the area may overflow a float"),
        (lambda: write_common_format(ContactTrace.from_events(
            [ContactEvent(1, 7, -1e308, 0.0), ContactEvent(1, 7, 1e308, 1e308)])),
         "inter-contact time of pair (1, 7) is not a finite number: 1e+308 - -1e+308 overflows"),
        (lambda: parse_common_format("1 1 0 1 1 0\n"), "line 1: self-contact of node 1"),
    ])
    def test_library_checks_raise_it(self, check, message):
        # the one type main turns into exit 2, a ValueError to library callers
        assert InputError is trace_model.InputError
        with pytest.raises(InputError) as caught:
            check()
        assert str(caught.value) == message


class TestBuildReport:
    def test_library_and_cli_agree(self, six_node_trace):
        report = build_report(six_node_trace, AnalysisPeriod(0, 900), w=300)
        assert report.total_nodes == 6
        assert report.average_temporal_distance == 140.0
        assert report.temporal_diameter_hops == 2
        assert report.diameter >= 1

    def test_empty_period_rejected(self, six_node_trace):
        with pytest.raises(InputError, match="no contacts"):
            build_report(six_node_trace, AnalysisPeriod(100, 200))

    def test_one_node_period_rejected(self):
        trace = ContactTrace.from_events([ContactEvent(3, 3, 0, 10)])
        with pytest.raises(InputError, match="at least 2 nodes"):
            build_report(trace, AnalysisPeriod(0, 10), w=5)

    def test_self_contact_is_no_degree_link(self):
        trace = ContactTrace.from_events([ContactEvent(0, 1, 0, 1), ContactEvent(1, 1, 2, 3)])
        report = build_report(trace, AnalysisPeriod(0, 10), w=10)
        assert report.top_degree == (0, 1.0)  # both nodes have one link; ties go to the lower id

    def test_two_node_period_skips_betweenness(self, six_node_trace):
        report = build_report(six_node_trace, AnalysisPeriod(640, 670), w=30)
        assert report.total_nodes == 2
        assert report.top_betweenness[1] == 0.0
        assert report.top_temporal_betweenness[1] == 0.0

    def test_format_reports_table_aligns_columns(self, six_node_trace):
        report = build_report(six_node_trace, AnalysisPeriod(0, 900), w=300)
        text = format_reports([report], "table")
        header, row = text.splitlines()
        assert header.startswith("dataset_name")
        assert len(header) == len(row)  # every cell padded to its column
        assert row[header.index("total_nodes")] == "6"

    def test_format_reports_table_aligns_several_rows(self, six_node_trace):
        # the second row's name is wider than its header and the first row's cell
        reports = [build_report(six_node_trace, AnalysisPeriod(0, 900), w=300),
                   build_report(six_node_trace, AnalysisPeriod(640, 670), w=30,
                                dataset_name="six-node, two-node period")]
        table = format_reports(reports, "table").splitlines()
        cells = [line.split("\t") for line in format_reports(reports, "delimited").splitlines()]
        header = table[0]
        starts = [i for i, ch in enumerate(header) if ch != " " and header[i - 1 : i] in ("", " ")]
        assert len(table) == 3 and len({len(line) for line in table}) == 1
        for line, row in zip(table, cells, strict=True):
            ends = [*starts[1:], len(line)]
            assert [line[a:b].rstrip() for a, b in zip(starts, ends)] == row

    def test_tuple_cells_render_node_and_value(self, six_node_trace):
        report = build_report(six_node_trace, AnalysisPeriod(0, 900), w=300)
        text = format_reports([report], "delimited")
        assert "(" in text and ")" in text


SUBCOMMANDS = ("window", "analyze", "matrix", "convert", "generate")


class TestParserPerSubcommand:
    """``main`` adds the flags of the subcommand it is given only; what the
    parser prints must not show it."""

    ARGVS = [
        ["--help"], ["-h"], [], ["bogus"], ["bogus", "--input", "x"], ["-h", "analyze"],
        ["--bogus", "matrix"], ["--", "window", "--help"],
        *([name, "--help"] for name in SUBCOMMANDS),
        *([name] for name in SUBCOMMANDS),
        *([name, "--bogus"] for name in SUBCOMMANDS),
        ["analyze", "--input"], ["matrix", "--input", "x", "--window", "wide"],
        ["convert", "--input", "x", "--from", "xml", "--to", "one"],
        ["generate", "--nodes", "3", "--duration", "9", "--seed", "1.5"],
        ["window", "--input", "x", "--period", "0:1"],
    ]

    @staticmethod
    def printed(parse, argv):
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
            parse(argv)
        return exc.value.code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_help_and_usage_errors_are_the_full_parsers(self, argv):
        code, out, err = self.printed(main, argv)
        assert (code, out, err) == self.printed(build_parser().parse_args, argv)
        assert out or err

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_only_the_named_subcommand_gets_flags(self, name):
        sub = next(a for a in build_parser(name)._actions
                   if isinstance(a, argparse._SubParsersAction))
        flagged = [n for n, p in sub.choices.items() if len(p._actions) > 1]  # more than -h
        assert flagged == [name]


class TestExitCodes:
    def test_internal_error_is_exit_one(self, monkeypatch, six_node_file):
        import dtnmetrics.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli_mod, "build_report", boom)
        assert main(["analyze", "--input", six_node_file]) == EXIT_INTERNAL

    @pytest.mark.parametrize("command", ["analyze", "matrix"])
    def test_value_error_inside_the_analysis_is_exit_one(
        self, capsys, monkeypatch, six_node_file, command
    ):
        import dtnmetrics.temporal_metrics as tm

        def bug(*args, **kwargs):
            raise ValueError("bug")

        monkeypatch.setattr(tm, "temporal_distance_matrix", bug)
        assert main([command, "--input", six_node_file, "--window", "300"]) == EXIT_INTERNAL
        assert "internal error: bug" in capsys.readouterr().err

    def test_overflowing_journey_counts_are_exit_one(
        self, capsys, tmp_path, overflowing_levels
    ):
        path = tmp_path / "overflow.txt"
        path.write_text(OVERFLOW_ROWS)
        argv = ["analyze", "--input", str(path), "--window", "1", "--tmin", "0", "--tmax", "10"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")  # as the CLI runs, not as these tests do
            assert main(argv) == EXIT_INTERNAL
        assert "internal error: overflow encountered" in capsys.readouterr().err
        assert not caught

    @pytest.mark.parametrize("window", ["inf", "nan"])
    @pytest.mark.parametrize("command", ["analyze", "matrix"])
    def test_non_finite_window_is_usage_error(self, capsys, six_node_file, command, window):
        rc = main([command, "--input", six_node_file, "--window", window])
        assert rc == EXIT_USAGE
        assert "window width must be positive and finite" in capsys.readouterr().err

    def test_undecodable_input_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"\xff\xfe0 1 2 3 1 0\n")
        assert main(["analyze", "--input", str(path)]) == EXIT_USAGE
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["convert", "--from", "one", "--to", "common"],
                                         ["analyze", "--format", "one"]])
    def test_one_down_before_its_up_is_usage_error(self, capsys, tmp_path, command):
        path = tmp_path / "reversed.one"
        path.write_text("10 CONN 1 2 up\n5 CONN 1 2 down\n")
        assert main([*command, "--input", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "line 2: down for pair (1, 2) at 5.0 before its up at 10.0" in err

    def test_window_bound_counts_the_windows_allocated(self, capsys, tmp_path):
        # a span of 56,568.5 s holds 56,569 one-second windows, and
        # 2 x 56,569^2 is over the bound though 2 x 56,568.5^2 is not
        path = tmp_path / "two.txt"
        path.write_text("0 1 0 10 1 0\n")
        argv = ["analyze", "--input", str(path), "--tmin", "0", "--tmax", "56568.5"]
        assert main([*argv, "--window", "1"]) == EXIT_USAGE
        assert "too fine" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "matrix"])
    def test_window_too_fine_to_count_is_usage_error(self, capsys, six_node_file, command):
        assert main([command, "--input", six_node_file, "--window", "5e-324"]) == EXIT_USAGE
        assert "too fine" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--seed", "-1"], ["--speed-max", "inf"], ["--tick", "inf"]])
    def test_bad_generate_parameter_is_usage_error(self, capsys, flag):
        assert main(["generate", "--nodes", "3", "--duration", "10", *flag]) == EXIT_USAGE

    @pytest.mark.parametrize("command", ["window", "analyze", "matrix"])
    @pytest.mark.parametrize("bound", [["--tmin=-inf"], ["--tmax=inf"], ["--tmin=nan"]])
    def test_non_finite_period_bound_is_usage_error(
        self, capsys, six_node_file, command, bound
    ):
        assert main([command, "--input", six_node_file, *bound]) == EXIT_USAGE
        assert "finite bounds" in capsys.readouterr().err

    def test_non_finite_period_flag_is_usage_error(self, capsys, six_node_file):
        rc = main(["analyze", "--input", six_node_file, "--period", "0:inf"])
        assert rc == EXIT_USAGE
        assert "finite bounds" in capsys.readouterr().err

    @pytest.mark.parametrize("period", [["--period", "5:3"], ["--tmin", "5", "--tmax", "5"]])
    def test_empty_or_reversed_period_is_usage_error(self, capsys, six_node_file, period):
        assert main(["analyze", "--input", six_node_file, *period]) == EXIT_USAGE
        assert "analysis period requires t_min < t_max" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["analyze", "--window", "300"],
            ["matrix", "--window", "300"],
            ["convert", "--from", "common", "--to", "one"],
        ],
    )
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, six_node_file, command):
        out = tmp_path / "missing" / "out.txt"
        rc = main([*command, "--input", six_node_file, "--output", str(out)])
        assert rc == EXIT_USAGE
        assert "cannot write" in capsys.readouterr().err

    def test_unwritable_generate_output_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "missing" / "out.txt"
        rc = main(["generate", "--nodes", "3", "--duration", "10", "--output", str(out)])
        assert rc == EXIT_USAGE

    def test_failure_while_writing_is_exit_one(
        self, capsys, monkeypatch, tmp_path, six_node_file
    ):
        import dtnmetrics.cli as cli_mod

        # the file opens, then the text cannot be encoded
        monkeypatch.setattr(cli_mod, "format_reports", lambda reports, style: "\ud800")
        out = tmp_path / "out.txt"
        rc = main(["analyze", "--input", six_node_file, "--output", str(out)])
        assert rc == EXIT_INTERNAL
        assert "internal error" in capsys.readouterr().err


class TestImportHygiene:
    def test_runtime_never_loads_networkx(self, tmp_path, six_node_file):
        # networkx is only a test reference and numpy.ma (which np.unique
        # imports) is a heavy import no command needs; no command may load them
        src = Path(dtnmetrics.__file__).resolve().parent.parent
        one, common = str(tmp_path / "rwp.one"), str(tmp_path / "rwp.txt")
        commands = [
            ["generate", "--nodes", "5", "--duration", "120", "--area-width", "100",
             "--area-height", "100", "--seed", "2", "--format", "one", "--output", one],
            ["convert", "--input", one, "--from", "one", "--to", "common", "--output", common],
            ["convert", "--input", common, "--from", "common", "--to", "one",
             "--output", str(tmp_path / "again.one")],
            ["window", "--input", six_node_file],
            ["analyze", "--input", six_node_file, "--window", "300"],
            ["analyze", "--input", one, "--format", "one", "--window", "30"],
            ["matrix", "--input", six_node_file, "--window", "300"],
        ]
        code = (
            "import sys\n"
            "import dtnmetrics.cli\n"
            f"for argv in {commands!r}:\n"
            "    assert dtnmetrics.cli.main(argv) == 0, argv\n"
            "assert 'networkx' not in sys.modules\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr

    def test_no_module_holds_an_array(self):
        # no module-global caches: an array built at import is memory every
        # command pays for, whether it reads the array or not
        package = Path(dtnmetrics.__file__).resolve().parent
        found = []
        for path in sorted(package.glob("*.py")):
            if path.stem != "__main__":  # importing it runs the command line
                module = importlib.import_module(f"dtnmetrics.{path.stem}")
                found += [f"{path.name}: {name}" for name, value in vars(module).items()
                          if isinstance(value, np.ndarray)]
        assert found == []

    def test_modules_import_no_private_names_from_each_other(self):
        # a name with a leading underscore belongs to its module alone
        package = Path(dtnmetrics.__file__).resolve().parent
        found = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                inside = isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("dtnmetrics"))
                found += [f"{path.name}: from {'.' * node.level}{node.module} import {a.name}"
                          for a in (node.names if inside else ()) if a.name.startswith("_")]
        assert found == []

    def test_every_public_name_has_its_own_docstring(self):
        # constants are documented where they are defined; a dataclass with
        # no docstring gets its signature as __doc__
        missing = []
        for name in dtnmetrics.__all__:
            obj = getattr(dtnmetrics, name)
            doc = vars(obj).get("__doc__") if isinstance(obj, type) else obj.__doc__
            if callable(obj) and (not doc or doc.startswith(f"{name}(")):
                missing.append(name)
        assert missing == []

    def test_no_module_raises_a_bare_value_error(self):
        # every library check of input raises InputError, on which the
        # command line exits 2; a bare ValueError would exit 1
        package = Path(dtnmetrics.__file__).resolve().parent
        found = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                exc = node.exc if isinstance(node, ast.Raise) else None
                if isinstance(exc, ast.Call):
                    exc = exc.func
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []


class TestSortHygiene:
    def test_rows_are_ordered_only_by_the_one_primitive(self):
        # every row ordering goes through trace_model.row_order; no lexsort
        # and no stable argsort is left anywhere
        package = Path(dtnmetrics.__file__).resolve().parent
        found, primitives = [], 0
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            inside = set()
            for node in ast.walk(tree):
                if (path.name == "trace_model.py" and isinstance(node, ast.FunctionDef)
                        and node.name == "row_order"):
                    primitives += 1
                    inside.update(map(id, ast.walk(node)))
            for node in ast.walk(tree):
                if id(node) in inside:
                    continue
                if (isinstance(node, ast.Attribute) and node.attr == "lexsort"
                        or isinstance(node, ast.Name) and node.id == "lexsort"):
                    found.append(f"{path.name}:{node.lineno}: lexsort")
                if (isinstance(node, ast.keyword) and node.arg == "kind"
                        and isinstance(node.value, ast.Constant) and node.value.value == "stable"):
                    found.append(f'{path.name}:{node.value.lineno}: kind="stable"')
        assert primitives == 1
        assert found == []


class TestColumnarTrace:
    @staticmethod
    def commands(tmp_path, six_node_file):
        one, common = str(tmp_path / "rwp.one"), str(tmp_path / "rwp.txt")
        return [
            ["generate", "--nodes", "5", "--duration", "120", "--area-width", "100",
             "--area-height", "100", "--seed", "2", "--format", "one", "--output", one],
            ["convert", "--input", one, "--from", "one", "--to", "common", "--output", common],
            ["convert", "--input", common, "--from", "common", "--to", "one"],
            ["window", "--input", six_node_file],
            ["analyze", "--input", six_node_file],
            ["analyze", "--input", one, "--format", "one", "--window", "30",
             "--period", "0:60", "--period", "60:120"],
            ["matrix", "--input", six_node_file, "--window", "300"],
        ]

    def test_commands_build_no_contact_events(self, tmp_path, six_node_file):
        # every command reads the trace's columns; ContactEvent is only the
        # row view, so no CLI path may build one
        refuse = mock.Mock(side_effect=AssertionError("ContactEvent built"))
        with mock.patch.object(ContactEvent, "__post_init__", refuse):
            for argv in self.commands(tmp_path, six_node_file):
                assert main(argv) == EXIT_OK, argv
        refuse.assert_not_called()

    def test_commands_build_no_view_objects(self, tmp_path, six_node_file):
        # the static graph and the snapshots are read as columns too; their
        # id-set views are for library callers
        views = [(AggregatedGraph, "nodes"), (AggregatedGraph, "edges"),
                 (SnapshotSequence, "windows")]
        with ExitStack() as stack:
            refused = [
                stack.enter_context(mock.patch.object(
                    cls, name, new_callable=mock.PropertyMock,
                    side_effect=AssertionError(f"{cls.__name__}.{name} read")))
                for cls, name in views
            ]
            for argv in self.commands(tmp_path, six_node_file):
                assert main(argv) == EXIT_OK, argv
        for view in refused:
            view.assert_not_called()


class TestWindowCountBound:
    @pytest.mark.parametrize("command", ["analyze", "matrix"])
    def test_tiny_window_rejected_before_allocation(self, capsys, six_node_file, command):
        tracemalloc.start()
        try:
            rc = main([command, "--input", six_node_file, "--window", "1e-6"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == EXIT_USAGE
        assert "too fine" in capsys.readouterr().err
        assert peak < 1 << 20

    def test_unbounded_period_is_usage_error(self, capsys, six_node_file):
        rc = main(["analyze", "--input", six_node_file, "--tmin=-inf", "--window", "300"])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("nodes, windows", [(100, 8000), (10, 25298), (2, 56568)])
    def test_admits_the_measured_sizes(self, nodes, windows):
        period = AnalysisPeriod(0, windows * 60)
        clipped = ContactTrace.from_events([ContactEvent(0, 1, 0, 60)], extra_nodes=range(nodes))
        assert _window_width(clipped, period, 60.0) == 60.0
        with pytest.raises(InputError, match="too fine"):
            _window_width(clipped, period, 59.0)
