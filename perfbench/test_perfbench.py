"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

import inputs
import run
import tracing

REPO = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _same(t1: inputs.Trace, t2: inputs.Trace) -> bool:
    return all(
        np.array_equal(getattr(t1, f), getattr(t2, f)) for f in ("a", "b", "start", "end")
    )


SMALL_DENSE = dict(nodes=10, span=300, w=30, events=400)
SMALL_SPARSE = dict(nodes=16, span=3000, w=20, events=150)


@pytest.mark.parametrize(
    "make, sizes",
    [(inputs.dense_contacts, SMALL_DENSE), (inputs.sparse_long, SMALL_SPARSE)],
)
def test_generator_is_deterministic_per_seed(make, sizes):
    assert _same(make(4, **sizes), make(4, **sizes))
    assert not _same(make(4, **sizes), make(5, **sizes))


@pytest.mark.parametrize("seed", range(1, 6))
def test_full_size_traces_meet_their_regimes(seed):
    dense = inputs.measure_regime(inputs.dense_contacts(seed, **run.DENSE))
    assert dense.events == run.DENSE["events"]
    assert dense.windows == run.DENSE["span"] // run.DENSE["w"]
    assert dense.occupancy_min == run.DENSE["nodes"]
    assert dense.zero_distance_share == 1.0
    sparse = inputs.measure_regime(inputs.sparse_long(seed, **run.SPARSE))
    assert sparse.windows == run.SPARSE["span"] // run.SPARSE["w"]
    assert 3.0 <= sparse.occupancy_mean <= 10.0
    assert sparse.diameter_hops > 100


def test_regime_miss_fails_loudly():
    # 50 windows cannot hold a journey of more than 100 hops.
    with pytest.raises(inputs.RegimeError, match="diameter"):
        inputs.sparse_long(1, nodes=16, span=1000, w=20, events=60)


def test_reference_distances_match_the_worked_example():
    # Six nodes A..F, three windows: {A, B}, {C, E, F}, {B, C, D}.
    occ = np.zeros((3, 6), dtype=bool)
    occ[0, [0, 1]] = True
    occ[1, [2, 4, 5]] = True
    occ[2, [1, 2, 3]] = True
    expected = [
        [0, 0, 2, 2, -1, -1],
        [0, 0, 2, 2, -1, -1],
        [-1, 1, 0, 1, 0, 0],
        [-1, 0, 0, 0, -1, -1],
        [-1, 1, 0, 1, 0, 0],
        [-1, 1, 0, 1, 0, 0],
    ]
    assert inputs.reference_distances(occ).tolist() == expected


def test_common_format_columns_are_rederived_per_pair():
    trace = inputs.Trace(
        np.array([0, 0, 1]), np.array([1, 1, 2]), np.array([0, 7, 3]),
        np.array([5, 8, 4]), 3, 10, 5,
    )
    assert inputs.common_format_text(trace).splitlines()[1:] == [
        "0 1 0 5 1 0",
        "0 1 7 8 2 7",
        "1 2 3 4 1 0",
    ]


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in [*e2e, *layers, *(w["name"] for w in spec["workloads"])]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert e2e == run.UNITS
    assert layers == tracing.UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_self_time_subtracts_children():
    spans = [
        tracing.Span("cli.command", 0.0, 10.0, None, 0),
        tracing.Span("ingestion.parse", 1.0, 4.0, 0, 0),
        tracing.Span("ingestion.merge", 2.0, 3.0, 1, 0),
        tracing.Span("temporal_metrics.matrix", 5.0, 9.0, 0, 0),
    ]
    assert tracing.self_times(spans) == {
        "cli.command": 3.0,
        "ingestion.parse": 2.0,
        "ingestion.merge": 1.0,
        "temporal_metrics.matrix": 4.0,
    }


def test_timings_are_scaled_by_the_reference_kernel():
    result = {
        "setup_s": 0.3,
        "setup_reference_s": 2 * run.REFERENCE_S,
        "commands": [{"name": "analyze", "seconds": 1.0, "reference_s": run.REFERENCE_S / 2}],
        "peak_rss_mb": 50.0,
    }
    scaled, raw = run.end_to_end([run.Session(0, False, result)])
    assert scaled == {"setup_s": [0.15], "analyze_s": [2.0], "peak_rss_mb": [50.0]}
    assert raw == {"setup_s": [0.3], "analyze_s": [1.0], "peak_rss_mb": [50.0]}


@pytest.fixture()
def small_sizes(monkeypatch):
    monkeypatch.setattr(run, "DENSE", SMALL_DENSE)
    monkeypatch.setattr(run, "SPARSE", SMALL_SPARSE)
    monkeypatch.setattr(
        run, "RWP", dict(nodes=10, duration=300, area=200, range=40, days=2, window=60)
    )
    monkeypatch.setattr(run, "MIN_SESSIONS", 1)
    monkeypatch.setattr(run, "MIN_TRACED", 1)
    monkeypatch.chdir(REPO)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(small_sizes, capsys, workload, trace):
    # Seed 7 has no recorded fingerprint, so the reduced sizes are checked
    # by the output checks alone.
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    names = tracing.UNITS if trace else run.UNITS
    assert set(last["metrics"]) == set(names)


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "sparse-long", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
