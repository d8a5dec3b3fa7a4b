"""Rewrite ``perfbench/baseline.json``: machine, fingerprints, first numbers.

Usage, from the root of a checkout::

    python3 perfbench/record.py

For each workload it runs one session with the default seed, checks its
outputs and records their fingerprints, which later runs with that seed
must reproduce. It then runs the benchmark once untraced and once traced
per workload, for the ``run_seconds`` of ``BENCHMARK.json``, and records
what those runs report as the first numbers. Run it
only when the program's outputs are meant to change, and say so.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import run

# Which per-layer metric should move which end-to-end metric, and where.
LAYER_MAP = [
    ("ingestion.parse_s", ["analyze_s", "matrix_s"], "dense-contacts"),
    ("ingestion.parse_s", ["analyze_s", "convert_s"], "synth-days"),
    ("ingestion.parse_us_per_row", ["analyze_s", "matrix_s"], "dense-contacts"),
    ("ingestion.clip_s", ["analyze_s"], "dense-contacts"),
    ("ingestion.clip_s", ["analyze_s"], "synth-days"),
    ("ingestion.write_s", ["generate_s", "convert_s"], "synth-days"),
    ("windowing.aggregates_s", ["analyze_s"], "dense-contacts"),
    ("windowing.snapshots_s", ["analyze_s", "matrix_s"], "dense-contacts"),
    ("temporal_metrics.matrix_s", ["matrix_s", "analyze_s"], "dense-contacts"),
    ("temporal_metrics.matrix_s", ["matrix_s"], "sparse-long"),
    ("temporal_metrics.matrix_ns_per_pair_window", ["matrix_s", "analyze_s"], "dense-contacts"),
    ("temporal_metrics.betweenness_s", ["analyze_s"], "sparse-long"),
    ("temporal_metrics.summary_s", ["analyze_s"], "synth-days"),
    ("static_metrics.aggregate_s", ["analyze_s"], "synth-days"),
    ("static_metrics.paths_s", ["analyze_s"], "synth-days"),
    ("static_metrics.centrality_s", ["analyze_s"], "synth-days"),
    ("rwp_gen.generate_s", ["generate_s"], "synth-days"),
    ("rwp_gen.ns_per_tick_pair", ["generate_s"], "synth-days"),
    ("cli.read_s", ["analyze_s", "matrix_s", "convert_s"], "dense-contacts"),
    ("cli.render_s", ["analyze_s", "matrix_s", "generate_s", "convert_s"], "synth-days"),
    ("cli.self_s", ["analyze_s", "matrix_s", "generate_s", "convert_s"], "synth-days"),
]


def machine() -> dict:
    import networkx
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
    }


def fingerprints(seed: int) -> dict:
    src = Path.cwd() / "src"
    out = {}
    for name, make in run.WORKLOADS.items():
        work = Path.cwd() / ".perfbench" / f"record-{name}"
        work.mkdir(parents=True, exist_ok=True)
        wl = make(seed, work)
        session = run.run_session(0, False, wl, src, work)
        if session.result is None:
            raise SystemExit(f"{name}: {session.error}")
        bad = [c for c in session.result["commands"] if c["rc"] != 0]
        failures = run.run_checks(wl, seed)
        if bad or failures:
            raise SystemExit(f"{name}: failed commands {bad} or checks {failures}")
        out[name] = {str(seed): session.result["fingerprint"]}
    return out


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if not last["correct"]:
        raise SystemExit(f"{workload}: run failed\n{proc.stderr}")
    return {k: v["value"] for k, v in last["metrics"].items()}


def main() -> int:
    seconds = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    seed = run.DEFAULT_SEED
    path = run.HERE / "baseline.json"
    baseline = {
        "machine": machine(),
        "default_seed": seed,
        "layer_map": [
            {"layer": layer, "moves": moves, "workload": workload}
            for layer, moves, workload in LAYER_MAP
        ],
        "fingerprints": fingerprints(seed),
    }
    path.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    baseline["first_numbers"] = {
        name: {
            "seed": seed,
            "seconds": seconds,
            "end_to_end": measure(name, seed, seconds, 0),
            "per_layer": measure(name, seed, seconds, 1),
        }
        for name in run.WORKLOADS
    }
    path.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
