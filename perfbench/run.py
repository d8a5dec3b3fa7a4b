"""Benchmark of the dtnmetrics CLI: three workloads, one closed-loop client.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dense-contacts --seed 1 --seconds 30 --trace 0

The benchmark writes the workload's inputs from ``--seed``, then runs
client sessions back to back (closed loop, one process, no threads) until
``--seconds`` have passed. A session is a fresh interpreter that imports
``dtnmetrics`` from ``src/`` and calls ``dtnmetrics.cli.main`` once per
command of the workload, in order: ``generate`` a random-waypoint trace,
``convert`` it to the common format, ``analyze``, then ``matrix``. The
dense-contacts and sparse-long sessions analyse a trace this benchmark
draws with numpy (``inputs.py``); synth-days analyses the generated one.
Every metric is the median over the run's untraced sessions, each timing
scaled by the host's speed at the time (see ``REFERENCE_S``); the raw
medians are printed next to them. After the sessions it checks every
output; a failed check, a nonzero exit or an exception counts as a failed
command.

With ``--trace 1`` traced sessions alternate with untraced ones. The traced
ones wrap each module's layer boundaries from outside (see ``tracing.py``)
and give the per-layer metrics, raw medians over the traced sessions; the
spans are written to
``.perfbench/<workload>-<seed>/trace.json`` at the end.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

DEFAULT_SEED = 1
MIN_SESSIONS = 3
MIN_TRACED = 2
SESSION_TIMEOUT_S = 100
# Seconds the reference kernel (session.reference_seconds) takes on the
# 2-CPU Xeon these workloads were sized on. A timing t taken right after the
# kernel took r is reported as t * REFERENCE_S / r. That host slows whole
# 10-40 s stretches by up to 1.6x, which moved the medians of raw timings
# by up to 27% between 35 s runs; the kernel slows with it.
REFERENCE_S = 0.012

# Sizes are chosen so one session takes about two seconds on a 2-CPU Xeon,
# which fits 15 or more sessions in a 35 s run.
DENSE = dict(nodes=98, span=600, w=30, events=15_000)
SPARSE = dict(nodes=36, span=10_000, w=20, events=450)
# The random-waypoint trace every session generates and converts; the
# synth-days workload also analyses it, one period per "day" plus the whole
# trace, with a fixed window so the work does not depend on the seed.
RWP = dict(nodes=60, duration=3000, area=250, range=40, days=10, window=60)

UNITS = {
    "setup_s": "s",
    "analyze_s": "s",
    "matrix_s": "s",
    "generate_s": "s",
    "convert_s": "s",
    "peak_rss_mb": "MB",
}
COMMANDS = ("generate", "convert", "analyze", "matrix")


@dataclass
class Workload:
    """Commands of one session, their outputs and what the checks need.

    ``matrix`` runs on ``matrix_input`` over ``[0, span]`` with ``window``;
    the first report row covers the same period, so the checks can compare
    the two.
    """

    commands: list[tuple[str, list[str]]]
    outputs: dict[str, str]
    matrix_input: str
    span: int
    window: int
    report_rows: int
    exact_check: bool


def _outputs(work: Path) -> dict[str, str]:
    names = {"generate": "rwp.one", "convert": "rwp.txt", "analyze": "report.tsv",
             "matrix": "matrix.txt"}
    return {command: str(work / name) for command, name in names.items()}


def _workload(work: Path, seed: int, analyze: list[str], matrix_input: str, span: int,
              window: int, report_rows: int = 1, exact_check: bool = False) -> Workload:
    """generate and convert the random-waypoint trace, then analyze and matrix."""
    out = _outputs(work)
    size = str(RWP["area"])
    commands = [
        ("generate", ["generate", "--nodes", str(RWP["nodes"]),
                      "--duration", str(RWP["duration"]), "--area-width", size,
                      "--area-height", size, "--range", str(RWP["range"]), "--tick", "1",
                      "--seed", str(seed), "--format", "one", "--output", out["generate"]]),
        ("convert", ["convert", "--input", out["generate"], "--from", "one", "--to", "common",
                     "--output", out["convert"]]),
        ("analyze", ["analyze", *analyze, "--report-format", "delimited",
                     "--output", out["analyze"]]),
        ("matrix", ["matrix", "--input", matrix_input, "--tmin", "0", "--tmax", str(span),
                    "--window", str(window), "--output", out["matrix"]]),
    ]
    return Workload(commands, out, matrix_input, span, window, report_rows, exact_check)


def _own_trace(trace: inputs.Trace, seed: int, work: Path, exact_check: bool) -> Workload:
    path = str(work / "input.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(inputs.common_format_text(trace))
    analyze = ["--input", path, "--tmin", "0", "--tmax", str(trace.span),
               "--window", str(trace.w)]
    return _workload(work, seed, analyze, path, trace.span, trace.w, exact_check=exact_check)


def dense_contacts(seed: int, work: Path) -> Workload:
    return _own_trace(inputs.dense_contacts(seed, **DENSE), seed, work, exact_check=False)


def sparse_long(seed: int, work: Path) -> Workload:
    return _own_trace(inputs.sparse_long(seed, **SPARSE), seed, work, exact_check=True)


def synth_days(seed: int, work: Path) -> Workload:
    duration = RWP["duration"]
    day = duration // RWP["days"]
    periods = ["--period", f"0:{duration}"]
    for k in range(RWP["days"]):
        periods += ["--period", f"{k * day}:{(k + 1) * day}"]
    out = _outputs(work)
    analyze = ["--input", out["generate"], "--format", "one", *periods,
               "--window", str(RWP["window"])]
    return _workload(work, seed, analyze, out["convert"], duration, RWP["window"],
                     report_rows=1 + RWP["days"])


WORKLOADS = {
    "dense-contacts": dense_contacts,
    "sparse-long": sparse_long,
    "synth-days": synth_days,
}


@dataclass
class Session:
    index: int
    traced: bool
    result: dict | None
    error: str | None = None
    failed: set = field(default_factory=set)


def run_session(index: int, traced: bool, wl: Workload, src: Path, work: Path) -> Session:
    spec_path = work / f"session-{index}.spec.json"
    result_path = work / f"session-{index}.result.json"
    spec = {
        "src": str(src),
        "commands": wl.commands,
        "outputs": wl.outputs,
        "trace": traced,
        "run": index,
        "result": str(result_path),
    }
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "session.py"), str(spec_path)],
            capture_output=True,
            text=True,
            timeout=SESSION_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return Session(index, traced, None, f"session timed out after {SESSION_TIMEOUT_S} s")
    if proc.returncode != 0 or not result_path.exists():
        return Session(index, traced, None, f"session exited {proc.returncode}: {proc.stderr}")
    return Session(index, traced, json.loads(result_path.read_text(encoding="utf-8")))


def load_baseline_fingerprints(workload: str, seed: int) -> dict[str, str] | None:
    path = HERE / "baseline.json"
    if not path.exists():
        return None
    recorded = json.loads(path.read_text(encoding="utf-8")).get("fingerprints", {})
    return recorded.get(workload, {}).get(str(seed))


def mark_failures(sessions: list[Session], expected: dict[str, str] | None) -> list[str]:
    """Flag each failed command per session; return messages to print."""
    messages = []
    reference = expected
    for s in sessions:
        if s.result is None:
            s.failed.update(COMMANDS)
            messages.append(f"session {s.index}: {s.error}")
            continue
        for cmd in s.result["commands"]:
            if cmd["rc"] != 0:
                s.failed.add(cmd["name"])
                messages.append(
                    f"session {s.index}: {cmd['name']} exited {cmd['rc']}"
                    + (f"\n{cmd['error']}" if cmd["error"] else "")
                )
        prints = s.result["fingerprint"]
        if reference is None:
            reference = prints
        for name in COMMANDS:
            if prints.get(name) != reference.get(name):
                s.failed.add(name)
                messages.append(f"session {s.index}: {name} output fingerprint mismatch")
    return messages


def run_checks(wl: Workload, seed: int) -> list[checks.Failure]:
    """Every output check; a check that raises fails its command."""
    sys.path.insert(0, str(Path.cwd() / "src"))
    try:
        m = checks.read_matrix(wl.outputs["matrix"])
        rows = checks.read_report(wl.outputs["analyze"])
    except (OSError, ValueError) as exc:
        return [checks.Failure("matrix", f"unreadable output: {exc}")]
    failures = checks.check_matrix_shape(m)
    if len(rows) != wl.report_rows:
        failures.append(checks.Failure("analyze", f"{len(rows)} report rows, want {wl.report_rows}"))
    if failures:
        return failures
    for command, check in (
        ("analyze", lambda: checks.check_report_against_matrix(rows[0], m)),
        ("matrix", lambda: checks.check_pair_distances(
            wl.matrix_input, (0, wl.span), wl.window, m, seed, wl.exact_check)),
        ("convert", lambda: checks.check_convert(wl.outputs["generate"], wl.outputs["convert"])),
        ("generate", lambda: checks.check_generate(wl.outputs["generate"], RWP["nodes"])),
    ):
        try:
            failures += check()
        except Exception as exc:  # noqa: BLE001 - a crashing check fails its command
            failures.append(checks.Failure(command, f"check raised {exc!r}"))
    return failures


def high_percentile(values: list[float]) -> tuple[str, float] | None:
    """The highest of p50..p99 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}", statistics.quantiles(values, n=100)[p - 1]
    return None


def end_to_end(sessions: list[Session]) -> tuple[dict, dict]:
    """Per metric, the host-normalised samples and the raw ones."""
    scaled: dict[str, list[float]] = defaultdict(list)
    raw: dict[str, list[float]] = defaultdict(list)
    for s in sessions:
        if s.result is None or s.traced:
            continue
        timings = [("setup_s", s.result["setup_s"], s.result["setup_reference_s"])]
        timings += [(f"{c['name']}_s", c["seconds"], c["reference_s"])
                    for c in s.result["commands"]]
        for name, seconds, reference_s in timings:
            raw[name].append(seconds)
            scaled[name].append(seconds * REFERENCE_S / reference_s)
        for samples in (scaled, raw):
            samples["peak_rss_mb"].append(s.result["peak_rss_mb"])
    return scaled, raw


def session_total(s: Session) -> float:
    return sum(c["seconds"] for c in s.result["commands"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    root = Path.cwd()
    src = root / "src"
    if not (src / "dtnmetrics" / "cli.py").is_file():
        print(f"error: no dtnmetrics sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
    except inputs.RegimeError as exc:
        print(f"error: seed {args.seed}: {exc}", file=sys.stderr)
        return 3

    sessions: list[Session] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(sessions) % 2 == 1
        sessions.append(run_session(len(sessions), traced, wl, src, work))
        untraced = sum(1 for s in sessions if not s.traced)
        enough = untraced >= MIN_SESSIONS and (
            not args.trace or len(sessions) - untraced >= MIN_TRACED
        )
        if enough and time.perf_counter() - start >= args.seconds:
            break

    messages = mark_failures(sessions, load_baseline_fingerprints(args.workload, args.seed))
    for failure in run_checks(wl, args.seed):
        messages.append(f"check: {failure.command}: {failure.message}")
        for s in sessions:
            s.failed.add(failure.command)
    attempted = len(sessions) * len(COMMANDS)
    failed = sum(len(s.failed) for s in sessions)

    samples, raw = end_to_end(sessions)
    e2e = {k: statistics.median(v) for k, v in samples.items()}
    print(f"workload {args.workload}  seed {args.seed}  sessions {len(sessions)}"
          f"  ({sum(s.traced for s in sessions)} traced)")
    for name, unit in UNITS.items():
        values = samples.get(name, [])
        if not values:
            print(f"  {name:<14} no successful samples")
            continue
        high = high_percentile(values)
        tail = f"{high[0]} {high[1]:.6g}" if high else "no percentile has 10 samples beyond it"
        print(f"  {name:<14} median {e2e[name]:<10.6g} {unit:<3} {tail} (n={len(values)});"
              f"  raw median {statistics.median(raw[name]):.6g} min {min(raw[name]):.6g}")
    print(f"  {'error_rate':<14} {failed / attempted:.6g} ratio  ({failed} failed of {attempted})")
    for msg in messages:
        print(f"  FAILED {msg}", file=sys.stderr)

    if args.trace:
        traced = [s for s in sessions if s.traced and s.result is not None]
        plain = [s for s in sessions if not s.traced and s.result is not None]
        metrics = _layer_report(traced, plain, work) if traced and plain else {}
        out = {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in metrics.items()}
    else:
        out = {k: {"value": e2e[k], "unit": u} for k, u in UNITS.items() if k in e2e}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


def _layer_report(traced: list[Session], plain: list[Session], work: Path) -> dict[str, float]:
    """Per-layer medians over traced sessions; writes the spans to trace.json."""
    layers = tracing.medians([s.result["layers"] for s in traced])
    overhead = statistics.median(session_total(s) for s in traced) - statistics.median(
        session_total(s) for s in plain
    )
    layers["trace.overhead_s"] = overhead
    runs = [[tracing.Span(**span) for span in s.result["spans"]] for s in traced]
    self_by_layer: dict[str, float] = defaultdict(float)
    for spans in runs:
        for name, seconds in tracing.self_times(spans).items():
            self_by_layer[name.split(".")[0]] += seconds / len(runs)
    # A span's parent is an index into the span list of its own run.
    (work / "trace.json").write_text(json.dumps({
        "runs": [[vars(span) for span in spans] for spans in runs],
        "self_s_per_session": dict(self_by_layer),
        "metrics": layers,
    }), encoding="utf-8")
    print(f"  spans of {len(traced)} traced sessions written to {work / 'trace.json'}")
    for name, value in layers.items():
        print(f"  {name:<44} {value:.6g} {tracing.UNITS[name]}")
    for layer, seconds in sorted(self_by_layer.items(), key=lambda kv: -kv[1]):
        print(f"  self {layer:<39} {seconds:.6g} s per session")
    return layers


if __name__ == "__main__":
    raise SystemExit(main())
