"""Output checks, run after the timed sessions.

Each check names the command whose output it judges, so that a failure
counts against that command. Every session's outputs carry the same
fingerprints (checked separately), so checking the last session's files
checks them all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Failure:
    command: str
    message: str


def read_matrix(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.asarray(json.loads(fh.read()), dtype=np.int64)


def read_report(path: str) -> list[dict[str, str]]:
    with open(path, encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    names = header.split("\t")
    return [dict(zip(names, row.split("\t"))) for row in rows]


def _g(value: float) -> str:
    return f"{value:.6g}"


def check_matrix_shape(m: np.ndarray) -> list[Failure]:
    out = []
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return [Failure("matrix", f"matrix is not square: shape {m.shape}")]
    if np.any(np.diag(m) != 0):
        out.append(Failure("matrix", "matrix diagonal is not all 0"))
    if np.any(m < -1):
        out.append(Failure("matrix", f"matrix entry below -1: {int(m.min())}"))
    return out


def check_report_against_matrix(row: dict[str, str], m: np.ndarray) -> list[Failure]:
    """The report's summary columns, recomputed from the matrix output."""
    n = m.shape[0]
    w = float(row["time_window"])
    off = m[~np.eye(n, dtype=bool)]
    finite = off[off >= 0]
    hops = int(finite.max()) if finite.size else 0
    expected = {
        "total_nodes": str(n),
        "reachable_pairs": str(int(finite.size)),
        "average_temporal_distance": _g(w * int(off[off > 0].sum()) / (n * (n - 1))),
        "temporal_diameter_hops": str(hops),
        "temporal_diameter_seconds": _g(hops * w),
    }
    return [
        Failure("analyze", f"report {key}={row.get(key)!r}, matrix gives {value!r}")
        for key, value in expected.items()
        if row.get(key) != value
    ]


def sample_pairs(labels, seed: int, count: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng([seed, 3])
    n = len(labels)
    pairs = []
    while len(pairs) < count:
        i, j = rng.integers(0, n, 2)
        if i != j:
            pairs.append((int(i), int(j)))
    return pairs


def check_pair_distances(
    trace_path: str,
    period: tuple[float, float],
    w: float,
    m: np.ndarray,
    seed: int,
    exact: bool,
) -> list[Failure]:
    """Sampled pairs: the paper distance equals the matrix entry and, when
    ``exact`` is set, the edge-respecting distance is never below it."""
    from dtnmetrics import (
        AnalysisPeriod,
        WindowConfig,
        build_snapshots,
        clip_to_period,
        parse_common_format,
        temporal_distance_exact,
        temporal_distance_paper,
    )

    with open(trace_path, encoding="utf-8") as fh:
        trace = parse_common_format(fh.read())
    span = AnalysisPeriod(*period)
    cfg = WindowConfig(w)
    clipped = clip_to_period(trace, span)
    snaps = build_snapshots(clipped, span, cfg)
    labels = snaps.nodes
    if len(labels) != m.shape[0]:
        return [Failure("matrix", f"matrix has {m.shape[0]} rows for {len(labels)} nodes")]
    out = []
    for a, b in sample_pairs(labels, seed, 40):
        i, j = labels[a], labels[b]
        entry = int(m[a, b])
        paper = temporal_distance_paper(snaps, i, j)
        if (-1 if paper is None else paper) != entry:
            out.append(Failure("matrix", f"paper distance {i}->{j} is {paper}, matrix {entry}"))
        if exact:
            d = temporal_distance_exact(clipped, span, cfg, i, j, snapshots=snaps)
            if d is not None and (entry < 0 or d < entry):
                out.append(
                    Failure("matrix", f"exact distance {i}->{j} is {d}, below matrix {entry}")
                )
    return out


def check_convert(one_path: str, common_path: str) -> list[Failure]:
    """The ONE report and its converted common-format file hold the same events."""
    from dtnmetrics import parse_common_format, parse_one_report

    with open(one_path, encoding="utf-8") as fh:
        one = parse_one_report(fh.read())
    with open(common_path, encoding="utf-8") as fh:
        common = parse_common_format(fh.read())
    if one.events != common.events:
        return [Failure("convert", "converted trace differs from the ONE-parsed trace")]
    return []


def check_generate(path: str, nodes: int) -> list[Failure]:
    """The generated report parses and names no node outside 0..nodes-1."""
    from dtnmetrics import parse_one_report

    with open(path, encoding="utf-8") as fh:
        trace = parse_one_report(fh.read())
    if not trace.nodes <= set(range(nodes)):
        return [Failure("generate", f"generated trace has nodes outside 0..{nodes - 1}")]
    return []
