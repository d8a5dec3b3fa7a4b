"""One client session: a fresh interpreter that runs a workload's commands.

Usage: ``python3 perfbench/session.py SPEC.json``. The spec names the
``src`` directory to import ``dtnmetrics`` from, the commands (argv lists
for ``dtnmetrics.cli.main``, run in order, in process), the output file of
each command, whether to trace, and where to write the result JSON.

Times the import of ``dtnmetrics.cli`` (numpy and networkx included, as
every CLI call pays it), then each command, then records the peak RSS of
this process. Right before the import and before each command it also
times a fixed reference kernel, which the benchmark uses to take the
host's speed out of the timings. Fingerprints are taken after the last
command, outside every timed region.
"""

import hashlib
import json
import random
import resource
import sys
import time
import traceback

_KERNEL_DATA = list(range(40_000))
random.Random(5).shuffle(_KERNEL_DATA)


def reference_seconds() -> float:
    """Fastest of three runs of a fixed pure-Python kernel (about 12 ms).

    The kernel allocates nothing the cyclic garbage collector tracks, so its
    time follows the host's speed, not the size of the program's heap.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        x = 0
        for i in range(40_000):
            x = (x * 1103515245 + i) & 0x7FFFFFFF
        sorted(_KERNEL_DATA)
        best = min(best, time.perf_counter() - start)
    return best


def fingerprint(outputs: dict[str, str]) -> dict[str, str]:
    """sha256 per output file, keyed by the command that wrote it.

    The analyze report is hashed without its dataset_name column, which
    holds the input path.
    """
    out = {}
    for command, path in outputs.items():
        with open(path, "rb") as fh:
            data = fh.read()
        if command == "analyze":
            rows = [line.split(b"\t", 1)[1] for line in data.splitlines()]
            data = b"\n".join(rows)
        out[command] = hashlib.sha256(data).hexdigest()
    return out


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    setup_reference_s = reference_seconds()
    t_import = time.perf_counter()
    import dtnmetrics.cli as cli  # the timed set-up

    setup_s = time.perf_counter() - t_import
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer(spec["run"])
        tracing.install(tracer)
    commands = []
    for name, argv in spec["commands"]:
        error = None
        reference_s = reference_seconds()
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - recorded as a failed command
            rc = None
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
        commands.append({"name": name, "seconds": seconds, "reference_s": reference_s,
                         "rc": rc, "error": error})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "setup_s": setup_s,
        "setup_reference_s": setup_reference_s,
        "commands": commands,
        "peak_rss_mb": peak_rss_mb,
    }
    try:
        result["fingerprint"] = fingerprint(spec["outputs"])
    except (OSError, IndexError) as exc:
        result["fingerprint"] = {"error": repr(exc)}
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts)
        result["spans"] = [vars(s) for s in tracer.spans]
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
