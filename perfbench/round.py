"""One round of one workload, in a fresh interpreter.

run.py starts this script once per round, so every round begins with
cold caches and owns its peak memory.  It prints `ready` once equivol is
imported and the documents are generated and parsed, then one JSON line
with the round's timings, per-operation fingerprints and, when asked, the
check verdicts and per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_equivol():
    """Import equivol from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import equivol

    if Path(equivol.__file__).resolve().parent != (SRC / "equivol").resolve():
        raise ImportError(f"equivol imported from {equivol.__file__}, not from {SRC}")
    return equivol


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--check", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="file to write the round's spans to")
    args = parser.parse_args(argv)

    import_equivol()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.active = True
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    ops = workload.operations()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    outputs, latencies = [], []
    cpu_start, start = process_time(), perf_counter()
    for _, op in ops:
        t0 = perf_counter()
        try:
            out = op()
        except Exception as exc:  # a failing operation is counted, not fatal
            out = workloads.Raised(exc)
        latencies.append(perf_counter() - t0)
        outputs.append(out)
    wall, cpu = perf_counter() - start, process_time() - cpu_start
    if tracer is not None:
        tracer.active = False
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "latencies_s": latencies,
        "peak_rss_mib": peak_rss_mib,
        "fingerprints": [hashlib.sha256(workload.fingerprint(o).encode()).hexdigest()[:16] for o in outputs],
    }
    if args.check:
        verdicts = workload.check(outputs)
        result["failures"] = [[i, label, v] for i, ((label, _), v) in enumerate(zip(ops, verdicts)) if v is not None]
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans_recorded"] = len(tracer.spans)
        result["spans_dropped"] = tracer.dropped
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"fields": ["id", "parent", "function", "start", "end"], "spans": tracer.spans}, fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
