"""equivol benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload verify_corpus --seed 1 --seconds 50 --trace 0

Each round runs the workload's fixed list of operations once, in a fresh
interpreter started from this process (round.py), one round at a time, so
caches start cold as they do for a command-line call.  Rounds repeat until
--seconds have passed.  The first round's outputs are checked; every later
round must reproduce its outputs exactly.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced rounds and reports the per-layer metrics of the traced ones,
with trace.overhead_s, the traced minus the untraced wall time.  The last
line of standard output is one JSON object; raw per-round data and the
spans of the first traced round go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("verify_corpus", "table_sweep")
MIN_SETUPS = 11
ROUND_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "model.calls": "count",
    "model.self_s": "s",
    "counting.calls": "count",
    "counting.distinct_inputs": "count",
    "counting.repeat_ratio": "ratio",
    "counting.self_s": "s",
    "counting.oracle_s": "s",
    "volumes.calls": "count",
    "volumes.samples": "count",
    "volumes.self_s": "s",
    "geometry.calls": "count",
    "geometry.self_s": "s",
    "suites.calls": "count",
    "suites.self_s": "s",
    "tables.calls": "count",
    "tables.self_s": "s",
    "trace.overhead_s": "s",
}


class RoundFailed(RuntimeError):
    pass


def run_round(workload: str, seed: int, *, trace=False, check=False, setup_only=False, spans=None):
    """Start round.py; return (set-up seconds, parsed result or None)."""
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--check", str(int(check))]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    t0 = perf_counter()
    env = dict(os.environ, PYTHONHASHSEED="0")  # same dict and set layouts in every round
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(ROUND_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise RoundFailed(f"round exited with code {code} ({' '.join(cmd[1:])})")
    return setup_s, (None if setup_only else json.loads(rest.strip().splitlines()[-1]))


def percentile(values, p: float) -> float:
    """Nearest rank: the smallest value with at least p% of values at or below it."""
    xs = sorted(values)
    return xs[max(0, math.ceil(p / 100.0 * len(xs)) - 1)]


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    run_round(workload, seed, setup_only=True)  # compiles bytecode once, untimed
    setups, rounds = [], []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        for traced in ((False, True) if trace else (False,)):
            spans = OUT / f"{workload}-spans.json" if traced and not any(r["traced"] for r in rounds) else None
            setup_s, res = run_round(workload, seed, trace=traced, check=not rounds, spans=spans)
            res["traced"] = traced
            rounds.append(res)
            if not traced:
                setups.append(setup_s)
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(run_round(workload, seed, setup_only=True)[0])

    first = rounds[0]
    failing = {i for i, _, _ in first["failures"]}
    attempted = failed = mismatched = 0
    for r in rounds:
        differ = {i for i, (a, b) in enumerate(zip(r["fingerprints"], first["fingerprints"])) if a != b}
        attempted += len(r["fingerprints"])
        failed += len(failing | differ)
        mismatched += len(differ)
    plain = [r for r in rounds if not r["traced"]]
    if trace:
        traced = [r for r in rounds if r["traced"]]
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(r["wall_s"] for r in plain))
        units = PER_LAYER
    else:
        # an operation's latency is its median over the run's rounds
        latencies = [statistics.median(ls) for ls in zip(*(r["latencies_s"] for r in plain))]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "op_p50_ms": 1000.0 * percentile(latencies, 50),
            "op_p90_ms": 1000.0 * percentile(latencies, 90),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
        }
        units = END_TO_END
    raw = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
           "setups_s": setups, "failures": first["failures"],
           "rounds": [{k: v for k, v in r.items() if k != "fingerprints"} for r in rounds]}
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(raw))
    return {
        "correct": mismatched == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "rounds": len(rounds),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rounds = result.pop("rounds")
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, "
          f"{result['attempted']} operations attempted, {result['failed']} failed")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
