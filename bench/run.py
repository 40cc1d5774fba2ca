"""Benchmark of wsys: four workloads, end-to-end and per-layer metrics.

Run from the root of a wsys checkout:

    python3 bench/run.py --workload family --seed 1 --seconds 20 --trace 0

A run is a sequence of rounds; each round is a fresh interpreter
(bench/worker.py) that sets up, sends the workload's inputs through
wsys one at a time, and reports.  Rounds repeat until --seconds have
passed and at least 100 inputs have been timed.  The first round also
checks every output; every round must produce the same outputs.  The
last line printed is one JSON object: with --trace 0 it holds the
end-to-end metrics, with --trace 1 the per-layer metrics of
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 8  # set-up-only interpreters per run, besides the rounds
ROUND_TIMEOUT_S = 150
MIN_TIMED = 100  # inputs timed per run: ten lie beyond the 90th percentile


def worker(workload: str, seed: int, *flags: str) -> tuple[dict, float]:
    """Run one worker; returns its report and its set-up time."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed), *flags]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        out, err = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload} round exceeded {ROUND_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} round failed:\n{err.strip()}")
    report = json.loads(out.strip().splitlines()[-1])
    return report, report["ready"] - spawned


def wants_more(rounds: list, elapsed: float, seconds: float, trace: int) -> bool:
    """Another round is due until the run has measured for `seconds`, has
    timed at least MIN_TIMED inputs and, when traced, has also done an
    untraced round."""
    timed = sum(r["attempted"] for r in rounds)
    return elapsed < seconds or timed < MIN_TIMED or (trace and len(rounds) < 2)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["family", "recurrence", "subsets", "cli"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "wsys", "__init__.py")):
        print("bench: no src/wsys here; run from the root of a wsys checkout", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)

    try:
        worker(args.workload, args.seed, "--setup-only")  # writes the bytecode caches
        start = time.monotonic()
        setups = [worker(args.workload, args.seed, "--setup-only")[1] for _ in range(SETUP_PROBES)]
        rounds = []
        while wants_more(rounds, time.monotonic() - start, args.seconds, args.trace):
            flags = [] if rounds else ["--check"]
            traced = args.trace and len(rounds) % 2 == 0
            if traced:
                flags.append("--trace")
            report, setup_s = worker(args.workload, args.seed, *flags)
            report["traced"] = traced
            setups.append(setup_s)
            rounds.append(report)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    failures = rounds[0]["failures"]
    if len({r["digest"] for r in rounds}) != 1:
        failures.append("rounds of the same inputs produced different outputs")
    errors = [e for r in rounds for e in r["errors"]]
    for line in (failures + sorted(set(errors)))[:20]:
        print(f"bench: {line}", file=sys.stderr)

    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        plain = [r for r in rounds if not r["traced"]]
        layers = {
            m["name"]: statistics.median([r["layers"].get(m["name"], 0) for r in traced])
            for m in spec["per_layer"]
        }
        layers["trace.overhead_s"] = statistics.median([r["wall_s"] for r in traced]) - statistics.median(
            [r["wall_s"] for r in plain]
        )
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        times = [t for r in rounds for t in r["times"]]
        deciles = statistics.quantiles(times, n=10)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median([r["wall_s"] for r in rounds]),
            "call_p50_ms": statistics.median(times) * 1000,
            "call_p90_ms": deciles[8] * 1000,
            "peak_rss_mb": statistics.median([r["rss_mb"] for r in rounds]),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        print(
            f"bench: {args.workload} seed {args.seed}: {len(rounds)} rounds, "
            f"{len(times)} timed calls, {len(setups)} set-ups",
            file=sys.stderr,
        )

    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": sum(r["attempted"] for r in rounds),
                "failed": len(errors),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
