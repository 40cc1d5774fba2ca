"""Snapshot of the benchmark's end-to-end metrics, for committing as BENCH_<label>.json.

Run from the root of a wsys checkout (stdlib only):

    python3 tools/bench_snapshot.py --label 6
    python3 tools/bench_snapshot.py --label 5 --checkout ../parent-copy

Each run is `python3 bench/run.py --workload W --seed 1 --trace 0` in the
checkout, through `run_once` of tools/bench_pairs.py, RUNS times per
workload; the runs cycle through the workloads so that drift of the
machine spreads over all of them.  The snapshot records the checkout's
git SHA (and whether tracked files differ from it), the Python version
and `nproc`, the bytecode-cache state at the start (`bytecode_state` of
tools/bench_pairs.py, the checkout named "checkout"), since bytecode
caches move `setup_s`, the `cli` times and `peak_rss_mb`, and per
workload and metric the median, min and max over the runs, with
`correct` (every run), `attempted` and `failed` (summed over the runs).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from bench_pairs import bytecode_state, run_once

WORKLOADS = ("family", "recurrence", "subsets", "cli")
SEED = 1
RUNS = 3


def summarize(runs: list[dict]) -> dict:
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        metrics[name] = {
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "unit": first["unit"],
        }
    return {
        "runs": len(runs),
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the snapshot is written to BENCH_<label>.json")
    parser.add_argument("--checkout", default=".", help="wsys checkout to measure (default: here)")
    args = parser.parse_args()
    checkout = os.path.abspath(args.checkout)
    sha, dirty = (
        subprocess.run(["git", *cmd], cwd=checkout, capture_output=True, text=True, check=True).stdout.strip()
        for cmd in (["rev-parse", "HEAD"], ["status", "--porcelain", "--untracked-files=no"])
    )
    bytecode = bytecode_state({"checkout": checkout})

    runs: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    for i in range(RUNS):
        for workload in WORKLOADS:
            runs[workload].append(run_once(checkout, workload, SEED, None))
            wall = runs[workload][-1]["metrics"]["wall_s"]["value"]
            print(f"bench_snapshot: run {i + 1}/{RUNS} {workload}: wall_s {wall:.3f}", file=sys.stderr)

    snapshot = {
        "label": args.label,
        "git_sha": sha,
        "uncommitted_changes": bool(dirty),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "bytecode": bytecode,
        "seed": SEED,
        "command": f"python3 bench/run.py --workload W --seed {SEED} --trace 0",
        "workloads": {w: summarize(r) for w, r in runs.items()},
    }
    path = f"BENCH_{args.label}.json"
    with open(path, "w") as fh:
        json.dump(snapshot, fh, indent=2)
        fh.write("\n")
    print(f"bench_snapshot: wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
