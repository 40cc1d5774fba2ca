"""Paired benchmark runs of two wsys checkouts, for a speed claim.

Run from anywhere (stdlib only):

    python3 tools/bench_pairs.py --parent ../parent-copy --change . --workload family --seed 1 --pairs 10

Each pair runs `python3 bench/run.py --workload W --seed S --trace 0` once
in each checkout, one after the other; which side goes first alternates
from pair to pair (the parent first in pair 1), so that drift of the
machine falls on both sides alike.  The last line printed is one JSON
object holding every run's metrics and, per end-to-end metric of the
change's BENCHMARK.json, each side's median and quartiles, how many pairs
the change won (better in the metric's direction; a tie counts for
neither), and whether that makes a gain: the change wins at least nine
pairs in ten and its median is better than the parent's by more than the
parent's interquartile range.  Quartiles are those of
`statistics.quantiles(values, n=4, method="inclusive")`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_once(checkout: str, workload: str, seed: int, seconds: float | None) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: {workload} failed in {checkout}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def summarize(runs: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric: each side's values in pair order, median and
    quartiles, the change's wins and whether they make a gain.  ``runs``
    maps each side to its run reports (pair i is the i-th of each)."""
    pairs = len(runs["parent"])
    metrics = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        quartiles = {side: _quartiles(values[side]) for side in SIDES}
        wins = sum(sign * (p - c) > 0 for p, c in zip(values["parent"], values["change"]))
        parent_iqr = quartiles["parent"][2] - quartiles["parent"][0]
        lead = sign * (quartiles["parent"][1] - quartiles["change"][1])
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            **{side: {"values": values[side], "median": quartiles[side][1], "q1": quartiles[side][0],
                      "q3": quartiles[side][2]} for side in SIDES},
            "change_wins": wins,
            "parent_iqr": parent_iqr,
            "gain": 10 * wins >= 9 * pairs and lead > parent_iqr,
        }
    return {
        "pairs": pairs,
        "correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None, help="bench/run.py --seconds (default: its own)")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_once(checkouts[side], args.workload, args.seed, args.seconds))
        for side in SIDES:
            values = " ".join(f"{k}={m['value']:.4g}" for k, m in runs[side][-1]["metrics"].items())
            print(f"bench_pairs: pair {i + 1}/{args.pairs} {side}: {values}", file=sys.stderr)

    summary = summarize(runs, end_to_end)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "checkouts": checkouts, **summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
