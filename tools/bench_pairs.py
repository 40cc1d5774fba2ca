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

With `--trace 1` each run is `bench/run.py --trace 1`, and the summary
holds, per metric of the `per_layer` list of BENCHMARK.json, each side's
values, median and quartiles only: a traced run measures where the time
goes, so it gives no win count and no gain verdict.

With `--suite NAME` in place of `--workload`, each run is one
`wsys verify NAME --json` process (`python3 -m wsys.cli`, with the
checkout's `src` first on PYTHONPATH) at the suite's own bounds, and
the one metric is the suite's `seconds`, lower is better, under the same
win count and gain rule.  Both reports of a pair must be equal once
`seconds` is removed (same verdict, instance count, failures and notes);
a pair that differs stops the tool (exit 2).

Bytecode caches move `setup_s`, the `cli` times and `peak_rss_mb`, so
the JSON head records the cache state at the start: whether
PYTHONDONTWRITEBYTECODE and PYTHONPYCACHEPREFIX are set (non-empty), and
whether `src/wsys/__pycache__` exists in each checkout.  When exactly one
checkout has that directory the two sides would not compile alike, and
the tool refuses to start (exit 2).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
PYCACHE = os.path.join("src", "wsys", "__pycache__")


def run_once(checkout: str, workload: str, seed: int, seconds: float | None, trace: int = 0) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: {workload} failed in {checkout}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# The one metric of a --suite run, in the form of BENCHMARK.json's end_to_end list.
SUITE_METRIC = {"name": "seconds", "unit": "s", "better": "lower"}


def run_suite(checkout: str, suite: str) -> dict:
    """One `wsys verify SUITE --json` process in a checkout, in the form of
    a bench/run.py report: correct when every suite passed, one failed
    operation per failed suite, the suites' seconds as the one metric, and
    under "report" the printed report without its `seconds`."""
    env = dict(os.environ)
    src = os.path.join(checkout, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    cmd = [sys.executable, "-m", "wsys.cli", "verify", suite, "--json"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=False)
    if proc.returncode not in (0, 3) or not proc.stdout.strip():
        raise SystemExit(f"bench_pairs: verify {suite} failed in {checkout}:\n{proc.stderr.strip()}")
    report = json.loads(proc.stdout)
    suites = report["reports"]
    return {
        "correct": report["passed"],
        "failed": sum(not r["passed"] for r in suites),
        "metrics": {SUITE_METRIC["name"]: {"value": sum(r["seconds"] for r in suites), "unit": "s"}},
        "report": {**report, "reports": [{k: v for k, v in r.items() if k != "seconds"} for r in suites]},
    }


def bytecode_state(checkouts: dict[str, str]) -> dict:
    """The bytecode-cache state of a pair of checkouts: which cache
    variables are set (non-empty) and which checkouts have src/wsys/__pycache__."""
    return {
        "env": {name: bool(os.environ.get(name)) for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")},
        "pycache": {side: os.path.isdir(os.path.join(path, PYCACHE)) for side, path in checkouts.items()},
    }


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def _sides(runs: dict[str, list[dict]], name: str) -> dict[str, dict]:
    """Each side's values of one metric in pair order, median and quartiles."""
    out = {}
    for side in SIDES:
        values = [r["metrics"][name]["value"] for r in runs[side]]
        q1, median, q3 = _quartiles(values)
        out[side] = {"values": values, "median": median, "q1": q1, "q3": q3}
    return out


def summarize(runs: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric: each side's values in pair order, median and
    quartiles, the change's wins and whether they make a gain.  ``runs``
    maps each side to its run reports (pair i is the i-th of each)."""
    pairs = len(runs["parent"])
    metrics = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        sides = _sides(runs, name)
        parent, change = sides["parent"], sides["change"]
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent["values"], change["values"]))
        parent_iqr = parent["q3"] - parent["q1"]
        lead = sign * (parent["median"] - change["median"])
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            **sides,
            "change_wins": wins,
            "parent_iqr": parent_iqr,
            "gain": 10 * wins >= 9 * pairs and lead > parent_iqr,
        }
    return {**_totals(runs), "metrics": metrics}


def summarize_layers(runs: dict[str, list[dict]], per_layer: list[dict]) -> dict:
    """Per per-layer metric of traced runs: each side's values in pair
    order, median and quartiles, with no win count or gain verdict."""
    metrics = {spec["name"]: {"unit": spec["unit"], **_sides(runs, spec["name"])} for spec in per_layer}
    return {**_totals(runs), "metrics": metrics}


def layer_lines(summary: dict) -> list[str]:
    """One line per per-layer metric that is not zero on both sides:
    name, then each side's median [q1, q3]."""
    lines = []
    for name, m in summary["metrics"].items():
        if m["parent"]["values"] + m["change"]["values"] != [0] * 2 * summary["pairs"]:
            cells = (f"{side} {m[side]['median']:.4g} [{m[side]['q1']:.4g}, {m[side]['q3']:.4g}]" for side in SIDES)
            lines.append(f"{name} ({m['unit']}): {' '.join(cells)}")
    return lines


def _totals(runs: dict[str, list[dict]]) -> dict:
    return {
        "pairs": len(runs["parent"]),
        "correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    kind = parser.add_mutually_exclusive_group(required=True)
    kind.add_argument("--workload", help="a workload of bench/run.py")
    kind.add_argument("--suite", help="a wsys verify suite: paired `seconds` of `wsys verify SUITE --json`")
    parser.add_argument("--seed", type=int, default=1, help="bench/run.py --seed (workloads only)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None, help="bench/run.py --seconds (default: its own)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0, help="1: per-layer metrics, no verdict")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.suite and (args.trace or args.seconds is not None):
        parser.error("--trace and --seconds apply to workloads only")
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    bytecode = bytecode_state(checkouts)
    if len(set(bytecode["pycache"].values())) > 1:
        have = next(side for side, present in bytecode["pycache"].items() if present)
        print(f"bench_pairs: only the {have} checkout has {PYCACHE}; remove it or compile both", file=sys.stderr)
        return 2
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    def run(side: str) -> dict:
        if args.suite:
            return run_suite(checkouts[side], args.suite)
        return run_once(checkouts[side], args.workload, args.seed, args.seconds, args.trace)

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run(side))
        if args.suite and runs["parent"][-1]["report"] != runs["change"][-1]["report"]:
            print(f"bench_pairs: pair {i + 1}: the {args.suite} reports differ besides seconds", file=sys.stderr)
            return 2
        for side in SIDES:
            values = " ".join(f"{k}={m['value']:.4g}" for k, m in runs[side][-1]["metrics"].items() if m["value"])
            print(f"bench_pairs: pair {i + 1}/{args.pairs} {side}: {values}", file=sys.stderr)

    if args.trace:
        summary = summarize_layers(runs, spec["per_layer"])
        for line in layer_lines(summary):
            print(f"bench_pairs: {line}", file=sys.stderr)
    else:
        summary = summarize(runs, [SUITE_METRIC] if args.suite else spec["end_to_end"])
    head = {"suite": args.suite} if args.suite else {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    head.update(checkouts=checkouts, bytecode=bytecode)
    print(json.dumps({**head, **summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
