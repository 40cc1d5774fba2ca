"""Cold single-call times of the recurrence engine, as JSON (stdlib only).

Run from the root of a wsys checkout:

    python3 tools/cold_calls.py
    python3 tools/cold_calls.py --checkout ../parent-copy

For each m in 9..12 it draws three permutations with Random(2023) and times
one call each of wgl, feps, interlace_perm and gl11_skewchar, emptying the
engine's memos before every call.  Per m and function it prints the min
and max seconds over the three permutations, then every single time.  This
is the table that decides whether DEFAULT_CAP may rise: a cold call at
m = 12 must cost no more than one at m = 10 does at the cap's last change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from random import Random

SEED = 2023
SIZES = range(9, 13)
PER_SIZE = 3
FUNCTIONS = ("wgl", "feps", "interlace_perm", "gl11_skewchar")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", default=".", help="wsys checkout to measure (default: here)")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.path.abspath(args.checkout), "src"))
    from wsys import glws
    from wsys.perm import Perm

    rng = Random(SEED)
    calls = []
    for m in SIZES:
        for _ in range(PER_SIZE):
            img = list(range(1, m + 1))
            rng.shuffle(img)
            p = Perm(tuple(img))
            for name in FUNCTIONS:
                glws.ENGINE_MEMOS.clear()
                start = time.perf_counter()
                getattr(glws, name)(p, cap=max(SIZES))
                calls.append({"m": m, "img": img, "function": name, "s": time.perf_counter() - start})

    summary: dict[str, list[float]] = {}
    for c in calls:
        summary.setdefault(f"m={c['m']} {c['function']}", []).append(c["s"])
    report = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": SEED,
        "min_max_s": {key: [min(ts), max(ts)] for key, ts in summary.items()},
        "calls": calls,
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
