"""One round of one workload, in a fresh interpreter.

Started by bench/run.py from the repository root; prints one JSON object.
A round is set-up (import wsys, make the inputs), the timed phase (every
input through the workload's pipeline, each timed on its own), then,
when asked, the checks of every output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true", help="also write the spans to bench/out/")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.abspath("src"))
    start = time.perf_counter()
    import wsys.cli  # noqa: F401  -- what every wsys process imports

    import_s = time.perf_counter() - start
    import workloads as wl
    from spans import NullTracer, Tracer

    tracer = Tracer() if args.trace else NullTracer()
    workload = wl.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, tracer)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    api = wl.bind(tracer)
    counts: Counter = Counter()
    outputs, times, errors = [], [], []
    start = time.perf_counter()
    for i, x in enumerate(inputs):
        tracer.request(i)
        t0 = time.perf_counter()
        try:
            out = workload.run(x, api, counts)
        except Exception as exc:  # a failed operation is counted; the round goes on
            out = None
            errors.append(f"input {i}: {exc!r}")
        times.append(time.perf_counter() - t0)
        outputs.append(out)
    wall_s = time.perf_counter() - start
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result = {
        "ready": ready,
        "wall_s": wall_s,
        "times": times,
        "rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "attempted": len(inputs),
        "errors": errors,
        "digest": hashlib.sha256(wl.digest_text(outputs).encode()).hexdigest(),
    }
    if args.trace:
        if args.workload == "cli":
            wl.run_suites_in_process(tracer, args.seed)
        result["layers"] = layer_metrics(tracer, counts, import_s)
        out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}.json"))
    if args.check:
        result["failures"] = workload.check(inputs, outputs, args.seed)
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, counts: Counter, import_s: float) -> dict[str, float]:
    summary = tracer.summary()
    layers = {f"{key}.self_s": value for key, value in summary["self_s"].items()}
    layers.update({f"{key}.calls": value for key, value in summary["calls"].items()})
    layers.update(counts)
    layers["algebra.poly_terms"] = tracer.poly_terms
    layers["cli.import_s"] = import_s
    names = {span[3] for span in tracer.spans}
    for name in names:
        if name.startswith("cli."):
            layers[f"{name}.p50_ms"] = statistics.median(tracer.durations(name)) * 1000
        elif name.startswith("verify."):
            layers[f"{name}.s"] = sum(tracer.durations(name))
    return layers


if __name__ == "__main__":
    sys.exit(main())
