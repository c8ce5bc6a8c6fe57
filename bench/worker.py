"""One pass of a workload in a fresh, single-threaded interpreter.

Started by run.py; not meant to be run by hand.  Imports permclass from the
checkout's src/, builds the pass's inputs, prints "ready" (the end of set-up),
runs every operation once, checks the answers and prints one JSON line:
the pass wall time, each operation's latency, the failures and the peak RSS.
With --trace 1 the pass runs under tracing.install() and the line also holds
the per-layer metrics; the span records go to --spans.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import permclass

    if os.path.dirname(os.path.abspath(permclass.__file__)) != os.path.join(SRC, "permclass"):
        print(f"permclass imported from {permclass.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    import tracing
    import workloads

    ops = workloads.prepare(args.workload, args.seed)
    print("ready", flush=True)

    tracer = stats = None
    if args.trace:
        tracer, stats = tracing.Tracer(), tracing.SliceStats()
        tracing.install(tracer, stats)

    answers = []
    latencies = []
    first = time.perf_counter()
    for op in ops:
        start = time.perf_counter()
        if tracer is not None:
            tracer.enter("bench.op")
        try:
            answer, error = op.run(), None
        except Exception as exc:  # counted as a failed operation, never retried
            answer, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.exit()
        end = time.perf_counter()
        latencies.append(end - start)
        answers.append((answer, error))
    wall = end - first
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None if tracer is None else tracing.layer_metrics(tracer, stats)

    failures = []
    for op, (answer, error) in zip(ops, answers):
        if error is None:
            try:
                error = op.check(answer)
            except Exception as exc:
                error = f"checking the answer raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"{op.label}: {error}")

    result = {
        "wall_s": wall,
        "labels": [op.label for op in ops],
        "latencies_s": latencies,
        "failures": failures,
        "peak_rss_mb": rss_mb,
    }
    if tracer is not None:
        result["layers"] = layers
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
