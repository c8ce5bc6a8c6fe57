"""Benchmark entry point: runs one workload and prints its metrics.

    python3 bench/run.py --workload query-stream --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload registry-suite --seed 1 --seconds 30 --trace 1

Run it from anywhere; it works on the checkout that holds it.  Every pass runs
in a fresh single-threaded interpreter (bench/worker.py), so each starts with
a cold slice cache.

--trace 0 runs passes until --seconds is spent (at least one) and reports the
end-to-end metrics as medians over the passes.  --trace 1 runs one untraced
and one traced pass and reports the per-layer metrics, including the tracing
overhead.  Metric names and units come from BENCHMARK.json.  The last line of
stdout is the result object; a full record, with the environment, every pass
and the share of time each kind of operation took, is written to
.bench_out/.  Exits non-zero without a result when the checkout has no
permclass sources or a pass fails to run.
"""
from __future__ import annotations

import argparse
import collections
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
OUT = os.path.join(ROOT, ".bench_out")
PASS_TIMEOUT_S = 150

sys.path.insert(0, BENCH)
from workloads import WORKLOADS  # noqa: E402


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, trace: bool = False, spans: str | None = None) -> dict:
    """Run one worker; returns its result with the measured set-up time added."""
    cmd = [sys.executable, "-s", WORKER, "--workload", workload, "--seed", str(seed), "--trace", str(int(trace))]
    if spans:
        cmd += ["--spans", spans]
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(cmd[2:])} exited with {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(passes: list[dict]) -> dict[str, float]:
    def median(f) -> float:
        return statistics.median(f(p) for p in passes)

    return {
        "wall_s": median(lambda p: p["wall_s"]),
        "setup_s": median(lambda p: p["setup_s"]),
        "peak_rss_mb": median(lambda p: p["peak_rss_mb"]),
        "ops_per_s": median(lambda p: len(p["latencies_s"]) / p["wall_s"]),
        "op_p50_ms": median(lambda p: 1e3 * percentile(p["latencies_s"], 0.50)),
        "op_p99_ms": median(lambda p: 1e3 * percentile(p["latencies_s"], 0.99)),
    }


def check_metric(label: str) -> str:
    """Metric name of a registry check's wall time ('+' is not allowed in names)."""
    return "harness.check." + re.sub(r"[^A-Za-z0-9_.-]", "_", label) + ".wall_s"


def per_layer(plain: dict, traced: dict, names: list[str]) -> dict[str, float]:
    values = {name: 0.0 for name in names if name.startswith("harness.check.") and name.endswith(".wall_s")}
    values.update({check_metric(label): s for label, s in zip(plain["labels"], plain["latencies_s"])})
    values.update(traced["layers"])
    values["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    missing = [name for name in names if name not in values]
    if missing:
        raise BenchError(f"BENCHMARK.json lists metrics the benchmark does not produce: {missing}")
    return {name: values[name] for name in names}


def time_shares(passes: list[dict]) -> dict[str, float]:
    """Share of the timed operations' total time taken by each kind of operation
    (the first word of its label), over all passes, largest first."""
    totals: collections.Counter = collections.Counter()
    for p in passes:
        for label, seconds in zip(p["labels"], p["latencies_s"]):
            totals[label.split()[0]] += seconds
    whole = sum(totals.values()) or 1.0
    return {kind: seconds / whole for kind, seconds in totals.most_common()}


def git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git checkout or without git."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    env = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "loadavg": os.getloadavg(),
    }
    if not os.path.exists(os.path.join(ROOT, "src", "permclass", "__init__.py")):
        print(f"error: no permclass sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    if args.trace:
        plain = spawn(args.workload, args.seed)
        traced = spawn(args.workload, args.seed, trace=True, spans=stem + "-spans.jsonl")
        passes = [plain, traced]
        section = spec["per_layer"]
        values = per_layer(plain, traced, [m["name"] for m in section])
    else:
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(spawn(args.workload, args.seed))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > args.seconds:
                break
        section = spec["end_to_end"]
        values = end_to_end(passes)

    attempted = sum(len(p["latencies_s"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    shares = time_shares(passes)
    with open(stem + ".json", "w") as fh:
        json.dump({"args": vars(args), "env": env, "passes": passes, "time_shares": shares, "metrics": metrics}, fh)
    print("env " + json.dumps(env))
    print("time share by kind: " + ", ".join(f"{kind} {share:.3f}" for kind, share in shares.items()))
    print(f"{args.workload}: {len(passes)} passes, {attempted} operations, {len(failures)} failed "
          f"(failed_frac {len(failures) / attempted:.4f})")
    for failure in failures[:10]:
        print("  FAILED " + failure)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
