#!/usr/bin/env python3
"""Builds adx-benchmark from this checkout and runs one workload.

    python3 benchmark/run.py --workload serve_seq --seed 1 --seconds 10 --trace 0

Run from the root of the checkout. The build goes to .bench_build/; the
reports adx-benchmark writes go to .bench_build/results/. The last line on
stdout is one JSON object: correct, attempted, failed and metrics — the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1. Build output and progress go to stderr. Exits non-zero, with
no result line, when the build or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "adx-benchmark")
RESULTS_DIR = os.path.join(".bench_build", "results")

# Host seconds of one rep, measured on a 4-core Xeon; --seconds is turned
# into a rep count with them, so every run of a workload runs the same reps.
NOMINAL_REP_S = {
    "serve_par": 2.6,
    "serve_seq": 2.1,
    "tsp_paper": 4.9,
    "ring_cs_async": 2.6,
}
MIN_REPS = 3

# Per-layer metrics of a layer the workload never enters: the count or share
# is zero by construction, so adx-benchmark does not report it.
ZERO_WHEN_ABSENT = {
    "sim.windows_per_item",
    "sim.cross_sends_per_item",
    "ct.posts_per_item",
    "policy.ticks_per_item",
    "exec.parallel_overhead_share",
    "attr.window_share",
    "attr.tsp_compute_share",
}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd):
    """Runs cmd with its output on stderr; returns the exit code."""
    print("+ " + " ".join(cmd), file=sys.stderr, flush=True)
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False).returncode


def build():
    configure = ["cmake", "-S", "benchmark", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    if run(configure) != 0:
        fail("configuring adx-benchmark failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    if run(["cmake", "--build", BUILD_DIR, "--target", "adx-benchmark", "-j", jobs]) != 0:
        fail("building adx-benchmark failed")
    return os.path.join(BUILD_DIR, "adx-benchmark")


def metric_values(report_path):
    with open(report_path) as f:
        report = json.load(f)
    (scenario,) = report["scenarios"]
    return {m["name"]: m for m in scenario["metrics"]}


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR, f"{args.workload}.json")
    if os.path.exists(out):
        os.remove(out)
    reps = max(MIN_REPS, round(args.seconds / NOMINAL_REP_S[args.workload]))
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}", f"--reps={reps}",
           f"--out={out}"]
    trace_dir = os.path.join(RESULTS_DIR, "trace")
    if args.trace:
        cmd.append(f"--trace={trace_dir}")
    code = run(cmd)
    # Exit code 1 with a report means some item failed its check.
    if code not in (0, 1) or not os.path.exists(out):
        fail(f"adx-benchmark exited with {code}")

    e2e = metric_values(out)
    attempted = int(e2e["items_attempted"]["median"])
    failed = int(e2e["items_failed"]["median"])
    if args.trace:
        layers = metric_values(os.path.join(trace_dir, f"{args.workload}.layers.json"))
        wanted = spec["per_layer"]
    else:
        layers = e2e
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in layers:
            value = layers[m["name"]]["median"]
        elif m["name"] in ZERO_WHEN_ABSENT:
            value = 0
        else:
            fail(f"adx-benchmark reported no {m['name']} for {args.workload}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": code == 0 and failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
