#!/usr/bin/env python3
"""Builds the campaign benchmark from the checkout's sources and runs one
workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The library (../src) and the program in this
directory are compiled with CMake into $CARGO_TARGET_DIR (default
.bench_build) under the checkout; later runs rebuild incrementally. The last
line of stdout is the JSON result, checked here against the metric names
and units listed in BENCHMARK.json; everything before it is detail.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The program ends a hung run itself (per-call deadline); this only catches a
# process that stops answering altogether.
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "campaign_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "campaign_bench")


def check(result, spec, trace):
    """Every listed metric must be present with its unit, and nothing else."""
    listed = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    extra = set(metrics) - {m["name"] for m in listed}
    if extra:
        fail(f"metrics not listed in BENCHMARK.json: {sorted(extra)}")
    for m in listed:
        got = metrics.get(m["name"])
        if got is None:
            # A run that ended on a hung campaign call reports partial
            # results; what it could not measure reads 0.
            if result["failed"] == 0:
                fail(f"metric {m['name']} missing")
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
        elif got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, not {m['unit']}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with {proc.returncode} and no result")
    result = json.loads(lines[-1])
    check(result, spec, args.trace == 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
