#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload online_int --seed 0 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is reused by later runs. The benchmark's output is passed through; its
last line is the JSON result. With --trace 1 the recorded spans are written
next to the build as spans-<workload>.json (Chrome trace format).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("online_int", "served_ingest")
BUILD_TIMEOUT_S = 850
# A run measures for --seconds, then finishes its blocked comparison; set-up
# and the comparison's tail take well under a minute.
RUN_MARGIN_S = 60


def fail(msg):
    print(f"perfbench: error: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures and builds (both no-ops when up to date); cmake's own
    output goes to stderr so stdout carries only the benchmark's."""
    jobs = str(min(os.cpu_count() or 1, 8))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir],
                ["cmake", "--build", build_dir, "-j", jobs]):
        try:
            subprocess.run(cmd, stdout=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        except (subprocess.SubprocessError, OSError) as e:
            fail(f"build step {' '.join(cmd)} failed: {e}")
    return os.path.join(build_dir, "perfbench")


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it exists."""
    path = os.path.join(os.getcwd(), "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(target, "perfbench")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(build_dir, f"spans-{args.workload}.json")]
    timeout = 2 * args.seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {timeout:g} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        sys.stderr.write(proc.stdout)
        fail("the benchmark's last line of output is not a JSON result")
    declared = declared_metrics(args.trace)
    if declared is not None and set(result["metrics"]) != declared:
        sys.stderr.write(proc.stdout)
        fail("reported metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ declared)}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
