#!/usr/bin/env python3
"""Checks the engine bench's output contract on a prebuilt binary.

Usage, from the root of a checkout:

    python3 tools/throughput_contract.py BINARY JSON_OUT

Runs `BINARY --json=JSON_OUT --reps=REPS` (bench/interp_throughput). It
must exit 0, which it does only when every trace decode equals the
counter backend's counts, and JSON_OUT must carry every key that
`tools/bench_diff.py --gate throughput` matches in the committed
BENCH_throughput.json, so the gate never silently loses a key. No value
is compared: wall-clock rates drift between runs and hosts, so a few
reps prove the report's shape as well as the default 40 do.
"""

import importlib.util
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPS = 2


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binary, out = sys.argv[1], sys.argv[2]

    spec = importlib.util.spec_from_file_location(
        "bench_diff", os.path.join(REPO_ROOT, "tools", "bench_diff.py"))
    bench_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_diff)

    rc = subprocess.run([binary, f"--json={out}", f"--reps={REPS}"]).returncode
    if rc != 0:
        sys.exit(f"throughput_contract: {binary} exited {rc}")

    committed = bench_diff.flatten(
        os.path.join(REPO_ROOT, "BENCH_throughput.json"))
    patterns = bench_diff.GATES["throughput"].split(",")
    gated = bench_diff.select(set(committed), patterns)
    missing = sorted(set(gated) - set(bench_diff.flatten(out)))
    if not gated or missing:
        sys.exit("throughput_contract: gated keys missing from the run: "
                 + (", ".join(missing) or "(the gate matches no key)"))
    print(f"throughput_contract: PASS ({len(gated)} gated keys present)")


if __name__ == "__main__":
    main()
