#!/usr/bin/env python3
"""Checks the repository benchmark's output contract on a prebuilt binary.

Usage, from the root of a checkout:

    python3 tools/perfbench_contract.py BINARY WORKLOAD

Runs perfbench/run.py's own main() for one second (seed 0, no trace) with
its build step replaced by BINARY, so the run passes exactly run.py's
checks: exit 0, a JSON result on the last line of stdout, and a metric set
equal to BENCHMARK.json's. On top of that the result must say the run was
correct and that no operation failed.
"""

import contextlib
import importlib.util
import io
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binary, workload = os.path.abspath(sys.argv[1]), sys.argv[2]
    for var in [v for v in os.environ if v.startswith("PPP_")]:
        del os.environ[var]

    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(REPO_ROOT, "perfbench", "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    run.build = lambda build_dir: binary

    sys.argv = ["run.py", "--workload", workload, "--seed", "0",
                "--seconds", "1", "--trace", "0"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.main()
    sys.stdout.write(out.getvalue())

    result = json.loads(out.getvalue().rstrip("\n").split("\n")[-1])
    if result.get("correct") is not True or result.get("failed") != 0:
        sys.exit(f"perfbench_contract: {workload} reported correct="
                 f"{result.get('correct')} failed={result.get('failed')}")
    print(f"perfbench_contract: {workload} PASS")


if __name__ == "__main__":
    main()
