#!/usr/bin/env sh
# Tier-1 verification: configure, build, and run the full test suite.
# This is the exact sequence CI and the roadmap treat as the gate for
# every PR; run it from anywhere.
set -eu

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$REPO_ROOT"

cmake -B build -S .
cmake --build build -j
cd build
# On ctest 3.25.1 a bare -j takes no default job count, so this runs one
# test at a time (`ctest -j -R x` even swallows -R and ignores the
# filter). On 4 vCPUs it takes the sum of the test times (~46 s);
# PROCESSORS in tests/CMakeLists.txt only matters under an explicit -jN.
ctest --output-on-failure -j

# The unfiltered ctest above already ran every smoke script once as a
# registered test (experiments_golden, which also checks the telemetry
# sinks, the perfbench contracts, and the served, trace/timing, fuzz,
# adapt and kiter smokes), so there is no second pass here.
cd "$REPO_ROOT"

# Optional sanitizer stage: PPP_TIER1_SANITIZE=address (or undefined,
# or "address undefined") rebuilds into build-<san>/ with PPP_SANITIZE
# and reruns the tests under the instrumented binaries. The
# perfbench_contract tests are excluded there: their runs are bounded by
# wall-clock time, and sanitizer slowdown says nothing about the output
# contract. experiments_golden does run, so undefined behaviour that
# moves a printed digit shows up.
for SAN in ${PPP_TIER1_SANITIZE:-}; do
  case "$SAN" in
  address | undefined) ;;
  *)
    echo "error: PPP_TIER1_SANITIZE must list 'address' and/or 'undefined' (got '$SAN')" >&2
    exit 1
    ;;
  esac
  echo "== sanitizer stage: $SAN =="
  cmake -B "build-$SAN" -S . -DPPP_SANITIZE="$SAN"
  cmake --build "build-$SAN" -j
  (cd "build-$SAN" && ctest --output-on-failure -E perfbench_contract -j)
done
