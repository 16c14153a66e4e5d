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
ctest --output-on-failure -j

# The unfiltered ctest above already ran every smoke script once as a
# registered test (cache, obs, served, trace/timing, fuzz, adapt and
# kiter smokes), so there is no second pass here.
cd "$REPO_ROOT"

# Optional sanitizer stage: PPP_TIER1_SANITIZE=address (or undefined,
# or "address undefined") rebuilds into build-<san>/ with PPP_SANITIZE
# and reruns the unit tests under the instrumented binaries. The
# cache_smoke stage is excluded there: it measures byte-identity and
# cache reuse, which sanitizer slowdown does not affect.
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
  (cd "build-$SAN" && ctest --output-on-failure -E cache_smoke -j)
done
