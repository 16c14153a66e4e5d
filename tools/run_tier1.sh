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

# Cache smoke stage: also registered as the cache_smoke ctest above,
# but run explicitly so its byte-identity checks gate tier-1 even when
# ctest filtering is in play.
cd "$REPO_ROOT"
tools/cache_smoke.sh "$REPO_ROOT/build"

# Observability smoke stage (also the obs_smoke ctest): suite_all under
# PPP_TRACE + PPP_METRICS must keep stdout byte-identical to a
# telemetry-off run while both emitted files parse and the metrics
# report covers the interp/pass/cache/pool subsystems.
tools/obs_smoke.sh "$REPO_ROOT/build"

# Served smoke stage (also the served_smoke ctest): the profile server
# fed by four concurrent loopback clients must aggregate to exactly the
# sequential oracle's bytes, and bench_diff.py passes its self-test.
tools/served_smoke.sh "$REPO_ROOT/build"

# Trace smoke stage (also the trace_smoke and timing_smoke ctests, one
# per half): record a clean-module
# packet stream, untimed and with cost stamps, decode it in parallel,
# and require the reconstructed counters byte-identical to the online
# counter backend's canonical counts frame (and timed decodes to
# conserve cost exactly) at every chunk size / worker count
# combination. The timed trace unit tests also run under the sanitizer
# stage below via ctest.
tools/trace_smoke.sh "$REPO_ROOT/build"

# Fuzz smoke stage (also the fuzz_smoke ctest): the fixed-seed
# adversarial corpus through all three profilers with differential
# invariants against the oracle, plus frame fault injection. For a
# longer soak, run tools/fuzz_ppp --minutes=N by hand.
tools/fuzz_smoke.sh "$REPO_ROOT/build"

# Adaptive smoke stage (also the adapt_smoke ctest): the online
# re-optimization loop at two aggressive cadences and 1/4 concurrent
# sessions must keep the observable semantics trace byte-identical to
# the clean run.
tools/adapt_smoke.sh "$REPO_ROOT/build"

# k-iteration smoke stage (also the kiter_smoke ctest): k = 1 must be
# byte-identical to today's unchained profiles, the fig9-12 PPP_KITER
# axis must default off, k = 2/4 must conserve flushes over the fuzz
# blowup corpus, and kiter_blowup's JSON must pass bench_diff's kiter
# gate against itself.
tools/kiter_smoke.sh "$REPO_ROOT/build"

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
