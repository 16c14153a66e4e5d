#!/usr/bin/env sh
# Trace backend smoke: record a benchmark's branch-target packet stream
# on the clean module, decode it back to counters in parallel, and
# require the result to be byte-identical ('cmp') to the online counter
# backend's canonical counts frame -- at one worker and at four, with
# the default chunk size and a small one that forces many seals.
#
# Untimed recordings run on vpr (branchy INT) and perlbmk (switch
# heavy). Timed recordings (cost stamps at due Rets) run on vpr and
# crafty (call heavy: deep stacks carry accrual across many chunk
# boundaries); timing is a pure annotation and must never perturb the
# counts, and ppp_timing decode verifies attributed + unattributed ==
# total cost itself, exiting nonzero on violation. The trace and
# trace+time plans are identical, so one counter baseline serves both.
# Deterministic end to end, so it gates tier-1 like any other test.
#
# Usage: tools/trace_smoke.sh <build-dir> [trace|trace+time]
# With a spec, only that half runs (the trace_smoke and timing_smoke
# ctests); without one, both do.
set -eu

USAGE="usage: trace_smoke.sh <build-dir> [trace|trace+time]"
BUILD_DIR=${1:?$USAGE}
ONLY=${2:-}
case "$ONLY" in
'' | trace | trace+time) ;;
*)
  echo "$USAGE" >&2
  exit 1
  ;;
esac
PT="$BUILD_DIR/tools/ppp_timing"

if [ ! -x "$PT" ]; then
  echo "error: $PT not built (run cmake --build $BUILD_DIR first)" >&2
  exit 1
fi

TMP=$(mktemp -d "${TMPDIR:-/tmp}/ppp-trace-smoke.XXXXXX")
trap 'rm -rf "$TMP"' EXIT INT TERM

# check SPEC BENCH...: record under SPEC and cmp every decode against
# the counter baseline.
check() {
  SPEC=$1
  shift
  for BENCH in "$@"; do
    # Online counter baseline (the oracle bytes), shared across specs.
    if [ ! -f "$TMP/$BENCH.counter.bin" ]; then
      "$PT" counter --bench="$BENCH" --out="$TMP/$BENCH.counter.bin"
    fi
    for CHUNK in 65536 4096; do
      "$PT" record --spec="$SPEC" --bench="$BENCH" --chunk="$CHUNK" \
        --out="$TMP/$BENCH.$SPEC.$CHUNK.trace"
      for JOBS in 1 4; do
        PPP_JOBS=$JOBS "$PT" decode --spec="$SPEC" --bench="$BENCH" \
          --trace="$TMP/$BENCH.$SPEC.$CHUNK.trace" \
          --out="$TMP/$BENCH.$SPEC.$CHUNK.j$JOBS.bin"
        cmp "$TMP/$BENCH.counter.bin" "$TMP/$BENCH.$SPEC.$CHUNK.j$JOBS.bin" || {
          echo "error: $BENCH spec=$SPEC chunk=$CHUNK jobs=$JOBS decode" \
            "differs from counter backend" >&2
          exit 1
        }
      done
    done
  done
}

if [ "$ONLY" != trace+time ]; then
  check trace vpr perlbmk
fi
if [ "$ONLY" != trace ]; then
  check trace+time vpr crafty
fi

echo "trace_smoke: OK"
