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
#
# The same contract through the experiment harness: `ppp_cli run vpr`
# under the trace spec and under ppp must print the same report except
# for the profiler name and the overhead line, and the trace overhead
# must be strictly lower (recording charges only packet bytes).
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
CLI="$BUILD_DIR/tools/ppp_cli"

for BIN in "$PT" "$CLI"; do
  if [ ! -x "$BIN" ]; then
    echo "error: $BIN not built (run cmake --build $BUILD_DIR first)" >&2
    exit 1
  fi
done

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

# cli_check SPEC: ppp_cli's vpr report under SPEC against ppp's.
cli_check() {
  SPEC=$1
  for P in "$SPEC" ppp; do
    "$CLI" run vpr --profiler="$P" >"$TMP/cli.$P.out"
    grep -v -e '^profiler ' -e '^overhead ' "$TMP/cli.$P.out" \
      >"$TMP/cli.$P.rest"
  done
  cmp "$TMP/cli.ppp.rest" "$TMP/cli.$SPEC.rest" || {
    echo "error: ppp_cli run vpr --profiler=$SPEC reports different" \
      "profiles than --profiler=ppp" >&2
    exit 1
  }
  OV_SPEC=$(sed -n 's/^overhead *\([0-9.]*\)%$/\1/p' "$TMP/cli.$SPEC.out")
  OV_PPP=$(sed -n 's/^overhead *\([0-9.]*\)%$/\1/p' "$TMP/cli.ppp.out")
  if [ -z "$OV_SPEC" ] || [ -z "$OV_PPP" ] ||
    ! awk -v s="$OV_SPEC" -v p="$OV_PPP" 'BEGIN { exit !(s + 0 < p + 0) }'; then
    echo "error: ppp_cli run vpr: $SPEC overhead '$OV_SPEC'% is not below" \
      "ppp's '$OV_PPP'%" >&2
    exit 1
  fi
}

if [ "$ONLY" != trace+time ]; then
  check trace vpr perlbmk
  cli_check trace
fi
if [ "$ONLY" != trace ]; then
  check trace+time vpr crafty
  cli_check trace+time
fi

echo "trace_smoke: OK"
