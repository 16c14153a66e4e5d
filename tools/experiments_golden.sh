#!/usr/bin/env sh
# Golden experiment output: suite_all's stdout (all 15 experiments) must
# equal tests/golden/suite_all.txt byte for byte in three runs:
#
#   1. PPP_JOBS=1 with every telemetry sink on (PPP_TRACE, PPP_METRICS,
#      PPP_PASS_STATS);
#   2. PPP_JOBS=4;
#   3. the subset fig10_coverage kiter_blowup at PPP_JOBS=4, against
#      the golden file's sections of those two: the shared suite table
#      (see bench/Experiments.h) is the same whichever experiment
#      builds it.
#
# So the worker count, the experiment selection and telemetry change
# wall-clock, never bytes. The first run's sinks must also be complete:
#
#   - the trace file is valid Chrome trace_event JSON and the metrics
#     file a valid ppp-metrics-v1 report;
#   - the report covers every instrumented subsystem: interp., pass.,
#     cache.prep. and bench.pool. keys are all present; the derived
#     interpreter telemetry is nonzero (an interp.op.* counter and
#     interp.table.probes), the timed-trace profile is reported as
#     trace.timing.* counters, and no interp.stats_skipped.* key
#     appears;
#   - PPP_PASS_STATS printed its table on stderr.
#
# A change that means to move a printed number regenerates the golden
# file and lists every changed line in CHANGES.md:
#
#   build/bench/suite_all > tests/golden/suite_all.txt
#
# Usage: tools/experiments_golden.sh [BUILD_DIR]   (default: <repo>/build)
set -eu

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD_DIR=${1:-"$REPO_ROOT/build"}
SUITE="$BUILD_DIR/bench/suite_all"
GOLDEN="$REPO_ROOT/tests/golden/suite_all.txt"

if [ ! -x "$SUITE" ]; then
  echo "experiments_golden: missing $SUITE (build first)" >&2
  exit 1
fi

# Only the settings each run names below may reach suite_all.
for VAR in $(env | sed -n 's/^\(PPP_[A-Za-z0-9_]*\)=.*/\1/p'); do
  unset "$VAR"
done

WORK=$(mktemp -d "${TMPDIR:-/tmp}/ppp-golden.XXXXXX")
trap 'rm -rf "$WORK"' EXIT INT TERM

fail() {
  echo "experiments_golden: $*" >&2
  exit 1
}

# run NAME EXPECTED [VAR=VALUE...] SUITE [experiment...]: runs suite_all
# under the given settings and compares its stdout with EXPECTED.
run() {
  NAME=$1
  EXPECTED=$2
  shift 2
  env "$@" >"$WORK/$NAME.out" 2>"$WORK/$NAME.err" || {
    cat "$WORK/$NAME.err" >&2
    fail "$NAME run failed"
  }
  if ! cmp -s "$EXPECTED" "$WORK/$NAME.out"; then
    diff "$EXPECTED" "$WORK/$NAME.out" | head -40 >&2 || true
    fail "$NAME stdout differs from $EXPECTED"
  fi
  echo "ok: $NAME stdout matches the golden file"
}

run serial "$GOLDEN" PPP_JOBS=1 \
  PPP_TRACE="$WORK/trace.json" PPP_METRICS="$WORK/metrics.json" \
  PPP_PASS_STATS=1 "$SUITE"

for f in trace.json metrics.json; do
  [ -s "$WORK/$f" ] || fail "$f missing or empty"
done
if command -v python3 >/dev/null 2>&1; then
  python3 - "$WORK/trace.json" "$WORK/metrics.json" <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
assert isinstance(events, list) and events, "trace has no events"
assert any(e.get("ph") == "X" for e in events), "no complete events"
metrics = json.load(open(sys.argv[2]))
assert metrics["schema"] == "ppp-metrics-v1", metrics.get("schema")
print(f"ok: trace parses ({len(events)} events), metrics report parses")
EOF
else
  grep -q '"traceEvents"' "$WORK/trace.json"
  grep -q '"schema": "ppp-metrics-v1"' "$WORK/metrics.json"
  echo "ok: python3 unavailable, structural grep checks passed"
fi
for prefix in interp. pass. cache.prep. bench.pool.; do
  grep -q "\"$prefix" "$WORK/metrics.json" ||
    fail "no $prefix* keys in metrics report"
done
sed -n '/"counters": {/,/^  }/p' "$WORK/metrics.json" >"$WORK/counters"
for pattern in '"interp\.op\.[a-z.]*": [1-9]' '"interp\.table\.probes": [1-9]' \
    '"trace\.timing\.[a-z_]*": [1-9]'; do
  grep -q "$pattern" "$WORK/counters" ||
    fail "no nonzero counter matching $pattern"
done
if grep -q '"interp\.stats_skipped\.' "$WORK/metrics.json"; then
  fail "the report still names interp.stats_skipped.* keys"
fi
grep -q "pass statistics" "$WORK/serial.err" ||
  fail "PPP_PASS_STATS=1 printed no stats table on stderr"
echo "ok: telemetry sinks valid and complete, derived counts nonzero"

run parallel "$GOLDEN" PPP_JOBS=4 "$SUITE"

# The subset's expected stdout: fig10's section (up to Figure 11's
# title) and kiter_blowup's (the last, to the end of the file).
{
  sed -n '/^Figure 10: /,/^Figure 11: /p' "$GOLDEN" | sed '$d'
  sed -n '/^k-iteration blowup: /,$p' "$GOLDEN"
} >"$WORK/subset.expected"
[ -s "$WORK/subset.expected" ] || fail "no fig10/kiter sections in $GOLDEN"
run subset "$WORK/subset.expected" PPP_JOBS=4 "$SUITE" fig10_coverage \
  kiter_blowup

echo "experiments_golden: PASS"
