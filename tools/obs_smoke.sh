#!/usr/bin/env sh
# Telemetry smoke test: enabling observability must change nothing but
# its own sinks. Three checks against already-built binaries:
#
#   1. The full suite_all stdout with PPP_TRACE + PPP_METRICS +
#      PPP_PASS_STATS equals tests/golden/suite_all.txt (cold cache, so
#      the pass pipeline and cache layers actually execute).
#   2. The trace file is valid Chrome trace_event JSON and the metrics
#      file is a valid ppp-metrics-v1 report.
#   3. The report covers every instrumented subsystem: interp., pass.,
#      cache., and bench.pool. keys are all present; the derived
#      interpreter telemetry is nonzero (an interp.op.* counter and
#      interp.table.probes), the timed-trace profile is reported as
#      trace.timing.* counters, and no interp.stats_skipped.* key
#      appears.
#
# Usage: tools/obs_smoke.sh [BUILD_DIR]   (default: <repo>/build)
set -eu

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD_DIR=${1:-"$REPO_ROOT/build"}
BENCH_DIR="$BUILD_DIR/bench"

if [ ! -x "$BENCH_DIR/suite_all" ]; then
  echo "obs_smoke: missing $BENCH_DIR/suite_all (build first)" >&2
  exit 1
fi

# Only the telemetry settings below may reach suite_all.
for VAR in $(env | sed -n 's/^\(PPP_[A-Za-z0-9_]*\)=.*/\1/p'); do
  unset "$VAR"
done

WORK=$(mktemp -d "${TMPDIR:-/tmp}/ppp-obs-smoke.XXXXXX")
trap 'rm -rf "$WORK"' EXIT INT TERM

echo "== obs smoke: stdout with telemetry enabled matches the golden file =="
PPP_CACHE_DIR="$WORK/cache" \
  PPP_TRACE="$WORK/trace.json" \
  PPP_METRICS="$WORK/metrics.json" \
  PPP_PASS_STATS=1 \
  "$BENCH_DIR/suite_all" >"$WORK/on.out" 2>"$WORK/on.err"
cmp "$REPO_ROOT/tests/golden/suite_all.txt" "$WORK/on.out"
echo "ok: stdout byte-identical with telemetry enabled"

echo "== obs smoke: emitted files are valid JSON =="
for f in trace.json metrics.json; do
  if [ ! -s "$WORK/$f" ]; then
    echo "obs_smoke: $f missing or empty" >&2
    exit 1
  fi
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

echo "== obs smoke: report covers all subsystems =="
for prefix in interp. pass. cache.prep. bench.pool.; do
  if ! grep -q "\"$prefix" "$WORK/metrics.json"; then
    echo "obs_smoke: no $prefix* keys in metrics report" >&2
    exit 1
  fi
done
sed -n '/"counters": {/,/^  }/p' "$WORK/metrics.json" >"$WORK/counters"
for pattern in '"interp\.op\.[a-z.]*": [1-9]' '"interp\.table\.probes": [1-9]' \
    '"trace\.timing\.[a-z_]*": [1-9]'; do
  if ! grep -q "$pattern" "$WORK/counters"; then
    echo "obs_smoke: no nonzero counter matching $pattern" >&2
    exit 1
  fi
done
if grep -q '"interp\.stats_skipped\.' "$WORK/metrics.json"; then
  echo "obs_smoke: the report still names interp.stats_skipped.* keys" >&2
  exit 1
fi
if ! grep -q "pass statistics" "$WORK/on.err"; then
  echo "obs_smoke: PPP_PASS_STATS=1 printed no stats table on stderr" >&2
  exit 1
fi
echo "ok: interp/pass/cache/pool subsystems all reported, derived counts nonzero"

echo "obs_smoke: PASS"
