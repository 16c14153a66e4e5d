#!/usr/bin/env sh
# Profile-server smoke test: a real server process fed by four
# concurrent loopback clients must aggregate to exactly the bytes the
# sequential oracle produces. Three checks against built binaries:
#
#   1. Liveness: the server binds, reports its port, serves all four
#      clients, and every process exits 0 (no failed sessions).
#   2. Exactness: the concurrent, sharded aggregate dump is
#      byte-identical to `ppp_served oracle` folding the same run
#      messages sequentially -- the saturating-merge algebra is
#      commutative and associative, so interleaving must not matter.
#   3. The bench_diff.py gate tool passes its built-in self-test, since
#      the served benchmark trajectory is gated through it.
#
# Usage: tools/served_smoke.sh [BUILD_DIR]   (default: <repo>/build)
set -eu

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD_DIR=${1:-"$REPO_ROOT/build"}
SERVED="$BUILD_DIR/tools/ppp_served"

if [ ! -x "$SERVED" ]; then
  echo "served_smoke: missing $SERVED (build first)" >&2
  exit 1
fi

WORK=$(mktemp -d "${TMPDIR:-/tmp}/ppp-served-smoke.XXXXXX")
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

BENCHES="mcf vpr bzip2 art"
REPEAT=2
# Each client streams its run message $REPEAT times, so the oracle folds
# every benchmark name that many times.
ORACLE_LIST="mcf,mcf,vpr,vpr,bzip2,bzip2,art,art"

echo "== served smoke: sequential oracle =="
"$SERVED" oracle --bench="$ORACLE_LIST" --out="$WORK/oracle.txt"
[ -s "$WORK/oracle.txt" ] || {
  echo "served_smoke: oracle dump missing or empty" >&2
  exit 1
}

echo "== served smoke: server + 4 concurrent clients =="
# Create the port file before the server starts: the background job's
# redirection may not have run yet when the first poll below reads it,
# and a sed on a missing file would end the script under set -e.
: >"$WORK/server.out"
"$SERVED" serve --expect=4 --shards=4 --dump="$WORK/served.txt" \
  >"$WORK/server.out" 2>"$WORK/server.err" &
SERVER_PID=$!

PORT=""
TRIES=0
while [ "$TRIES" -lt 100 ]; do
  PORT=$(sed -n 's/^listening \([0-9][0-9]*\)$/\1/p' "$WORK/server.out")
  [ -n "$PORT" ] && break
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "served_smoke: server died before reporting a port" >&2
    cat "$WORK/server.err" >&2
    exit 1
  fi
  TRIES=$((TRIES + 1))
  sleep 0.1
done
if [ -z "$PORT" ]; then
  echo "served_smoke: server never printed 'listening <port>'" >&2
  exit 1
fi
echo "server up on port $PORT"

CLIENT_PIDS=""
for B in $BENCHES; do
  "$SERVED" client --port="$PORT" --bench="$B" --repeat="$REPEAT" \
    --name="smoke-$B" >"$WORK/client-$B.out" 2>"$WORK/client-$B.err" &
  CLIENT_PIDS="$CLIENT_PIDS $!:$B"
done

CLIENT_FAIL=0
for ENTRY in $CLIENT_PIDS; do
  PID=${ENTRY%%:*}
  B=${ENTRY#*:}
  if ! wait "$PID"; then
    echo "served_smoke: client $B exited nonzero" >&2
    cat "$WORK/client-$B.err" >&2
    CLIENT_FAIL=1
  fi
done
[ "$CLIENT_FAIL" -eq 0 ] || exit 1

if ! wait "$SERVER_PID"; then
  echo "served_smoke: server exited nonzero (failed sessions?)" >&2
  cat "$WORK/server.err" >&2
  SERVER_PID=""
  exit 1
fi
SERVER_PID=""
echo "ok: server and all 4 clients exited cleanly"

echo "== served smoke: concurrent aggregate vs sequential oracle =="
if ! cmp "$WORK/served.txt" "$WORK/oracle.txt"; then
  echo "served_smoke: served dump differs from oracle" >&2
  exit 1
fi
echo "ok: dumps byte-identical ($(wc -c <"$WORK/served.txt") bytes)"

echo "== served smoke: bench_diff.py self-test =="
if command -v python3 >/dev/null 2>&1; then
  python3 "$REPO_ROOT/tools/bench_diff.py" --self-test
else
  echo "served_smoke: python3 unavailable, skipping bench_diff self-test"
fi

echo "served_smoke: PASS"
