#!/usr/bin/env sh
# Golden experiment output: suite_all's stdout (all 15 experiments) must
# equal tests/golden/suite_all.txt byte for byte in three runs:
#
#   1. PPP_CACHE=off at the default job count;
#   2. a fresh PPP_CACHE_DIR at PPP_JOBS=1 (cold), which must leave
#      cache entries behind;
#   3. the same cache dir at PPP_JOBS=4 (warm).
#
# So the preparation cache and the worker count change wall-clock, never
# bytes. A change that means to move a printed number regenerates the
# golden file and lists every changed line in CHANGES.md:
#
#   PPP_CACHE=off build/bench/suite_all > tests/golden/suite_all.txt
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
CACHE_DIR="$WORK/cache"

# run NAME [VAR=VALUE...]: runs the full suite under the given settings
# and compares its stdout with the golden file.
run() {
  NAME=$1
  shift
  env "$@" "$SUITE" >"$WORK/$NAME.out" 2>"$WORK/$NAME.err" || {
    cat "$WORK/$NAME.err" >&2
    echo "experiments_golden: $NAME run failed" >&2
    exit 1
  }
  if ! cmp -s "$GOLDEN" "$WORK/$NAME.out"; then
    diff "$GOLDEN" "$WORK/$NAME.out" | head -40 >&2 || true
    echo "experiments_golden: $NAME stdout differs from $GOLDEN" >&2
    exit 1
  fi
  echo "ok: $NAME stdout matches the golden file"
}

run off PPP_CACHE=off
run cold PPP_CACHE_DIR="$CACHE_DIR" PPP_JOBS=1
entries=$(ls "$CACHE_DIR" 2>/dev/null | wc -l)
if [ "$entries" -eq 0 ]; then
  echo "experiments_golden: cold run left no cache entries in $CACHE_DIR" >&2
  exit 1
fi
run warm PPP_CACHE_DIR="$CACHE_DIR" PPP_JOBS=4

echo "experiments_golden: PASS ($entries cache entries)"
