#!/usr/bin/env sh
# k-iteration smoke test: chaining must be invisible at k = 1 and
# conservative at k > 1. Two checks against already-built binaries:
#
#   1. k = 1 is the identity: `ppp_cli run --profiler='ppp;+kiter1'`
#      prints byte-identical output to plain --profiler=ppp once the
#      profiler display name (the only intended difference) is
#      normalized away.
#   2. k in {2, 4} conserve flushes: a fixed-seed fuzz slice with the
#      kiter blowup shape (demotes cleanly at k = 4) runs the
#      differential invariant battery, which embeds the per-routine
#      conservation check.
#
# The k = 1/2/4 suite numbers themselves are the kiter_blowup
# experiment's, pinned by tests/golden/suite_all.txt.
#
# Usage: tools/kiter_smoke.sh [BUILD_DIR]   (default: <repo>/build)
set -eu

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD_DIR=${1:-"$REPO_ROOT/build"}

for BIN in tools/ppp_cli tools/fuzz_ppp; do
  if [ ! -x "$BUILD_DIR/$BIN" ]; then
    echo "kiter_smoke: missing $BUILD_DIR/$BIN (build first)" >&2
    exit 1
  fi
done

WORK=$(mktemp -d "${TMPDIR:-/tmp}/ppp-kiter-smoke.XXXXXX")
trap 'rm -rf "$WORK"' EXIT INT TERM

echo "== kiter smoke: k = 1 bit-identity, ppp vs ppp;+kiter1 =="
for BENCH in mcf twolf; do
  "$BUILD_DIR/tools/ppp_cli" run "$BENCH" --profiler=ppp \
    >"$WORK/$BENCH.plain.out"
  "$BUILD_DIR/tools/ppp_cli" run "$BENCH" --profiler='ppp;+kiter1' |
    sed 's/^profiler ppp+kiter1:/profiler ppp:/' >"$WORK/$BENCH.k1.out"
  diff "$WORK/$BENCH.plain.out" "$WORK/$BENCH.k1.out"
done
echo "ok: k = 1 profiles byte-identical to unchained ppp"

echo "== kiter smoke: k = 2/4 conservation over the blowup corpus =="
"$BUILD_DIR/tools/fuzz_ppp" --seed=7 --count=40 --kblow=1 --quiet
"$BUILD_DIR/tools/fuzz_ppp" --seed=11 --count=20 --fault --kblow=1 --quiet

echo "kiter_smoke: OK"
