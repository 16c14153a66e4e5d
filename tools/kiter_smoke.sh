#!/usr/bin/env sh
# k-iteration smoke test: chaining must be invisible at k = 1 and
# conservative at k > 1. Four checks against already-built binaries:
#
#   1. k = 1 is the identity: `ppp_cli run --profiler='ppp;+kiter1'`
#      prints byte-identical output to plain --profiler=ppp once the
#      profiler display name (the only intended difference) is
#      normalized away.
#   2. The fig9 k axis defaults off: PPP_KITER=1 stdout is
#      byte-identical to a run with the variable unset, and
#      PPP_KITER=2 actually emits a k = 2 table.
#   3. k in {2, 4} conserve flushes: a fixed-seed fuzz slice with the
#      kiter blowup shape (demotes cleanly at k = 4) runs the
#      differential invariant battery, which embeds the per-routine
#      conservation check.
#   4. kiter_blowup --json emits a valid ppp-metrics-v1 report that
#      passes bench_diff's kiter gate against itself.
#
# Usage: tools/kiter_smoke.sh [BUILD_DIR]   (default: <repo>/build)
set -eu

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD_DIR=${1:-"$REPO_ROOT/build"}

for BIN in tools/ppp_cli tools/fuzz_ppp bench/suite_all bench/kiter_blowup; do
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

echo "== kiter smoke: fig9 axis off by default, on under PPP_KITER =="
# fig9 [VAR=VALUE...]: fig9_accuracy's stdout under the given settings.
fig9() {
  env PPP_CACHE_DIR="$WORK/cache" "$@" \
    "$BUILD_DIR/bench/suite_all" fig9_accuracy 2>/dev/null
}
fig9 >"$WORK/fig9.unset.out"
fig9 PPP_KITER=1 >"$WORK/fig9.k1.out"
diff "$WORK/fig9.unset.out" "$WORK/fig9.k1.out"
fig9 PPP_KITER=2 >"$WORK/fig9.k2.out"
grep -q -- "-- k = 2" "$WORK/fig9.k2.out" || {
  echo "kiter_smoke: PPP_KITER=2 produced no k = 2 table" >&2
  exit 1
}
echo "ok: PPP_KITER=1 stdout byte-identical, PPP_KITER=2 adds a table"

echo "== kiter smoke: k = 2/4 conservation over the blowup corpus =="
"$BUILD_DIR/tools/fuzz_ppp" --seed=7 --count=40 --kblow=1 --quiet
"$BUILD_DIR/tools/fuzz_ppp" --seed=11 --count=20 --fault --kblow=1 --quiet

echo "== kiter smoke: kiter_blowup JSON passes its bench_diff gate =="
(cd "$WORK" && PPP_CACHE_DIR="$WORK/cache" \
  "$BUILD_DIR/bench/kiter_blowup" --json="$WORK/kiter.json" >/dev/null)
python3 "$REPO_ROOT/tools/bench_diff.py" --gate kiter \
  "$WORK/kiter.json" "$WORK/kiter.json" >/dev/null
echo "ok: kiter gate accepts a self-comparison"

echo "kiter_smoke: OK"
