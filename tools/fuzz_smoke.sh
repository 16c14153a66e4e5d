#!/usr/bin/env sh
# Fixed-seed fuzz smoke: run the 200-module adversarial corpus through
# all three profilers (differential invariants against the PathTracer
# oracle) plus the frame fault-injection pass. Deterministic -- the same
# seeds every run -- so it gates tier-1 like any other test.
#
# Usage: tools/fuzz_smoke.sh <build-dir>
set -eu

BUILD_DIR=${1:?usage: fuzz_smoke.sh <build-dir>}
FUZZ="$BUILD_DIR/tools/fuzz_ppp"

if [ ! -x "$FUZZ" ]; then
  echo "error: $FUZZ not built (run cmake --build $BUILD_DIR first)" >&2
  exit 1
fi

# The corpus proper: 200 default-shape modules, fault-injecting every
# 16th one's binary frames (module / edge profile / path profile /
# trace recording / timed trace recording).
"$FUZZ" --seed=1 --count=200 --fault --quiet

# A handful of degenerate shapes the default knobs never reach.
"$FUZZ" --seed=900 --count=12 --funcs=1 --blocks=1 --trips=1 \
  --diamond=0 --dead=0 --quiet
"$FUZZ" --seed=950 --count=12 --arms=24 --blocks=30 --quiet

echo "fuzz_smoke: OK"
