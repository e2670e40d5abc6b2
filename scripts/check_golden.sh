#!/usr/bin/env bash
#
# Golden byte-identity gate for the Machine refactor: a single-core
# (--cores 1, the default) machine must produce the exact bytes the
# pre-Machine simulator produced, because N=1 exercises the same code
# with the coherence engine absent. Any diff here means the refactor
# changed single-core timing, RNG draw order, or JSON emission — all
# regressions, never acceptable drift.
#
# The references in tests/golden/ were captured with exactly the
# invocations below. If a *deliberate* behaviour change lands (new
# stats field, schema bump), regenerate them in the same commit:
#
#   $ scripts/check_golden.sh --regen
#
# Environment:
#   BUILD_DIR  build tree with compiled benches: absolute, or relative
#              to the repo root (default: build)

set -euo pipefail

BUILD_DIR=${BUILD_DIR:-build}
HERE=$(cd "$(dirname "$0")/.." && pwd)
GOLDEN="$HERE/tests/golden"
case "$BUILD_DIR" in
    /*) BENCH="$BUILD_DIR/bench" ;;
    *) BENCH="$HERE/$BUILD_DIR/bench" ;;
esac
REGEN=0
[ "${1:-}" = "--regen" ] && REGEN=1

if [ ! -x "$BENCH/fig03_timing_difference" ]; then
    echo "error: benches not built; run: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
    exit 2
fi

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
fail=0

# check <bench> <golden-file> [bench args...] — run with the frozen
# settings plus any extra arguments, and cmp.
check() {
    local bench=$1 ref=$2
    shift 2
    local out="$scratch/$ref"
    "$BENCH/$bench" --reps 2 --seed 1 --threads 1 "$@" \
        --json "$out" > /dev/null
    if [ "$REGEN" = 1 ]; then
        cp "$out" "$GOLDEN/$ref"
        echo "regenerated $ref"
        return
    fi
    if cmp -s "$out" "$GOLDEN/$ref"; then
        echo "ok: $bench matches tests/golden/$ref"
    else
        echo "FAIL: $bench output differs from tests/golden/$ref" >&2
        diff -u "$GOLDEN/$ref" "$out" | head -40 >&2 || true
        fail=1
    fi
}

check fig03_timing_difference fig03_seed.json
check fig13_noisy_host fig13_seed.json
# fig12 pins the overhead runs, memoized or not, cycle for cycle.
check fig12_const_rollback_overhead fig12_seed.json --scale 20000

exit $fail
