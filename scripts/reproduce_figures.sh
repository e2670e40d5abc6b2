#!/usr/bin/env bash
#
# Reproduce every paper figure/table in one command, writing text
# output plus machine-readable JSON/CSV artifacts into results/.
#
#   $ scripts/reproduce_figures.sh            # full-size runs
#   $ SCALE=quick scripts/reproduce_figures.sh  # ~1 min smoke version
#
# Every run is deterministic: if the script is killed, rerun it and
# the artifacts come out bit-identical.
#
# Environment:
#   BUILD_DIR  build tree with compiled benches (default: build)
#   OUT_DIR    artifact directory               (default: results)
#   THREADS    trial-pool width, 0 = hardware   (default: 0)
#   SCALE      "full" (paper sizes) or "quick"  (default: full)

set -euo pipefail

BUILD_DIR=${BUILD_DIR:-build}
OUT_DIR=${OUT_DIR:-results}
THREADS=${THREADS:-0}
SCALE=${SCALE:-full}

BENCH="$BUILD_DIR/bench"
if [ ! -x "$BENCH/fig03_timing_difference" ]; then
    echo "error: benches not built; run: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
    exit 1
fi
mkdir -p "$OUT_DIR"

# run <name> [extra args...] — one harness bench to text + JSON + CSV.
run() {
    local name=$1
    shift
    local args=("$@" --threads "$THREADS"
                --json "$OUT_DIR/$name.json" --csv "$OUT_DIR/$name.csv")
    echo "==> $name $*"
    "$BENCH/$name" "${args[@]}" | tee "$OUT_DIR/$name.txt"
    echo
}

if [ "$SCALE" = quick ]; then
    run fig02_branch_resolution --reps 3
    run fig03_timing_difference --reps 3
    run fig06_timing_difference_evset --reps 3
    run fig07_pdf_no_evset --scale 100
    run fig08_pdf_evset --scale 100
    run fig09_secret_bits --scale 200
    run fig10_leak_no_evset --scale 200
    run fig11_leak_evset --scale 200
    run fig12_const_rollback_overhead --scale 20000
    run fig13_noisy_host --reps 5
    run leakage_rate --scale 10
else
    run fig02_branch_resolution
    run fig03_timing_difference
    run fig06_timing_difference_evset
    run fig07_pdf_no_evset
    run fig08_pdf_evset
    run fig09_secret_bits
    run fig10_leak_no_evset
    run fig11_leak_evset
    run fig12_const_rollback_overhead
    run fig13_noisy_host
    run leakage_rate
fi

echo "all figures reproduced; artifacts in $OUT_DIR/"
ls -l "$OUT_DIR"
