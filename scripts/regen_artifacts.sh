#!/usr/bin/env bash
#
# Every tracked artifact a golden ctest compares against, with the one
# invocation that produces it. --check (the default) reruns each
# invocation and compares its output byte for byte with the tracked
# file; --regen overwrites the tracked file instead, for a deliberate
# output change committed together with its cause.
#
#   $ scripts/regen_artifacts.sh                       # check them all
#   $ scripts/regen_artifacts.sh --check fig03_seed.json
#   $ scripts/regen_artifacts.sh --regen attack_programs.txt
#
# Artifacts (tests/golden/ unless noted):
#   fig03_seed.json fig12_seed.json fig13_seed.json  figure JSON, seed 1
#   attack_programs.txt  every attack program's listing and data image
#   matrix_smoke.json    the reduced matrix, 2 reps on 4 workers
#   matrix_reps3.json    the reduced matrix, 3 reps on 3 workers
#   matrix_seed.json     the full matrix (every defense), the nightly run
#   MATRIX.md            (repo root) that full matrix's report
#   BENCH_victim.json    (repo root) the victim sweep CI smoke-runs
#
# The ctests golden_figures, golden_attack_programs, golden_matrix,
# golden_matrix_reps3, golden_matrix_seed and golden_victim run this
# script by name.
#
# Environment:
#   BUILD_DIR  build tree with compiled benches and tests: absolute, or
#              relative to the repo root (default: build)

set -euo pipefail

HERE=$(cd "$(dirname "$0")/.." && pwd)
GOLDEN="$HERE/tests/golden"
BUILD_DIR=${BUILD_DIR:-build}
case "$BUILD_DIR" in
    /*) BUILD="$BUILD_DIR" ;;
    *) BUILD="$HERE/$BUILD_DIR" ;;
esac
BENCH="$BUILD/bench"
ALL=(fig03_seed.json fig12_seed.json fig13_seed.json attack_programs.txt
     matrix_smoke.json matrix_reps3.json matrix_seed.json MATRIX.md
     BENCH_victim.json)

mode=check
names=()
for arg in "$@"; do
    case "$arg" in
        --check) mode=check ;;
        --regen) mode=regen ;;
        -h|--help) sed -n '3,/^$/s/^# \{0,1\}//p' "$0"; exit 0 ;;
        -*) echo "error: unknown option '$arg'" >&2; exit 2 ;;
        *) names+=("$arg") ;;
    esac
done
[ ${#names[@]} -eq 0 ] && names=("${ALL[@]}")

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
fail=0

# need <binary>: fail unless the build tree has it (CI jobs build only
# the target their artifact needs).
need() {
    if [ ! -x "$1" ]; then
        echo "error: $1 not built; run: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
        exit 2
    fi
}

# produce <artifact> <dir>: run the artifact's invocation in <dir> and
# set `out` (the file it wrote), `ref` (the tracked file) and `how`
# (the comparison: cmp, or diff for the text listing).
produce() {
    local dir=$2
    case "$1" in
        fig03_seed.json|fig13_seed.json|fig12_seed.json)
            local bench extra=()
            case "$1" in
                fig03_seed.json) bench=fig03_timing_difference ;;
                fig13_seed.json) bench=fig13_noisy_host ;;
                # fig12 pins the overhead runs, memoized or not, cycle
                # for cycle.
                fig12_seed.json) bench=fig12_const_rollback_overhead
                                 extra=(--scale 20000) ;;
            esac
            need "$BENCH/$bench"
            "$BENCH/$bench" --reps 2 --seed 1 --threads 1 "${extra[@]}" \
                --json "$dir/$1" > /dev/null
            out=$dir/$1 ref=$GOLDEN/$1 how=cmp ;;
        attack_programs.txt)
            need "$BUILD/tests/dump_attack_programs"
            "$BUILD/tests/dump_attack_programs" > "$dir/$1"
            out=$dir/$1 ref=$GOLDEN/$1 how=diff ;;
        matrix_smoke.json)
            need "$BENCH/matrix_campaign"
            (cd "$dir" && "$BENCH/matrix_campaign" --reps 2 --seed 1 \
                --threads 4 --scale 12 --json matrix-smoke.json > /dev/null)
            out=$dir/matrix-smoke.json ref=$GOLDEN/$1 how=cmp ;;
        matrix_reps3.json)
            # Every seed-free cell's reps 1 and 2 are matrix-trial memo
            # hits, claimed while rep 0 may still be in flight.
            need "$BENCH/matrix_campaign"
            (cd "$dir" && "$BENCH/matrix_campaign" --reps 3 --seed 1 \
                --threads 3 --scale 12 --json matrix-reps3.json > /dev/null)
            out=$dir/matrix-reps3.json ref=$GOLDEN/$1 how=cmp ;;
        matrix_seed.json|MATRIX.md)
            # The nightly full sweep (nightly-matrix.yml, without its
            # journal): one run writes both the JSON and the report.
            need "$BENCH/matrix_campaign"
            (cd "$dir" && "$BENCH/matrix_campaign" --matrix --reps 3 \
                --scale 24 --seed 1 --threads 4 \
                --json matrix-nightly-experiment.json \
                matrix-nightly > /dev/null)
            case "$1" in
                matrix_seed.json) out=$dir/matrix-nightly.json
                                  ref=$GOLDEN/$1 ;;
                MATRIX.md) out=$dir/matrix-nightly.md ref=$HERE/$1 ;;
            esac
            how=cmp ;;
        BENCH_victim.json)
            need "$BENCH/victim_recovery"
            (cd "$dir" && "$BENCH/victim_recovery" --reps 2 --seed 1 \
                --threads 4 --json victim-smoke-experiment.json \
                victim-smoke > /dev/null)
            out=$dir/victim-smoke.json ref=$HERE/$1 how=cmp ;;
        *)
            echo "error: unknown artifact '$1' (one of: ${ALL[*]})" >&2
            exit 2 ;;
    esac
}

for name in "${names[@]}"; do
    dir="$scratch/$name"
    mkdir -p "$dir"
    produce "$name" "$dir"
    if [ "$mode" = regen ]; then
        cp "$out" "$ref"
        echo "regenerated ${ref#"$HERE"/}"
    elif [ "$how" = diff ]; then
        if diff -u "$ref" "$out"; then
            echo "ok: $name"
        else
            echo "FAIL: $name differs from ${ref#"$HERE"/}" >&2
            fail=1
        fi
    elif cmp -s "$ref" "$out"; then
        echo "ok: $name"
    else
        echo "FAIL: $name differs from ${ref#"$HERE"/}" >&2
        diff -u "$ref" "$out" | head -40 >&2 || true
        fail=1
    fi
done

exit $fail
