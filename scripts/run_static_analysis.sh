#!/usr/bin/env bash
# Run the repo's full static-analysis gate: the project lint
# scripts/speccheck (undo-completeness per CleanupMode, unpaired
# spec-state mutations and hot-path rules over src/, plus the per-file
# determinism, ownership, header and coherence rules over src/ bench/
# tests/ examples/), clang-tidy over every src/ bench/ tests/
# translation unit, and cppcheck. This is the same sequence CI
# enforces as blocking jobs; run it locally before pushing.
#
# Tools that are not installed are skipped with a warning so the script
# stays useful on minimal boxes (speccheck's builtin frontend needs only
# python3). Pass --require-all (CI does) to turn a missing tool into a
# failure.
#
#   scripts/run_static_analysis.sh [--require-all] [BUILD_DIR]
#
# BUILD_DIR defaults to build/ and only needs a configure step: the
# compile database (compile_commands.json) is exported by default.
set -u

cd "$(dirname "$0")/.."

require_all=0
build_dir=build
for arg in "$@"; do
    case "$arg" in
        --require-all) require_all=1 ;;
        *) build_dir=$arg ;;
    esac
done

failures=0
skipped=0

missing_tool() {
    if [ "$require_all" -eq 1 ]; then
        echo "ERROR: $1 not found (required by --require-all)" >&2
        failures=$((failures + 1))
    else
        echo "skip: $1 not found" >&2
        skipped=$((skipped + 1))
    fi
}

run_gate() {
    echo "==> $*"
    if ! "$@"; then
        failures=$((failures + 1))
    fi
}

# --- project lint (pure python, always available) ----------------------
if command -v python3 >/dev/null 2>&1; then
    # Locally the builtin token frontend runs with
    # no dependencies; under --require-all (CI) a missing/unusable
    # libclang is an error instead of a graceful fallback, so the
    # compiler-exact frontend is what actually gates merges.
    speccheck_args=(--compdb "$build_dir/compile_commands.json")
    if [ "$require_all" -eq 1 ]; then
        speccheck_args+=(--ci)
    fi
    run_gate python3 scripts/speccheck "${speccheck_args[@]}"
else
    missing_tool python3
fi

# --- clang-tidy over the compile database ------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
    if [ ! -f "$build_dir/compile_commands.json" ]; then
        echo "==> cmake -B $build_dir -S . (for compile_commands.json)"
        if ! cmake -B "$build_dir" -S . >/dev/null; then
            echo "ERROR: configure failed; cannot run clang-tidy" >&2
            failures=$((failures + 1))
        fi
    fi
    if [ -f "$build_dir/compile_commands.json" ]; then
        # shellcheck disable=SC2046  # one argument per source file
        run_gate clang-tidy -p "$build_dir" --quiet \
            $(find src bench tests -name '*.cc' \
                  -not -path 'tests/speccheck/*' | sort)
    fi
else
    missing_tool clang-tidy
fi

# --- cppcheck ----------------------------------------------------------
if command -v cppcheck >/dev/null 2>&1; then
    run_gate cppcheck --std=c++20 --language=c++ \
        --enable=warning,performance,portability \
        --inline-suppr --suppressions-list=.cppcheck-suppressions \
        --error-exitcode=1 --quiet -I src src
else
    missing_tool cppcheck
fi

echo
if [ "$failures" -ne 0 ]; then
    echo "static analysis: $failures gate(s) FAILED"
    exit 1
fi
if [ "$skipped" -ne 0 ]; then
    echo "static analysis: clean ($skipped tool(s) skipped locally)"
else
    echo "static analysis: clean"
fi
