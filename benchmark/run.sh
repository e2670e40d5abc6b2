#!/usr/bin/env bash
# Build the benchmark program, then run the benchmark. The first call in
# a checkout configures and compiles the simulator from src/ (Release)
# into .bench_build/; later calls only check that the build is current.
# Every argument is passed to benchmark/run.py (see --help there):
#
#   bash benchmark/run.sh --workload channel --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh --repeat 3 --json base.json   # every workload
#   bash benchmark/run.sh --smoke
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
log="$build/build.log"
mkdir -p "$build"

generator=()
if command -v ninja >/dev/null 2>&1; then
    generator=(-G Ninja)
fi
jobs="$(nproc)"
if (( jobs > 4 )); then
    jobs=4
fi

if [[ ! -f "$build/CMakeCache.txt" ]]; then
    if ! cmake -S "$root/benchmark" -B "$build" "${generator[@]}" \
            -DCMAKE_BUILD_TYPE=Release >"$log" 2>&1; then
        tail -n 20 "$log" >&2
        rm -f "$build/CMakeCache.txt"
        echo "run.sh: configuring the benchmark failed (log: $log)" >&2
        exit 1
    fi
fi
if ! cmake --build "$build" --parallel "$jobs" >>"$log" 2>&1; then
    tail -n 40 "$log" >&2
    echo "run.sh: building the benchmark failed (log: $log)" >&2
    exit 1
fi

exec python3 "$root/benchmark/run.py" "$@"
