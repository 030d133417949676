#!/usr/bin/env bash
# Rebuild, test and regenerate every table/figure of the reproduction
# as one orchestrated run: every bench routes its sweeps through the
# critics::runner, so all batches share one result cache (a re-run
# performs zero new simulations) and one manifest directory.  The final
# `critics_cli report` pass fails the script if any batch recorded a
# failed job or was interrupted.
set -euo pipefail
cd "$(dirname "$0")/.."

# One cache for the whole reproduction; override to relocate it
# (e.g. CRITICS_CACHE_DIR=/tmp/scratch to force a cold run).
export CRITICS_CACHE_DIR="${CRITICS_CACHE_DIR:-$PWD/.critics-cache}"

cmake -B build
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure 2>&1 | tee test_output.txt

{
    for b in build/bench/*; do
        [ -f "$b" ] && [ -x "$b" ] || continue
        case "$(basename "$b")" in micro_components) continue ;; esac
        echo "### $(basename "$b")"
        "$b"
    done
} 2>&1 | tee bench_output.txt

./build/bench/micro_components --benchmark_min_time=0.2 \
    2>&1 | tee micro_output.txt

# Gate on the run manifests: non-zero exit if any batch has a
# failed-job record (or was interrupted by SIGINT).
echo "### run manifests"
./build/examples/critics_cli report
