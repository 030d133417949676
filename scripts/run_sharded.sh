#!/usr/bin/env bash
# Run one critics_cli batch as N cooperating processes: each shard
# owns a deterministic, disjoint slice of the (apps x variants) grid
# (partitioned by job content hash — see src/runner/shard.hh), writes
# its own results.shard-K-of-N.jsonl store plus a per-shard manifest,
# and the shard stores are merged into one canonical store at the end.
# The merged store reproduces a single-process run digit for digit, so
# an optional --check pass runs the same batch unsharded and diffs the
# two stores, failing on any drift.
#
# Usage:
#   scripts/run_sharded.sh [-n SHARDS] [-o MERGED.jsonl] [--check] \
#       [critics_cli run args...]
#
# Examples:
#   scripts/run_sharded.sh -n 4 -- --apps Acrobat,Office \
#       --variants baseline,critic
#   scripts/run_sharded.sh -n 2 --check   # tiny default grid + verify
set -euo pipefail
cd "$(dirname "$0")/.."

CLI=build/examples/critics_cli
SHARDS=2
MERGED=""
CHECK=0
RUN_ARGS=()

while [ $# -gt 0 ]; do
    case "$1" in
        -n) SHARDS="$2"; shift 2 ;;
        -o) MERGED="$2"; shift 2 ;;
        --check) CHECK=1; shift ;;
        --) shift; RUN_ARGS=("$@"); break ;;
        *) RUN_ARGS+=("$1"); shift ;;
    esac
done
if [ ${#RUN_ARGS[@]} -eq 0 ]; then
    RUN_ARGS=(--apps Acrobat,Office --variants baseline,critic)
fi
[ -x "$CLI" ] || { echo "build $CLI first (cmake --build build)"; exit 1; }

CACHE_DIR="${CRITICS_CACHE_DIR:-$PWD/.critics-cache}"
export CRITICS_CACHE_DIR="$CACHE_DIR"
MERGED="${MERGED:-$CACHE_DIR/results.jsonl}"
mkdir -p "$CACHE_DIR"

# Launch the shards.  Each process computes the same partition and
# keeps only its own slice, so the stores are disjoint by design.
pids=()
stores=()
for k in $(seq 1 "$SHARDS"); do
    store="$CACHE_DIR/results.shard-$k-of-$SHARDS.jsonl"
    rm -f "$store" "$store.lock" # the store and its lock sidecar
    stores+=("$store")
    "$CLI" run "${RUN_ARGS[@]}" --shard "$k/$SHARDS" &
    pids+=($!)
done
status=0
for pid in "${pids[@]}"; do
    wait "$pid" || status=$?
done
[ "$status" -eq 0 ] || { echo "a shard failed (exit $status)"; exit "$status"; }

# Fold the shard stores into the canonical store.  Stores for shards
# that owned zero jobs may not exist; merge skips them.
"$CLI" cache merge "$MERGED" "${stores[@]}"

if [ "$CHECK" -eq 1 ]; then
    # Re-run unsharded into a scratch store (all jobs hit the
    # simulator again) and demand zero drift against the merge.
    REF="$CACHE_DIR/results.unsharded-check.jsonl"
    rm -f "$REF" "$REF.lock"
    "$CLI" run "${RUN_ARGS[@]}" --cache-file "$REF"
    "$CLI" diff "$REF" "$MERGED"
    echo "sharded run matches unsharded run"
fi
