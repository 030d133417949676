#!/usr/bin/env bash
# The CLI drift gates: each runs critics_cli end to end and fails on
# any drift between two ways of computing the same results.
#
#   cache-drift          a fully-cached rerun diffs clean against a
#                        fresh run (zero tolerance)
#   sharded-smoke        a 2-shard run, with jobs in both shards,
#                        merges to the unsharded store; cache compact
#                        + gc leave the diff clean
#   trace-conformance    lint --trace is clean over the 416-job matrix
#   verify-global-drift  CRITICS_VERIFY=global changes no result over
#                        the 416-job matrix (zero tolerance)
#
# Usage: scripts/gates.sh <gate>|all   (after cmake --build build)
# Scratch caches go under $RUNNER_TEMP (a fresh temporary directory
# when unset).
set -euo pipefail
cd "$(dirname "$0")/.."

[ -x build/examples/critics_cli ] || {
    echo "build build/examples/critics_cli first (cmake --build build)"
    exit 1
}
if [ -z "${RUNNER_TEMP:-}" ]; then
    RUNNER_TEMP="$(mktemp -d "${TMPDIR:-/tmp}/critics-gates.XXXXXX")"
    trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi

cache_drift() (
    # Cold sweep on a fresh cache, then the same batch warm (every job
    # served from the cache) diffed against an independent fresh
    # computation — catches any drift the cache layer itself could
    # introduce (wrong record matched, round-trip loss, stale schema).
    export CRITICS_CACHE_DIR="$RUNNER_TEMP/critics-cold"
    build/examples/critics_cli run \
        --apps Acrobat,Office --variants baseline,critic,opp16,allhw \
        --insts 50000 --batch drift
    build/examples/critics_cli run \
        --apps Acrobat,Office --variants baseline,critic,opp16,allhw \
        --insts 50000 --batch drift-cached
    export CRITICS_CACHE_DIR="$RUNNER_TEMP/critics-fresh"
    build/examples/critics_cli run \
        --apps Acrobat,Office --variants baseline,critic,opp16,allhw \
        --insts 50000 --batch drift
    build/examples/critics_cli diff --rel 0 --abs 0 \
        --store "$RUNNER_TEMP/critics-cold/results.jsonl" \
        "$RUNNER_TEMP/critics-cold/manifests/drift-cached.json" \
        "$RUNNER_TEMP/critics-fresh/results.jsonl"
)

sharded_smoke() (
    # A tiny batch as 2 shards, merged and diffed against an unsharded
    # run; then cache compact + gc must leave that diff clean.  The
    # grid's 8 jobs hash into both shards, and a shard store the merge
    # read that is missing or empty fails the gate: a grid that lands
    # wholly in one shard would prove nothing about the merge.
    export CRITICS_CACHE_DIR="$RUNNER_TEMP/critics-shard-ci"
    scripts/run_sharded.sh -n 2 --check -- \
        --apps Acrobat,Office --variants baseline,critic,opp16,allhw
    for k in 1 2; do
        store="$CRITICS_CACHE_DIR/results.shard-$k-of-2.jsonl"
        [ -s "$store" ] || {
            echo "shard $k of 2 left no records in $store"
            exit 1
        }
        echo "shard $k of 2: $(wc -l < "$store") record(s)"
    done
    CLI=build/examples/critics_cli
    "$CLI" cache compact
    "$CLI" cache gc --max-bytes 512M
    "$CLI" diff "$CRITICS_CACHE_DIR/results.unsharded-check.jsonl" \
        "$CRITICS_CACHE_DIR/results.jsonl"
)

trace_conformance() (
    # Replay every variant's re-emitted trace against its transformed
    # program across the full matrix.  Any verify.trace.* or
    # verify.cfg.* error (non-successor transition, diverged block
    # body, unknown uid, taken frequency outside the bias bound of
    # DESIGN.md §11) fails through the lint exit code; then the
    # per-code counts are summarized.
    build/examples/critics_cli lint --trace --apps all \
        --variants all --insts 100000 \
        --out "$RUNNER_TEMP/trace_lint.json"
    python3 - "$RUNNER_TEMP/trace_lint.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
print("schema", report["schema"], "clean", report["clean"])
for code, count in sorted(report["totals"]["codes"].items()):
    print(f"{count:10d}  {code}")
EOF
)

verify_global_drift() (
    # Verification is pure observation: a sweep with the whole-program
    # tier enabled must be bit-identical to a plain sweep.  Zero
    # tolerance, full matrix.
    export CRITICS_CACHE_DIR="$RUNNER_TEMP/critics-plain"
    CRITICS_VERIFY=off build/examples/critics_cli run \
        --apps all --variants all --insts 100000 \
        --batch verify-drift
    export CRITICS_CACHE_DIR="$RUNNER_TEMP/critics-global"
    CRITICS_VERIFY=global build/examples/critics_cli run \
        --apps all --variants all --insts 100000 \
        --batch verify-drift
    build/examples/critics_cli diff --rel 0 --abs 0 \
        "$RUNNER_TEMP/critics-plain/results.jsonl" \
        "$RUNNER_TEMP/critics-global/results.jsonl"
)

GATES="cache-drift sharded-smoke trace-conformance verify-global-drift"

run_gate() {
    echo "=== gate: $1"
    case "$1" in
        cache-drift) cache_drift ;;
        sharded-smoke) sharded_smoke ;;
        trace-conformance) trace_conformance ;;
        verify-global-drift) verify_global_drift ;;
        *) echo "unknown gate '$1'; one of: all" $GATES; exit 2 ;;
    esac
    echo "=== gate passed: $1"
}

[ $# -eq 1 ] || { echo "usage: scripts/gates.sh <gate>|all"; exit 2; }
if [ "$1" = all ]; then
    for gate in $GATES; do
        run_gate "$gate"
    done
else
    run_gate "$1"
fi
