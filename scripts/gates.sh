#!/usr/bin/env bash
# The CLI drift gates: each runs critics_cli end to end and fails on
# any drift between two ways of computing the same results.
#
#   cache-drift          a fully-cached rerun diffs clean against a
#                        fresh run (zero tolerance), and its --json
#                        stats equal a --no-cache run's byte for byte
#   concurrent-writers   two runs started at once write one store;
#                        after cache compact + gc it diffs clean
#                        against a one-process run (zero tolerance)
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
    # Both sides of that diff are read back through the store's record
    # codec, so the warm run's `--json` stats are also compared byte for
    # byte with a --no-cache run's, which never touches the store: %.17g
    # round-trips every double, so any leaf the codec loses shows.
    CLI=build/examples/critics_cli
    RUN=(run --apps Acrobat,Office --variants baseline,critic,opp16,allhw
         --insts 50000)
    export CRITICS_CACHE_DIR="$RUNNER_TEMP/critics-cold"
    "$CLI" "${RUN[@]}" --batch drift
    "$CLI" "${RUN[@]}" --batch drift-cached --json \
        > "$RUNNER_TEMP/drift-cached.out"
    cat "$RUNNER_TEMP/drift-cached.out"
    export CRITICS_CACHE_DIR="$RUNNER_TEMP/critics-fresh"
    "$CLI" "${RUN[@]}" --batch drift
    "$CLI" diff --rel 0 --abs 0 \
        --store "$RUNNER_TEMP/critics-cold/results.jsonl" \
        "$RUNNER_TEMP/critics-cold/manifests/drift-cached.json" \
        "$RUNNER_TEMP/critics-fresh/results.jsonl"
    "$CLI" "${RUN[@]}" --no-cache --json > "$RUNNER_TEMP/no-cache.out"
    grep '^{' "$RUNNER_TEMP/drift-cached.out" > "$RUNNER_TEMP/drift-cached.jsonl"
    grep '^{' "$RUNNER_TEMP/no-cache.out" > "$RUNNER_TEMP/no-cache.jsonl"
    cmp "$RUNNER_TEMP/drift-cached.jsonl" "$RUNNER_TEMP/no-cache.jsonl"
    echo "$(wc -l < "$RUNNER_TEMP/no-cache.jsonl") --json lines identical"
)

concurrent_writers() (
    # Two processes write one shared store at once, over disjoint apps
    # and the same variants: each append is one write(2) under the
    # store's flock, so the store must end up with all 8 records, none
    # torn.  Then cache compact + gc must leave it bit-identical to a
    # one-process run of the same 8 jobs in another cache dir.
    CLI=build/examples/critics_cli
    VARIANTS=baseline,critic,opp16,allhw
    export CRITICS_CACHE_DIR="$RUNNER_TEMP/critics-shared"
    "$CLI" run --apps Acrobat --variants "$VARIANTS" --batch acrobat &
    acrobat=$!
    "$CLI" run --apps Office --variants "$VARIANTS" --batch office &
    office=$!
    status=0
    wait "$acrobat" || status=$?
    wait "$office" || status=$?
    [ "$status" -eq 0 ] || { echo "a writer failed (exit $status)"; exit 1; }
    records=$(wc -l < "$CRITICS_CACHE_DIR/results.jsonl")
    [ "$records" -eq 8 ] || {
        echo "the shared store holds $records record(s), not 8"
        exit 1
    }
    "$CLI" cache compact
    "$CLI" cache gc --max-bytes 512M
    CRITICS_CACHE_DIR="$RUNNER_TEMP/critics-single" "$CLI" run \
        --apps Acrobat,Office --variants "$VARIANTS" --batch single
    "$CLI" diff --rel 0 --abs 0 \
        "$RUNNER_TEMP/critics-single/results.jsonl" \
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

GATES="cache-drift concurrent-writers trace-conformance verify-global-drift"

run_gate() {
    echo "=== gate: $1"
    case "$1" in
        cache-drift) cache_drift ;;
        concurrent-writers) concurrent_writers ;;
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
