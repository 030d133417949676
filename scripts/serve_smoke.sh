#!/usr/bin/env bash
# End-to-end smoke test of the serve daemon (src/serve/): start it on
# an ephemeral port, run a cold batch through forked workers with one
# worker kill -9'd mid-batch (the supervisor must restart it and the
# batch must still finish clean), resubmit the identical batch and
# demand it is answered entirely from the warm store (zero new
# simulations), check the served store holds each job's record exactly
# once after both and that no scratch shard store (or its lock sidecar)
# outlives its batch, SIGTERM-drain the daemon, and finally diff the served
# result store bit-for-bit against a direct `critics_cli run` of the
# same grid — the service layer must be invisible in the numbers.
#
# Usage: scripts/serve_smoke.sh   (after cmake --build build)
set -euo pipefail
cd "$(dirname "$0")/.."

CLI="${CRITICS_CLI:-build/examples/critics_cli}"
[ -x "$CLI" ] || { echo "build $CLI first (cmake --build build)"; exit 1; }
case "$CLI" in /*) ;; *) CLI="$PWD/$CLI" ;; esac
# absolute path: worker cmdlines are matched on this prefix

APPS="Acrobat,Office"
VARIANTS="baseline,critic"
INSTS=50000
JOBS=4 # |apps| x |variants|

WORK="$(mktemp -d "${TMPDIR:-/tmp}/critics-serve-smoke.XXXXXX")"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

PORT_FILE="$WORK/port"
STORE="$WORK/cache/results.jsonl"

"$CLI" serve --port 0 --port-file "$PORT_FILE" --workers 2 \
    --cache-file "$STORE" --stats-out "$WORK/serve_stats.json" \
    --trace-out "$WORK/serve_trace.json" >"$WORK/serve.log" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 100); do
    [ -s "$PORT_FILE" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || {
        echo "daemon died on startup:"; cat "$WORK/serve.log"; exit 1
    }
    sleep 0.1
done
[ -s "$PORT_FILE" ] || { echo "daemon never published its port"; exit 1; }
echo "daemon up on port $(cat "$PORT_FILE")"

# ---- 1. Cold batch, with a worker murdered mid-flight ----------------
# --sleep-ms slows each simulated job so a worker is reliably alive to
# kill; the supervisor must respawn it and the respawn must warm-replay
# its shard store, so the batch still completes with zero failures.
"$CLI" submit --port-file "$PORT_FILE" --apps "$APPS" \
    --variants "$VARIANTS" --insts "$INSTS" --sleep-ms 1500 \
    --batch smoke --no-wait >"$WORK/submit1.json"
cat "$WORK/submit1.json"
JOB="$(sed -n 's/.*"job":"\([^"]*\)".*/\1/p' "$WORK/submit1.json")"
[ -n "$JOB" ] || { echo "submit returned no job id"; exit 1; }

# Anchor the pattern on the absolute binary path so pgrep can only
# match real serve-worker processes, never this script's own cmdline,
# and only children of this daemon, never the workers of another
# daemon running from the same binary (a concurrent obs_smoke).
VICTIM=""
for _ in $(seq 1 100); do
    VICTIM="$(pgrep -P "$SERVER_PID" -f "^$CLI serve-worker" |
        head -1 || true)"
    [ -n "$VICTIM" ] && break
    sleep 0.1
done
[ -n "$VICTIM" ] || { echo "no serve-worker appeared to kill"; exit 1; }
kill -9 "$VICTIM"
echo "killed worker $VICTIM mid-batch"

"$CLI" wait "$JOB" --port-file "$PORT_FILE" >"$WORK/wait1.log"
grep -q '"state":"done"' "$WORK/wait1.log"
grep -q '"failed":0' "$WORK/wait1.log"
[ "$(grep -c '"event":"job"' "$WORK/wait1.log")" -eq "$JOBS" ]
# Every shard record was appended to the served store exactly once: a
# doubled or torn fold changes the line count.
store_lines() { wc -l <"$STORE" | tr -d ' '; }
[ "$(store_lines)" -eq "$JOBS" ] || {
    echo "served store holds $(store_lines) lines, want $JOBS"; exit 1
}
# The batch's scratch shard stores were removed with their sidecars.
no_shard_stores() {
    local left
    left="$(find "$(dirname "$STORE")" -name 'results.*.shard-*')"
    [ -z "$left" ] || { echo "left behind by a batch: $left"; exit 1; }
}
no_shard_stores
echo "cold batch survived the worker kill ($JOBS/$JOBS jobs ok)"

# ---- 2. Warm resubmit: answered from the store, nothing simulated ---
"$CLI" submit --port-file "$PORT_FILE" --apps "$APPS" \
    --variants "$VARIANTS" --insts "$INSTS" \
    --batch smoke-warm >"$WORK/submit2.log"
grep -q "\"warm\":$JOBS" "$WORK/submit2.log"
grep -q '"cold":0' "$WORK/submit2.log"
grep -q '"simulated":0' "$WORK/submit2.log"
[ "$(grep -c '"from-cache":true' "$WORK/submit2.log")" -eq "$JOBS" ]
[ "$(store_lines)" -eq "$JOBS" ] || {
    echo "warm resubmit changed the store: $(store_lines) lines"; exit 1
}
no_shard_stores
echo "warm resubmit served $JOBS/$JOBS jobs from the store"

# ---- 3. SIGTERM drain ------------------------------------------------
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=""
# The drain summary proves the daemon's own accounting: every job
# warm-hit once, simulated once, zero failures, and the kill above
# really cost (at least) one worker restart.
grep -q "drained; $JOBS warm hit(s), $JOBS simulated, 0 failed" \
    "$WORK/serve.log"
grep -Eq '[1-9][0-9]* worker restart' "$WORK/serve.log"
# And the serve.* registry agrees: the warm pass simulated zero jobs.
grep -q "\"warmHits\":$JOBS" "$WORK/serve_stats.json"
grep -q "\"simulated\":$JOBS" "$WORK/serve_stats.json"
grep -q '"failedJobs":0' "$WORK/serve_stats.json"
echo "daemon drained cleanly"

# ---- 4. Served results == direct results, digit for digit -----------
export CRITICS_CACHE_DIR="$WORK/direct"
"$CLI" run --apps "$APPS" --variants "$VARIANTS" --insts "$INSTS" \
    --batch direct >/dev/null
"$CLI" diff --rel 0 --abs 0 "$STORE" "$CRITICS_CACHE_DIR/results.jsonl"
echo "serve smoke passed: served store is bit-exact vs a direct run"
