#!/usr/bin/env bash
# End-to-end smoke test of the serve daemon (src/serve/): start it on
# an ephemeral port, run a cold batch through its long-lived workers
# with one worker kill -9'd mid-batch (the supervisor must restart it
# and the batch must still finish clean), resubmit the identical batch
# and demand it is answered entirely from the warm store (zero new
# simulations), run a second and a third cold batch (the third of two
# transformed variants neither earlier batch ran, so a worker that
# kept its experiment must build their traces on it) and demand the
# same worker processes serve them, check the served store holds each
# job's record exactly once and that a batch leaves nothing in the
# store's directory but the store, its lock sidecar and the manifests,
# SIGTERM-drain the daemon and demand it reaped every worker and that
# the killed worker's respawn re-simulated no job whose event had
# arrived (one job span per job), diff the served result store
# bit-for-bit
# against a direct `critics_cli run` of the same grids — the service
# layer must be invisible in the numbers — and finally kill -9 a second
# daemon and demand its idle workers exit on their own.
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
VARIANTS2="efetch,opp16" # the second cold batch
VARIANTS3="hoist,compress" # the third: transformed, not run before
INSTS=50000
JOBS=4 # |apps| x |variants|, in each cold batch

WORK="$(mktemp -d "${TMPDIR:-/tmp}/critics-serve-smoke.XXXXXX")"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

# start_daemon <port-file> <store> <log> [serve flags...]: SERVER_PID
# is the daemon, up and listening when this returns.
start_daemon() {
    local port_file=$1 store=$2 log=$3
    shift 3
    "$CLI" serve --port 0 --port-file "$port_file" --workers 2 \
        --cache-file "$store" "$@" >"$log" 2>&1 &
    SERVER_PID=$!
    for _ in $(seq 1 100); do
        [ -s "$port_file" ] && break
        kill -0 "$SERVER_PID" 2>/dev/null || {
            echo "daemon died on startup:"; cat "$log"; exit 1
        }
        sleep 0.1
    done
    [ -s "$port_file" ] || { echo "daemon never published its port"; exit 1; }
}

# The worker pids a batch's status lists, one per line.
status_pids() {
    "$CLI" status "$1" --port-file "$2" |
        sed -n 's/.*"pids":\[\([^]]*\)\].*/\1/p' | tr -d '"' | tr ',' '\n'
}

PORT_FILE="$WORK/port"
STORE="$WORK/cache/results.jsonl"

start_daemon "$PORT_FILE" "$STORE" "$WORK/serve.log" \
    --stats-out "$WORK/serve_stats.json" \
    --trace-out "$WORK/serve_trace.json"
echo "daemon up on port $(cat "$PORT_FILE")"

# ---- 1. Cold batch, with a worker murdered mid-flight ----------------
# --sleep-ms slows each simulated job so a worker is reliably alive to
# kill; the supervisor must respawn it with the jobs whose events had
# not arrived, so the batch still completes with zero failures.
"$CLI" submit --port-file "$PORT_FILE" --apps "$APPS" \
    --variants "$VARIANTS" --insts "$INSTS" --sleep-ms 1500 \
    --batch smoke --no-wait >"$WORK/submit1.json"
cat "$WORK/submit1.json"
JOB="$(sed -n 's/.*"job":"\([^"]*\)".*/\1/p' "$WORK/submit1.json")"
[ -n "$JOB" ] || { echo "submit returned no job id"; exit 1; }
TRACE1="$(sed -n 's/.*"trace":"\([^"]*\)".*/\1/p' "$WORK/submit1.json")"

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
# Results ride only the worker leg: a client's events carry none.
if grep -q '"result"' "$WORK/wait1.log"; then
    echo "a client event carries a result"; exit 1
fi
# Every job's record was appended to the served store exactly once: a
# doubled or torn append changes the line count.
store_lines() { wc -l <"$STORE" | tr -d ' '; }
[ "$(store_lines)" -eq "$JOBS" ] || {
    echo "served store holds $(store_lines) lines, want $JOBS"; exit 1
}
# A batch writes its store appends and its manifest, nothing else.
only_store_files() {
    local left
    left="$(LC_ALL=C ls -A "$(dirname "$STORE")" | tr '\n' ' ')"
    [ "$left" = "manifests results.jsonl results.jsonl.lock " ] || {
        echo "the store's directory holds: $left"; exit 1
    }
}
only_store_files
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
only_store_files
echo "warm resubmit served $JOBS/$JOBS jobs from the store"

# ---- 3. Second and third cold batches: the same workers serve them --
PIDS1="$(status_pids "$JOB" "$PORT_FILE")"
[ -n "$PIDS1" ] || { echo "the first batch's status lists no worker"; exit 1; }
# cold_batch <n> <variants> <batch>: submit, demand a clean all-cold
# run in the first batch's workers, and n*JOBS lines in the store.
cold_batch() {
    local n=$1 variants=$2 batch=$3 log="$WORK/submit-$3.log" job pids
    "$CLI" submit --port-file "$PORT_FILE" --apps "$APPS" \
        --variants "$variants" --insts "$INSTS" --batch "$batch" >"$log"
    grep -q '"warm":0' "$log"
    grep -q '"state":"done"' "$log"
    grep -q '"failed":0' "$log"
    job="$(sed -n 's/.*"job":"\([^"]*\)".*/\1/p' "$log" | head -1)"
    pids="$(status_pids "$job" "$PORT_FILE")"
    [ "$PIDS1" = "$pids" ] || {
        echo "workers changed by $batch: $PIDS1 vs $pids"; exit 1
    }
    [ "$(store_lines)" -eq $((n * JOBS)) ] || {
        echo "served store holds $(store_lines) lines, want $((n * JOBS))"
        exit 1
    }
    only_store_files
    echo "cold batch $batch ran in the same workers ($(echo $pids))"
}
cold_batch 2 "$VARIANTS2" smoke-2
cold_batch 3 "$VARIANTS3" smoke-3

# ---- 4. SIGTERM drain ------------------------------------------------
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=""
# The daemon reaped every worker before it exited.
for pid in $PIDS1; do
    if kill -0 "$pid" 2>/dev/null; then
        echo "worker $pid outlived the drain"; exit 1
    fi
done
# The drain summary proves the daemon's own accounting: every job
# warm-hit once, simulated once, zero failures, and the kill above
# really cost (at least) one worker restart.
grep -q "drained; $JOBS warm hit(s), $((3 * JOBS)) simulated, 0 failed" \
    "$WORK/serve.log"
grep -Eq '[1-9][0-9]* worker restart' "$WORK/serve.log"
# And the serve.* registry agrees: the warm pass simulated zero jobs.
grep -q "\"warmHits\":$JOBS" "$WORK/serve_stats.json"
grep -q "\"simulated\":$((3 * JOBS))" "$WORK/serve_stats.json"
grep -q '"failedJobs":0' "$WORK/serve_stats.json"
# The killed worker's respawn simulated only the jobs without an event:
# the merged trace holds one job span per job of the first batch.
SPANS1="$(python3 -c '
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
print(sum(1 for e in events if e.get("cat") == "job" and
          (e.get("args") or {}).get("trace") == sys.argv[2]))
' "$WORK/serve_trace.json" "$TRACE1")"
[ "$SPANS1" -eq "$JOBS" ] || {
    echo "the first batch has $SPANS1 job spans, want $JOBS"; exit 1
}
echo "daemon drained cleanly and reaped its workers"

# ---- 5. Served results == direct results, digit for digit -----------
export CRITICS_CACHE_DIR="$WORK/direct"
"$CLI" run --apps "$APPS" --variants "$VARIANTS,$VARIANTS2,$VARIANTS3" \
    --insts "$INSTS" --batch direct >/dev/null
"$CLI" diff --rel 0 --abs 0 "$STORE" "$CRITICS_CACHE_DIR/results.jsonl"
echo "served store is bit-exact vs a direct run"

# ---- 6. A daemon killed -9 leaves no worker behind -------------------
# Its workers see EOF on stdin and exit by themselves.
start_daemon "$WORK/port-k" "$WORK/cache-k/results.jsonl" "$WORK/serve-k.log"
"$CLI" submit --port-file "$WORK/port-k" --apps "$APPS" \
    --variants "$VARIANTS" --insts 20000 --batch smoke-k >"$WORK/submit-k.log"
grep -q '"failed":0' "$WORK/submit-k.log"
JOBK="$(sed -n 's/.*"job":"\([^"]*\)".*/\1/p' "$WORK/submit-k.log" | head -1)"
PIDSK="$(status_pids "$JOBK" "$WORK/port-k")"
[ -n "$PIDSK" ] || { echo "the batch's status lists no worker"; exit 1; }
disown "$SERVER_PID" # no "Killed" job notice
kill -9 "$SERVER_PID"
SERVER_PID=""
# Gone, or a zombie: exited, waiting for whoever reaps orphans.
alive() {
    local state
    state="$(ps -o stat= -p "$1" 2>/dev/null || true)"
    [ -n "$state" ] && [ "${state#Z}" = "$state" ]
}
for pid in $PIDSK; do
    for _ in $(seq 1 50); do
        alive "$pid" || break
        sleep 0.1
    done
    if alive "$pid"; then
        echo "worker $pid outlived its killed daemon"; exit 1
    fi
done
echo "serve smoke passed: workers of a killed daemon exited on their own"
