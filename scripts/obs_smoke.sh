#!/usr/bin/env bash
# End-to-end smoke test of the observability layer (src/obs/): run a
# grid through the serve daemon with --trace-out and a per-worker
# --profile-dir, poll the live `top` monitor, SIGTERM-drain, then
# validate the artifacts with scripts/check_trace.py — the merged
# Chrome trace must hold job/stage spans stitched from at least two
# worker processes under one trace id, and every worker profile must
# be schema-clean with most samples attributed to named pipeline
# stages.  Finally a profiled cold sweep must show the analyze stage
# holding at most 2x the CPU time of emit — the flat analyze rework
# retired the profiler's first target.
#
# Usage: scripts/obs_smoke.sh   (after cmake --build build)
set -euo pipefail
cd "$(dirname "$0")/.."

CLI="${CRITICS_CLI:-build/examples/critics_cli}"
[ -x "$CLI" ] || { echo "build $CLI first (cmake --build build)"; exit 1; }
case "$CLI" in /*) ;; *) CLI="$PWD/$CLI" ;; esac

PYTHON="${PYTHON:-python3}"
CHECK="scripts/check_trace.py"

APPS="Acrobat,Office,Browser"
VARIANTS="baseline,critic"
INSTS=100000
JOBS=6 # |apps| x |variants|

WORK="$(mktemp -d "${TMPDIR:-/tmp}/critics-obs-smoke.XXXXXX")"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

PORT_FILE="$WORK/port"
STORE="$WORK/cache/results.jsonl"
TRACE="$WORK/serve_trace.json"
PROFILES="$WORK/profiles"

"$CLI" serve --port 0 --port-file "$PORT_FILE" --workers 2 \
    --cache-file "$STORE" --trace-out "$TRACE" \
    --profile-dir "$PROFILES" >"$WORK/serve.log" 2>&1 &
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

# ---- 1. A traced, profiled batch through two workers -----------------
"$CLI" submit --port-file "$PORT_FILE" --apps "$APPS" \
    --variants "$VARIANTS" --insts "$INSTS" \
    --batch obs-smoke >"$WORK/wait.log"
grep -q '"state":"done"' "$WORK/wait.log"
grep -q '"failed":0' "$WORK/wait.log"
[ "$(grep -c '"event":"job"' "$WORK/wait.log")" -eq "$JOBS" ]
echo "batch done ($JOBS/$JOBS jobs ok)"

# ---- 2. The live monitor sees the daemon's state ---------------------
"$CLI" top --port-file "$PORT_FILE" --once >"$WORK/top.log"
grep -q 'job latency' "$WORK/top.log"
grep -q 'simulated' "$WORK/top.log"
echo "top --once rendered a panel"

# ---- 3. Drain; artifacts are written on shutdown ---------------------
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=""
grep -q "drained; 0 warm hit(s), $JOBS simulated, 0 failed" \
    "$WORK/serve.log"
echo "daemon drained cleanly"

# ---- 4. The merged trace is stitched, tagged and re-based ------------
"$PYTHON" "$CHECK" trace "$TRACE" --min-worker-pids 2

# ---- 5. Every worker profile is schema-clean and well-attributed -----
PROFILE_COUNT=0
for prof in "$PROFILES"/*.json; do
    [ -e "$prof" ] || break
    "$PYTHON" "$CHECK" profile "$prof" --min-attributed 0.7
    PROFILE_COUNT=$((PROFILE_COUNT + 1))
done
[ "$PROFILE_COUNT" -ge 2 ] || {
    echo "expected >= 2 worker profiles, found $PROFILE_COUNT"; exit 1
}
"$CLI" prof report "$(ls "$PROFILES"/*.json | head -1)" \
    >"$WORK/prof_report.log"
grep -q 'attributed to pipeline stages' "$WORK/prof_report.log"
echo "$PROFILE_COUNT worker profile(s) validated"

# ---- 6. The batch manifest carries the trace id ----------------------
MANIFEST="$(ls "$WORK"/cache/manifests/obs-smoke.*.json | head -1)"
grep -q '"traceId"' "$MANIFEST"
grep -q '"jobs"' "$MANIFEST"
echo "batch manifest written: $MANIFEST"

# ---- 7. A profiled sweep: analyze no longer 2x-dominant over emit ---
# Pre-overhaul, analyze cost ~6x emit per instruction and this step
# gated on analyze being dominant.  The flat analyze path brought it
# under 2x, so the gate now points the other way, on the CPU-time stage
# shares of a cold sweep's profile.  2M insts per app gives emit and
# analyze 140-320 samples each (check_trace.py refuses to compare fewer
# than 100); two threads keep the peak RSS near 0.5 GB.  The Emit
# stage covers the control walk and the trace's first touch as well as
# emitTrace.
CRITICS_THREADS=2 CRITICS_CACHE_DIR="$WORK/sweep-cache" \
    "$CLI" run --apps all --variants critic --insts 2000000 --no-cache \
    --batch obs-smoke-sweep --profile "$WORK/sweep_prof.json" \
    >"$WORK/sweep.log"
"$PYTHON" "$CHECK" profile "$WORK/sweep_prof.json" --min-attributed 0.9 \
    --max-ratio analyze:emit:2.0
echo "obs smoke passed"
