#!/usr/bin/env python3
"""Validate critics observability artifacts in CI.

Two modes:

  check_trace.py trace <chrome-trace.json> [--min-worker-pids N]
                 [--trace-id ID]
      A merged daemon trace (serve --trace-out) must be well-formed
      Chrome Trace Event JSON of complete ("X") spans and metadata
      ("M") events only, hold job/stage spans stitched from at
      least N distinct worker pids, tag every stitched span with one
      shared trace id, and keep the re-based worker timestamps inside
      the server's own batch span window (an unstitched absolute
      CLOCK_MONOTONIC timestamp lands far outside it).

  check_trace.py profile <profile.json> [--min-attributed F]
                 [--min-samples N] [--max-ratio A:B:R]
      A --profile report must carry the critics-profile-v1 schema,
      attribute at least fraction F of its samples to named pipeline
      stages, and (with --max-ratio) hold at most R times as many
      samples in stage A as in stage B, with at least 100 samples in
      each so the ratio is not noise.

Exit 0 when every check passes; 1 with one line per failure otherwise.
Stdlib only.
"""

import argparse
import json
import sys

SPAN_CATEGORIES = {"job", "stage"}
# Fewest samples per stage for --max-ratio to judge; at the 2M-inst
# sweep obs_smoke.sh profiles, emit and analyze each hold 140-320.
MIN_RATIO_SAMPLES = 100
# Slack around the batch window: scheduling between the server stamping
# the batch span and a worker stamping its first span.
WINDOW_SLACK_US = 10_000_000


def fail(msg):
    print(f"check_trace: FAIL: {msg}")
    return 1


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_trace(args):
    errors = 0
    try:
        doc = load_json(args.file)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"{args.file}: unreadable trace: {e}")

    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return fail(f"{args.file}: no traceEvents array")

    spans = []  # (pid, tid, ts, dur, cat, name, trace_id)
    batch_windows = []  # (start, end) of server-side batch spans
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            errors += fail(f"event #{i} is not an object")
            continue
        ph = e.get("ph")
        # The writer emits complete spans and track-name metadata only.
        if ph not in ("X", "M"):
            errors += fail(f"event #{i}: unknown phase {ph!r}")
            continue
        if ph != "X":
            continue
        name = e.get("name", "")
        ts, dur = e.get("ts"), e.get("dur")
        pid, tid = e.get("pid"), e.get("tid")
        for key, value in (("ts", ts), ("dur", dur), ("pid", pid),
                           ("tid", tid)):
            if not isinstance(value, (int, float)) or value < 0:
                errors += fail(
                    f"span {name!r} (#{i}): bad {key}={value!r}")
                break
        else:
            cat = e.get("cat", "")
            trace_id = (e.get("args") or {}).get("trace")
            if name.startswith("batch "):
                batch_windows.append((ts, ts + dur))
            if cat in SPAN_CATEGORIES:
                spans.append((pid, tid, ts, dur, cat, name, trace_id))

    if not spans:
        return errors + fail("no job/stage spans in the trace")

    # One trace id across every stitched span.
    ids = {s[6] for s in spans}
    if None in ids:
        untagged = sum(1 for s in spans if s[6] is None)
        errors += fail(f"{untagged} job/stage span(s) carry no trace id")
        ids.discard(None)
    if len(ids) > 1 and args.trace_id is None:
        errors += fail(f"multiple trace ids in one trace: {sorted(ids)}")
    if args.trace_id is not None and ids != {args.trace_id}:
        errors += fail(
            f"expected trace id {args.trace_id!r}, found {sorted(ids)}")

    # Spans from enough distinct worker processes (pid 0 is the server).
    worker_pids = {s[0] for s in spans if s[0] != 0}
    if len(worker_pids) < args.min_worker_pids:
        errors += fail(
            f"job/stage spans from {len(worker_pids)} worker pid(s), "
            f"need >= {args.min_worker_pids}")

    # Re-based timestamps: every stitched span must fall inside a
    # server batch window (give or take scheduling slack).  A raw
    # CLOCK_MONOTONIC timestamp that skipped re-basing is hours out.
    if batch_windows:
        lo = min(w[0] for w in batch_windows) - WINDOW_SLACK_US
        hi = max(w[1] for w in batch_windows) + WINDOW_SLACK_US
        for pid, tid, ts, dur, cat, name, _ in spans:
            if ts < max(lo, 0) or ts + dur > hi:
                errors += fail(
                    f"span {name!r} (pid {pid}) at ts={ts} dur={dur} "
                    f"lies outside the batch window [{lo}, {hi}] — "
                    "unstitched timestamp?")
    else:
        errors += fail("no server-side 'batch <id>' span to anchor "
                       "the timeline")

    # Per worker track, spans are appended in completion order, so end
    # times must never step backwards.
    by_track = {}
    for pid, tid, ts, dur, _, name, _ in spans:
        if pid == 0:
            continue  # server track interleaves many threads
        last = by_track.get((pid, tid))
        end = ts + dur
        if last is not None and end < last:
            errors += fail(
                f"track pid={pid} tid={tid}: span {name!r} ends at "
                f"{end} before the previous span's end {last} — "
                "non-monotonic stitching")
        by_track[(pid, tid)] = end

    if errors == 0:
        print(f"check_trace: OK: {len(spans)} stitched span(s) from "
              f"{len(worker_pids)} worker pid(s), trace id "
              f"{sorted(ids)[0] if ids else '-'}")
    return errors


def check_profile(args):
    errors = 0
    try:
        doc = load_json(args.file)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"{args.file}: unreadable profile: {e}")

    if doc.get("schema") != "critics-profile-v1":
        return fail(
            f"{args.file}: schema {doc.get('schema')!r}, expected "
            "'critics-profile-v1'")

    samples = doc.get("samples")
    if not isinstance(samples, int) or samples < args.min_samples:
        errors += fail(
            f"{args.file}: {samples!r} sample(s), need >= "
            f"{args.min_samples}")

    stages = doc.get("stages")
    if not isinstance(stages, dict) or not stages:
        return errors + fail(f"{args.file}: no stages object")
    for stage, count in stages.items():
        if not isinstance(count, int) or count < 0:
            errors += fail(
                f"{args.file}: stage {stage!r} has bad count "
                f"{count!r}")
    if isinstance(samples, int) and sum(
            c for c in stages.values() if isinstance(c, int)) != samples:
        errors += fail(f"{args.file}: stage counts do not sum to "
                       f"{samples} samples")

    attributed = doc.get("attributedFraction")
    if not isinstance(attributed, (int, float)):
        errors += fail(f"{args.file}: no attributedFraction")
    elif attributed < args.min_attributed:
        errors += fail(
            f"{args.file}: attributedFraction {attributed:.3f} < "
            f"{args.min_attributed}")

    flat = doc.get("flat")
    if not isinstance(flat, list) or (samples and not flat):
        errors += fail(f"{args.file}: empty flat profile")

    if args.max_ratio:
        parts = args.max_ratio.split(":")
        if len(parts) != 3:
            return errors + fail(
                f"--max-ratio {args.max_ratio!r}: want A:B:R")
        a, b, limit = parts[0], parts[1], float(parts[2])
        ca, cb = stages.get(a, 0), stages.get(b, 0)
        if min(ca, cb) < MIN_RATIO_SAMPLES:
            errors += fail(
                f"{args.file}: stages {a!r} ({ca}) and {b!r} ({cb}) "
                f"need >= {MIN_RATIO_SAMPLES} samples each to compare")
        elif ca > limit * cb:
            errors += fail(
                f"{args.file}: stage {a!r} holds {ca / cb:.2f}x the "
                f"samples of {b!r} ({ca} vs {cb}), limit {limit}x")
        else:
            print(f"check_trace: OK: {a}/{b} = {ca / cb:.2f} "
                  f"({ca} vs {cb} samples, limit {limit}x)")

    if errors == 0:
        print(f"check_trace: OK: {samples} sample(s), "
              f"{attributed:.1%} attributed to named stages")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)

    trace = sub.add_parser("trace")
    trace.add_argument("file")
    trace.add_argument("--min-worker-pids", type=int, default=2)
    trace.add_argument("--trace-id", default=None)

    profile = sub.add_parser("profile")
    profile.add_argument("file")
    profile.add_argument("--min-attributed", type=float, default=0.0)
    profile.add_argument("--min-samples", type=int, default=1)
    profile.add_argument("--max-ratio", default=None,
                         metavar="STAGE_A:STAGE_B:RATIO")

    args = parser.parse_args()
    if args.mode == "trace":
        sys.exit(1 if check_trace(args) else 0)
    sys.exit(1 if check_profile(args) else 0)


if __name__ == "__main__":
    main()
