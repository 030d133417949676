/**
 * @file
 * Wire format for cross-process span propagation: one JSONL line per
 * finished span, emitted by serve workers on the same stdout channel
 * as their job events and stitched by the server into the daemon's
 * merged Chrome trace.
 *
 *   {"event":"span","trace":T,"name":N,"cat":C,"ts":S,"dur":D,"tid":I}
 *
 * `trace` is the batch's traceId (minted at submit, carried to the
 * worker in its batch line); the span itself is an obs::SpanRecord, and
 * the trace id travels alongside it.  `ts` is *absolute*
 * CLOCK_MONOTONIC µs — the stitching side subtracts its own epoch, so
 * span lines are meaningful only to a reader on the same host within
 * the same boot, which is exactly the supervisor that started the
 * worker.
 */

#ifndef CRITICS_OBS_SPAN_HH
#define CRITICS_OBS_SPAN_HH

#include <optional>
#include <string>

#include "obs/obs.hh"

namespace critics::obs
{

/** One-line rendering of `span` tagged with `traceId` (no trailing
 *  newline). */
std::string renderSpanEvent(const SpanRecord &span,
                            const std::string &traceId);

/** Parse one line; nullopt if it is not a well-formed span event
 *  (non-span lines simply belong to another protocol).  The line's
 *  trace id ("" when absent) goes to *traceId when given. */
std::optional<SpanRecord> parseSpanEvent(const std::string &line,
                                         std::string *traceId = nullptr);

} // namespace critics::obs

#endif // CRITICS_OBS_SPAN_HH
