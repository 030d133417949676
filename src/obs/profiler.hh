/**
 * @file
 * A built-in SIGPROF sampling profiler (--profile on run, and per
 * batch in serve workers under serve --profile-dir), pointed first at the `analyze` stage ROADMAP names as
 * the next optimization target.
 *
 * Design: setitimer(ITIMER_PROF) delivers SIGPROF on a fixed budget of
 * *CPU time*, so the sample count is proportional to work done, not
 * wall-clock waited.  The handler obeys strict async-signal-safety
 * rules (§DESIGN.md "Observability"):
 *
 *   - no allocation: samples land in an array preallocated at start();
 *   - slot claim is a single atomic fetch_add; once the array is full
 *     further samples just bump a drop counter;
 *   - the only data read is the thread-local stage byte StageScope
 *     maintains (obs::detail::tlsStage) — a plain TLS load;
 *   - backtrace(3) is warmed with one call *before* the handler is
 *     installed, because its first call may lazily dlopen libgcc
 *     (malloc — not signal-safe).  After warming it only walks the
 *     stack.
 *
 * Everything unsafe — dladdr symbolization, demangling, aggregation,
 * JSON rendering — happens after stop(), on the normal path.  One
 * profiler may be active per process at a time (the handler needs a
 * process-global target).
 *
 * The report is JSON ("critics-profile-v1"): total/dropped counts,
 * per-pipeline-stage sample attribution, and a flat per-symbol
 * profile.  `critics_cli prof report` pretty-prints it and
 * scripts/check_trace.py schema-checks it in CI.
 */

#ifndef CRITICS_OBS_PROFILER_HH
#define CRITICS_OBS_PROFILER_HH

#include <cstdint>
#include <string>

namespace critics::obs
{

struct ProfilerOptions
{
    /** SIGPROF period in µs of consumed CPU time.  The default is a
     *  deliberately odd ~197 Hz so sampling cannot phase-lock with
     *  any 10ms-granular periodic work. */
    std::uint64_t intervalUsec = 5063;
    /** Preallocated sample capacity; samples past this are counted as
     *  dropped, never silently lost. */
    std::uint32_t maxSamples = 1u << 16;
};

class SamplingProfiler
{
  public:
    explicit SamplingProfiler(ProfilerOptions options = {});
    ~SamplingProfiler();

    SamplingProfiler(const SamplingProfiler &) = delete;
    SamplingProfiler &operator=(const SamplingProfiler &) = delete;

    /** Install the handler and arm the timer.  Returns false (with a
     *  warning) if another profiler is already active in-process. */
    bool start();

    /** Disarm the timer and restore the previous SIGPROF handler.
     *  Idempotent. */
    void stop();

    bool running() const { return running_; }

    /** Samples recorded so far (readable while running). */
    std::uint32_t sampleCount() const;
    /** Samples lost to a full buffer. */
    std::uint64_t droppedCount() const;

    /** Symbolize + aggregate and return the JSON report.  Call after
     *  stop(). */
    std::string reportJson() const;

    /** reportJson() straight to a file; false on I/O failure. */
    bool writeReport(const std::string &path) const;

    /** Sample storage; public so the file-local SIGPROF handler can
     *  name it (its layout stays private to profiler.cc). */
    struct Impl;

  private:
    ProfilerOptions options_;
    bool running_ = false;
    Impl *impl_; ///< sample storage; reachable from the handler
};

/** Pretty-print a "critics-profile-v1" report (as written by
 *  --profile) to stdout.  Returns false on parse/schema errors.
 *  `topN` caps the flat-profile rows. */
bool printProfileReport(const std::string &json, std::size_t topN = 20);

} // namespace critics::obs

#endif // CRITICS_OBS_PROFILER_HH
