/**
 * @file
 * Core observability primitives shared by the tracing layer and the
 * sampling profiler: a pipeline-stage taxonomy, a per-thread stage
 * marker, a monotonic cross-process clock and a process-global span
 * sink.
 *
 * The one instrumentation point is StageScope — an RAII guard placed
 * inside AppExperiment (and around the Runner's batch phases and jobs)
 * that does double duty:
 *
 *   - it marks the calling thread's *current pipeline stage* in a
 *     thread-local the SIGPROF profiler handler reads, so every
 *     profile sample is attributed to synth/emit/analyze/transform/
 *     simulate without unwinding a single stack frame; and
 *   - when a span sink is installed, it emits one SpanRecord on
 *     destruction, which the sink turns into a Chrome trace span
 *     (direct runs) or a JSONL span event on stdout (serve workers,
 *     stitched by the server into the daemon's merged trace).
 *
 * Stage marking is always on and costs two thread-local writes; the
 * clock is only read when a sink is installed, so the simulator hot
 * path never pays a syscall for dormant instrumentation.
 *
 * Clock discipline: span timestamps are *absolute* CLOCK_MONOTONIC
 * microseconds.  CLOCK_MONOTONIC is system-wide on one host, so spans
 * recorded in forked workers and spans recorded in the server share a
 * timeline; whoever assembles the merged trace subtracts its own
 * epoch once instead of every process negotiating an offset.
 */

#ifndef CRITICS_OBS_OBS_HH
#define CRITICS_OBS_OBS_HH

#include <cstdint>
#include <functional>
#include <string>

namespace critics::obs
{

/** The pipeline stages profile samples and spans are attributed to.
 *  None means "between stages" (runner bookkeeping, I/O, idle). */
enum class Stage : std::uint8_t
{
    None = 0,
    Synth,     ///< program synthesis from the app profile
    Emit,      ///< control walk + trace emission
    Analyze,   ///< fanout / chains / mining (the offline profiler)
    Transform, ///< compiler passes + transformed-trace re-emission
    Simulate,  ///< cpu::runTrace + energy model
};

inline constexpr std::size_t kStageCount = 6;

const char *stageName(Stage stage);

/** Absolute CLOCK_MONOTONIC now, in microseconds. */
std::uint64_t monotonicMicros();

/** The calling thread's current stage (profiler handler reads the
 *  underlying thread-local directly; see profiler.cc). */
Stage currentStage();

/** Small dense per-process id for the calling thread (1, 2, ... in
 *  first-use order) — the `tid` spans are recorded under. */
std::uint32_t obsThreadId();

/** One finished span, as handed to the span sink. */
struct SpanRecord
{
    std::string name;     ///< e.g. "analyze" or "Acrobat/critic"
    std::string category; ///< "stage", "job" or "phase"
    std::uint64_t startUs = 0; ///< absolute CLOCK_MONOTONIC µs
    std::uint64_t durUs = 0;
    std::uint32_t tid = 0; ///< obsThreadId() of the recording thread
};

using SpanSink = std::function<void(const SpanRecord &)>;

/**
 * Install (or, with nullptr, remove) the process-global span sink.
 * Not thread-safe against concurrent emitters: install before the
 * instrumented work starts and remove after it ends — exactly how the
 * CLI and the serve worker use it.
 */
void setSpanSink(SpanSink sink);

/** True when a sink is installed (cheap; guards the clock reads). */
bool spanSinkActive();

/**
 * RAII stage guard.  Marks the thread's current stage for the
 * duration (restoring the previous stage on exit, so nesting works:
 * analyze inside transform attributes to analyze) and emits one span
 * through the sink when one is installed.  Stage::None skips the
 * stage marking and only emits the span — that is how the Runner
 * records its batch phases and its per-job spans.
 */
class StageScope
{
  public:
    explicit StageScope(Stage stage)
        : StageScope(stage, stageName(stage), "stage")
    {
    }
    StageScope(Stage stage, std::string name, std::string category);
    ~StageScope();

    StageScope(const StageScope &) = delete;
    StageScope &operator=(const StageScope &) = delete;

  private:
    Stage previous_;
    bool marked_;
    bool emit_;
    std::uint64_t startUs_ = 0;
    std::string name_;
    std::string category_;
};

namespace detail
{
/** The raw thread-local behind currentStage().  The SIGPROF handler
 *  reads this directly — a plain thread-local integer load is
 *  async-signal-safe, a function call through the PLT is not
 *  guaranteed to be on first use. */
extern thread_local std::uint8_t tlsStage;
} // namespace detail

} // namespace critics::obs

#endif // CRITICS_OBS_OBS_HH
