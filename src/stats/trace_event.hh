/**
 * @file
 * Chrome trace-event (Trace Event Format) writer.  Producers record
 * complete ("X") spans and metadata ("M") track names; the writer
 * serializes them as a `{"traceEvents":[...]}` document loadable by
 * Perfetto / chrome://tracing.
 *
 * Two producers share the format with different clocks:
 *   - the CPU model emits per-instruction stage-residency spans with
 *     `ts` in *cycles* (one simulated cycle == one trace microsecond,
 *     which keeps pipeline diagrams readable at any zoom), and
 *   - `critics_cli run --trace-out` (through its obs span sink) and
 *     the serve daemon (its request spans plus stitched worker spans)
 *     write spans with `ts` in real microseconds.
 * Both clocks start at 0 and each keeps to its own process track: a
 * one-job `run --trace-out` holds both, the pipeline's cycles on pid 0
 * and the runner's microseconds on pid 1.
 *
 * The writer is thread-safe (spans arrive from pool workers) and
 * bounds memory with a max-event cap: once full, further events are
 * counted as dropped instead of stored — a truncated trace loads fine,
 * a 10 GB one does not.
 */

#ifndef CRITICS_STATS_TRACE_EVENT_HH
#define CRITICS_STATS_TRACE_EVENT_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace critics::stats
{

class TraceEventWriter
{
  public:
    /** Default cap bounds a trace to roughly 100 MB of JSON. */
    explicit TraceEventWriter(std::size_t maxEvents = 1'000'000)
        : maxEvents_(maxEvents) {}

    /** Complete ("X") span: [ts, ts+dur) on track (pid, tid). */
    void complete(const std::string &name, const std::string &category,
                  std::uint64_t ts, std::uint64_t dur,
                  std::uint32_t pid = 0, std::uint32_t tid = 0);

    /** Complete span with one numeric argument shown on hover. */
    void complete(const std::string &name, const std::string &category,
                  std::uint64_t ts, std::uint64_t dur,
                  std::uint32_t pid, std::uint32_t tid,
                  const std::string &argName, double argValue);

    /** Complete span with one string argument shown on hover (e.g.
     *  the traceId stitched spans belong to). */
    void complete(const std::string &name, const std::string &category,
                  std::uint64_t ts, std::uint64_t dur,
                  std::uint32_t pid, std::uint32_t tid,
                  const std::string &argName,
                  const std::string &argValue);

    /** Metadata ("M") events naming tracks in the viewer. */
    void setProcessName(std::uint32_t pid, const std::string &name);
    void setThreadName(std::uint32_t pid, std::uint32_t tid,
                       const std::string &name);

    std::size_t size() const;
    std::uint64_t dropped() const;

    /** The whole trace as one {"traceEvents":[...]} document. */
    std::string toJson() const;

    /** Serialize to `path`; false (with a warning) on I/O failure. */
    bool writeTo(const std::string &path) const;

  private:
    struct Event
    {
        char phase = 'X';
        std::string name;
        std::string category;
        std::uint64_t ts = 0;
        std::uint64_t dur = 0;
        std::uint32_t pid = 0;
        std::uint32_t tid = 0;
        /// optional args: (key, numeric value) or (key, string value)
        std::vector<std::pair<std::string, double>> numArgs;
        std::vector<std::pair<std::string, std::string>> strArgs;
    };

    void push(Event event);

    mutable std::mutex lock_;
    std::size_t maxEvents_;
    std::uint64_t dropped_ = 0;
    std::vector<Event> events_;
};

} // namespace critics::stats

#endif // CRITICS_STATS_TRACE_EVENT_HH
