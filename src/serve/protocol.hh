/**
 * @file
 * Wire format of the serve subsystem: newline-delimited JSON objects
 * (JSONL) on every leg — client → server requests and server → client
 * replies/events over TCP, server → worker batch lines over each
 * worker's stdin, and worker → supervisor progress events over its
 * stdout pipe.  One line is one message; a message never contains a
 * raw newline (jsonEscape guarantees it), so framing is just "split on
 * \n" and a crashed peer leaves at most one truncated tail line, which
 * readers drop — the same tail discipline as the result store.  No
 * line may be longer than kMaxLineBytes: a reader that meets one
 * stops, and its owner treats the peer as broken.
 *
 * Requests:  {"op":"submit","batch":B,"apps":A,"variants":V,
 *             "insts":N,"refresh":false,"sleep-ms":0}
 *            {"op":"status","job":J}  {"op":"wait","job":J}
 *            {"op":"ping"}  {"op":"stats"}  {"op":"shutdown"}
 *
 * Worker batch (server → worker stdin, one per batch and shard):
 *            {"op":"batch","batch":B,"apps":A,"variants":V,"insts":N,
 *             "hashes":[H,...],"sleep-ms":0,"trace-id":T,"profile":P}
 *
 * Job events (worker stdout AND server wait/status streams):
 *            {"event":"job","hash":H,"app":A,"variant":V,
 *             "ok":true,"from-cache":false,"wall-s":1.5,"error":"",
 *             "result":R}
 * `result` (runner::resultToJson, bit-exact) rides only the worker
 * leg, on each simulated job's event: the server writes it to its
 * store and strips it before clients see the event.
 * Worker end-of-shard marker (ends the batch for that worker):
 *            {"event":"shard-done"}
 *
 * A batch line with a trace-id makes the worker also emit span events
 * ({"event":"span",...}, see obs/span.hh) on the same stdout channel;
 * the server stitches them into its merged Chrome trace.
 */

#ifndef CRITICS_SERVE_PROTOCOL_HH
#define CRITICS_SERVE_PROTOCOL_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/experiment.hh"

namespace critics::serve
{

/** Turn Nagle's algorithm off on a protocol socket, so each line goes
 *  out when it is sent instead of waiting for the peer to ACK the
 *  previous one (a delayed ACK costs up to 40 ms per round trip). */
void setNoDelay(int fd);

/** Send every byte of `bytes` on socket `fd`, retrying partial writes
 *  and EINTR; false on a dead peer (never raises SIGPIPE). */
bool sendAll(int fd, std::string_view bytes);

/** The longest line any serve channel carries (terminator excluded).
 *  The largest real message, a worker batch line for a 416-job grid,
 *  is under 10 KB. */
constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

/**
 * Incremental newline framer.  feed() raw bytes as they arrive from a
 * socket or pipe; nextLine() yields each complete line (without the
 * terminator) in arrival order.  Bytes after the last newline stay
 * buffered until more data arrives — or forever, which is how a
 * truncated tail from a crashed writer is discarded.  A line longer
 * than `maxLine` bytes, with or without its newline yet, sets
 * overflowed(): the buffer is dropped and no further line is yielded,
 * so a peer that never sends a newline costs at most `maxLine` bytes.
 */
class LineReader
{
  public:
    explicit LineReader(std::size_t maxLine = kMaxLineBytes)
        : maxLine_(maxLine)
    {
    }

    void feed(const char *data, std::size_t len);
    std::optional<std::string> nextLine();
    bool overflowed() const { return overflowed_; }

  private:
    std::size_t maxLine_;
    bool overflowed_ = false;
    std::string buffer_;
    std::size_t scanned_ = 0; ///< prefix known to hold no newline
};

/** The payload of an "op":"submit" request: one apps × variants sweep
 *  described in the shared string vocabulary of sim/variants.hh, so
 *  the server and its workers rebuild exactly the grid the client
 *  named. */
struct SubmitRequest
{
    std::string batch = "serve";
    std::string apps = "mobile";
    std::string variants = "all";
    std::uint64_t insts = 400000;
    bool refresh = false;
    /** Per-simulated-job artificial delay — a debug/test knob so smoke
     *  tests can catch a worker mid-batch (e.g. to kill -9 it). */
    std::uint64_t sleepMs = 0;
};

struct Request
{
    enum class Op : std::uint8_t
    {
        Submit,
        Status,
        Wait,
        Ping,
        Stats,
        Shutdown,
    };

    Op op = Op::Ping;
    std::string job;      ///< status/wait target ("serve-<n>")
    SubmitRequest submit; ///< valid when op == Submit
};

/** Parse one request line; nullopt (with *error set) on syntax errors,
 *  unknown ops or missing fields — remote input never kills the
 *  daemon. */
std::optional<Request> parseRequest(const std::string &line,
                                    std::string *error = nullptr);

/** One-line rendering of `request` (no trailing newline). */
std::string renderRequest(const Request &request);

/**
 * One job's terminal state, as streamed live from a worker and
 * re-streamed (after dedup) to every waiting client.  `hash` is the
 * JobSpec content hash — the stable identity events are deduplicated
 * by.
 */
struct JobEvent
{
    std::string hash;
    std::string app;
    std::string variant;
    bool ok = false;
    bool fromCache = false;
    /** Wall-clock seconds the job took where it ran (0 for warm
     *  hits) — feeds the server's serve.jobLatency histogram. */
    double wallSeconds = 0.0;
    std::string error; ///< last failure message when !ok
    /** The simulated result, on the worker leg only. */
    std::optional<sim::RunResult> result;
};

std::string renderJobEvent(const JobEvent &event);
/** nullopt unless `line` is a job event with a hash, well-typed
 *  fields and, if it has one, a complete result.  `fromWorker` (the
 *  worker leg) also demands the result of an ok, simulated job. */
std::optional<JobEvent> parseJobEvent(const std::string &line,
                                      bool fromWorker = false);

/**
 * One batch for a long-lived serve-worker, written to its stdin: run
 * the jobs whose hashes are listed, out of the apps × variants grid at
 * `insts`.  The server names each app, variant and hash of the shard's
 * own jobs once, so the line stays small whatever the request's lists.
 * A worker respawned after a crash gets a line naming only the jobs
 * that have no event yet.
 */
struct WorkerBatch
{
    std::string batch; ///< the worker's Runner batch name (the shard tag)
    std::string apps;
    std::string variants;
    std::uint64_t insts = 0;
    std::vector<std::string> hashes; ///< the jobs this shard owns
    std::uint64_t sleepMs = 0;
    std::string traceId; ///< "" = stream no spans
    std::string profile; ///< "" = no sampling profile
};

std::string renderWorkerBatch(const WorkerBatch &batch);
/** nullopt (with *error set) unless every required field is present,
 *  well typed and in range. */
std::optional<WorkerBatch> parseWorkerBatch(const std::string &line,
                                            std::string *error = nullptr);

/** A worker's last line of a batch: every owned job has been
 *  accounted for. */
std::string renderShardDone();
bool parseShardDone(const std::string &line);

} // namespace critics::serve

#endif // CRITICS_SERVE_PROTOCOL_HH
