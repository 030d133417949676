/**
 * @file
 * The simulation-as-a-service daemon behind `critics_cli serve`: a TCP
 * server speaking the JSONL line protocol of serve/protocol.hh.  A
 * submitted batch is answered in two halves — jobs whose content hash
 * is already in the result store are "warm" and answered immediately
 * without simulating anything, and the cold remainder is partitioned
 * over the worker slots by content hash (shardOf) and fanned out,
 * one batch line per shard, to a pool of long-lived
 * serve-worker processes (serve/supervisor.hh, serve/worker.hh) whose
 * progress events stream back to every waiting client.  A simulated
 * job's event brings its result, which the daemon, the store's only
 * writer, appends to the store before the event reaches a client.
 *
 * Lifecycle guarantees:
 *   - a worker slot is spawned by the first batch that needs it and
 *     kept for the daemon's life, so a batch pays no exec and a worker
 *     may reuse the previous batch's experiment;
 *   - a worker crash costs a bounded respawn (the restarted worker is
 *     sent only the jobs whose events had not arrived), and a worker
 *     that exhausts its budget degrades its unfinished jobs to
 *     failed-job events instead of wedging the batch;
 *   - a client disconnect never cancels a job — the batch keeps
 *     running and a later status/wait replays its full event log;
 *   - SIGTERM (requestShutdown) drains the in-flight batch, fails the
 *     queued ones with a clear error, closes every worker's stdin,
 *     reaps every worker and returns from wait();
 *   - one socket bounds what it can cost: a request line longer than
 *     kMaxLineBytes gets an error reply and the connection closes, a
 *     connection past maxClients is refused with a reason, and a
 *     submit's insts is at most runner::kMaxInsts.
 *
 * Threading: one accept loop, one scheduler (batches execute one at a
 * time — simulator jobs already saturate the machine through the
 * worker pool), one detached thread per client connection, at most
 * maxClients of them.  All shared state sits behind one mutex +
 * condvar; the signal path only touches an atomic and a self-pipe.
 * Every fd the daemon opens is close-on-exec, so a worker holds no
 * client socket and no other worker's channel.
 */

#ifndef CRITICS_SERVE_SERVER_HH
#define CRITICS_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <sys/types.h>

#include "runner/job.hh"
#include "runner/manifest.hh"
#include "runner/result_store.hh"
#include "serve/protocol.hh"
#include "support/histogram.hh"

namespace critics::stats
{
class StatRegistry;
class TraceEventWriter;
}

namespace critics::serve
{

class WorkerSupervisor;

/** Client connections served at once; past it, a new connection gets
 *  one error line and is closed. */
constexpr unsigned kMaxClients = 64;

/**
 * The worker slot (1-based) that runs cold job `spec` when a batch is
 * split over `workers` slots: a pure function of the job's content
 * hash, so a job goes to the same slot in every batch, whatever else
 * the batch holds.  Uses the upper hash bits so the choice is
 * independent of the cache key's low-bit distribution.
 */
unsigned shardOf(const runner::JobSpec &spec, unsigned workers);

struct ServerOptions
{
    std::string host = "127.0.0.1";
    /** TCP port; 0 binds an ephemeral port (see port()). */
    unsigned short port = 0;
    /** When non-empty, the bound port is written here after listen()
     *  succeeds — how scripts using --port 0 find the daemon. */
    std::string portFile;
    /** Long-lived worker processes; start() refuses 0. */
    unsigned workers = 2;
    /** Respawns allowed per worker slot and batch. */
    unsigned maxRestarts = 2;
    /** Per-job attempt budget inside each worker. */
    unsigned maxAttempts = 2;
    /** Result store; "" = cacheDir()/results.jsonl. */
    std::string cachePath;
    /** The critics_cli binary workers are started from; start()
     *  refuses "" (the CLI passes /proc/self/exe). */
    std::string workerExe;
    /** Per-request spans (ts/dur in real µs); nullptr = off.  When
     *  set, each batch line carries the batch's trace id and the
     *  workers' span events are stitched into this writer under the
     *  worker's pid/tid. */
    stats::TraceEventWriter *trace = nullptr;
    /** When non-empty, each worker profiles itself (--profile) and
     *  writes `<profileDir>/<batch-id>.worker-<k>.json`. */
    std::string profileDir;
    /** Live client connections at most (kMaxClients; tests lower it). */
    unsigned maxClients = kMaxClients;
};

class Server
{
  public:
    explicit Server(ServerOptions options = {});
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind + listen and start the accept/scheduler threads; false
     *  (with *error set) when the options name no worker or no
     *  worker executable, or when the socket cannot be bound. */
    bool start(std::string *error = nullptr);

    /** The bound port (resolves --port 0 after start()). */
    unsigned short port() const { return boundPort_; }

    /**
     * Begin a graceful drain: stop accepting, finish the in-flight
     * batch, fail queued batches, wake every waiter.  Async-signal-
     * safe (an atomic store + a self-pipe write), so the CLI calls it
     * straight from its SIGTERM/SIGINT handler.
     */
    void requestShutdown();

    /** Block until the drain completes and every thread is joined. */
    void wait();

    /** Register the serve.* counters/formulas; the server must
     *  outlive the registry. */
    void registerStats(stats::StatRegistry &reg) const;

    // Lifetime counters (exposed for tests; see registerStats).
    std::uint64_t warmHits() const { return warmHits_; }
    std::uint64_t simulated() const { return simulated_; }
    std::uint64_t failedJobs() const { return failedJobs_; }
    std::uint64_t workerRestarts() const { return workerRestarts_; }

  private:
    /** One submitted batch and its full event log. */
    struct Batch
    {
        enum class State : std::uint8_t
        {
            Queued,
            Running,
            Done,
            Failed,
        };

        std::string id; ///< "serve-<n>"
        /** Distributed-trace id minted at submit; every span of this
         *  batch — server-side and worker-side — carries it. */
        std::string traceId;
        SubmitRequest request;
        std::vector<runner::JobSpec> coldSpecs;
        State state = State::Queued;
        std::string error; ///< batch-level failure (shutdown, spawn)

        std::uint64_t submitUs = 0;    ///< nowMicros() at submit
        std::uint64_t startedUnix = 0; ///< wall clock at submit

        std::uint64_t total = 0;     ///< grid size
        std::uint64_t warm = 0;      ///< answered from the store
        std::uint64_t simulated = 0; ///< executed by this batch
        std::uint64_t failed = 0;

        /** Rendered event lines in arrival order — the replay log a
         *  late status/wait streams from index 0. */
        std::vector<std::string> events;
        /** Hashes already accounted for, so a job the grid holds
         *  twice counts once. */
        std::unordered_set<std::string> seen;
        /** The pid of each worker slot while the batch ran (-1 for a
         *  slot with no worker); status lists the live ones, and they
         *  stay after the batch ends. */
        std::vector<pid_t> workerPids;
        /** nowMicros() of the last crash per worker slot (0 = never):
         *  the respawn's onSpawn turns it into a restart-delay
         *  sample. */
        std::vector<std::uint64_t> crashedAtUs;
        /** Structured copies of the deduplicated job events, in
         *  arrival order — the rows of the per-batch manifest. */
        std::vector<runner::JobRecord> records;
    };

    static const char *stateName(Batch::State state);

    void acceptLoop();
    void schedulerLoop();
    void handleClient(int fd);
    /** One request on an established connection; false = close it. */
    bool handleRequest(int fd, const std::string &line);

    std::string handleSubmit(const SubmitRequest &submit);
    std::string handleStatus(const std::string &jobId);
    bool streamWait(int fd, const std::string &jobId);

    void executeBatch(const std::shared_ptr<Batch> &batch);
    void runWithWorkers(const std::shared_ptr<Batch> &batch);
    /** Record one (possibly duplicate) job event, taking lock_. */
    void recordEvent(const std::shared_ptr<Batch> &batch,
                     const JobEvent &event);
    /** Same, with lock_ already held; `warmOrigin` marks a submit-time
     *  store answer (counts as a warm hit, not a simulation). */
    void recordEventLocked(Batch &batch, const JobEvent &event,
                           bool warmOrigin);

    std::string statusJson(const Batch &batch) const; ///< caller locks
    std::uint64_t nowMicros() const;
    void traceSpan(const char *op, std::uint64_t startUs);
    /** Stitch one worker span line into the merged trace under the
     *  worker's OS pid (no-op without a trace writer). */
    void stitchSpan(const std::shared_ptr<Batch> &batch,
                    std::size_t slot, const std::string &line);
    /** Per-batch summary manifest in `<storeDir>/manifests`. */
    void writeBatchManifest(const std::shared_ptr<Batch> &batch,
                            double wallSeconds);

    ServerOptions options_;
    runner::ResultStore store_;
    std::chrono::steady_clock::time_point started_;
    /** obs::monotonicMicros() captured together with started_ — the
     *  offset that maps workers' absolute CLOCK_MONOTONIC span
     *  timestamps onto the daemon's 0-based trace timeline. */
    std::uint64_t epochUs_ = 0;

    mutable std::mutex lock_;
    std::condition_variable cv_;
    std::map<std::string, std::shared_ptr<Batch>> batches_;
    std::vector<std::shared_ptr<Batch>> queue_;
    std::uint64_t nextBatchId_ = 1;

    std::atomic<bool> stop_{false};
    int listenFd_ = -1;
    int wakePipe_[2] = {-1, -1}; ///< self-pipe: signal → accept loop
    unsigned short boundPort_ = 0;
    std::thread acceptThread_;
    std::thread schedulerThread_;
    /** The worker pool; only the scheduler thread touches it, and it
     *  reaps every worker as the scheduler drains. */
    std::unique_ptr<WorkerSupervisor> workers_;
    std::atomic<std::uint64_t> activeClients_{0};

    // serve.* stats (all guarded by lock_ except the atomics above).
    std::uint64_t submitted_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t warmHits_ = 0;
    std::uint64_t simulated_ = 0;
    std::uint64_t failedJobs_ = 0;
    std::uint64_t workerCrashes_ = 0;
    std::uint64_t workerRestarts_ = 0;
    std::uint64_t inFlightShards_ = 0;
    std::uint64_t requests_ = 0;
    std::uint64_t badRequests_ = 0;

    // Latency distributions (internally synchronized).
    LatencyHistogram jobLatency_;   ///< per executed job wall time, µs
    LatencyHistogram queueWait_;    ///< submit → scheduler dequeue, µs
    LatencyHistogram restartDelay_; ///< worker crash → respawn, µs
};

} // namespace critics::serve

#endif // CRITICS_SERVE_SERVER_HH
