/**
 * @file
 * Local worker-pool supervisor: a fixed number of worker slots, each
 * one long-lived child process that reads one batch line at a time on
 * its stdin and answers with stdout lines ending in a "shard-done"
 * line (serve/protocol.hh).  A slot is spawned when its first batch
 * arrives and then kept for the supervisor's life; destroying the
 * supervisor closes every stdin, and each worker exits at EOF and is
 * reaped.  Its stdin is one end of a socket pair held only by the
 * supervisor, so a worker also sees EOF when the supervising process
 * dies, however it dies.
 *
 * Per slot, per batch:
 *
 *     idle --line--> busy --"shard-done"--> idle
 *                     |
 *                     +--crash--> respawn, send a fresh line --> busy
 *                     +--crash, nothing left--> idle
 *                     +--crash, restarts used up--> dead (batch failed
 *                                                  for this slot)
 *
 * A crash is the worker exiting or dying before its shard-done line,
 * its stdin refusing the line, or a stdout line longer than
 * kMaxLineBytes (the worker is then killed).  A worker that died while
 * idle is found when the next batch's line is sent to it, so it costs
 * one respawn of that batch.  Each batch gives every slot the same
 * restart budget; a slot that used it up is spawned afresh by the next
 * batch that needs it.
 *
 * The supervisor is generic over argv: the serve server runs
 * `critics_cli serve-worker`, and the unit tests run `/bin/sh -c`
 * scripts that read lines, print marker lines and crash on cue, so the
 * restart state machine is exercised without a simulator in the loop.
 * The supervisor asks for a slot's line each time it sends one, so
 * the serve server can give a respawned worker only the jobs whose
 * events have not arrived: a crash costs no repeated simulation.
 */

#ifndef CRITICS_SERVE_SUPERVISOR_HH
#define CRITICS_SERVE_SUPERVISOR_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <sys/types.h>

#include "serve/protocol.hh"

namespace critics::serve
{

/** Callbacks for one batch, all made on the thread in runBatch(). */
struct SupervisorHooks
{
    /** One complete stdout line from the worker of slot `index`. */
    std::function<void(std::size_t index, const std::string &line)>
        onLine;
    /** Slot `index` (re)started its worker as `pid`. */
    std::function<void(std::size_t index, pid_t pid)> onSpawn;
    /** Slot `index`'s worker crashed mid-batch with waitpid `status`;
     *  `willRestart` tells whether a respawn follows. */
    std::function<void(std::size_t index, int status, bool willRestart)>
        onCrash;
};

struct SupervisorResult
{
    bool allOk = false;          ///< no slot left its jobs unfinished
    std::uint64_t restarts = 0;  ///< respawns across all slots
    std::vector<bool> workerOk;  ///< per slot (true when not engaged)
};

class WorkerSupervisor
{
  public:
    /** `slots` worker slots that each run `argv` ({executable, arg1,
     *  ...}, resolved via execvp), respawned at most `maxRestarts`
     *  times per batch.  Spawns nothing yet. */
    WorkerSupervisor(std::vector<std::string> argv, std::size_t slots,
                     unsigned maxRestarts);
    /** Close every worker's stdin and reap every worker. */
    ~WorkerSupervisor();

    WorkerSupervisor(const WorkerSupervisor &) = delete;
    WorkerSupervisor &operator=(const WorkerSupervisor &) = delete;

    /** The line (no newline) slot k is sent; "" = none. */
    using LineFn = std::function<std::string(std::size_t k)>;

    /**
     * Send `lineFor(k)` to slot k — an empty line leaves the slot out
     * of this batch — and block until every engaged slot has printed
     * its shard-done line or used up its restarts.  After a crash the
     * slot's line is asked for again, after every line the dead
     * worker printed has gone to onLine; an empty answer finishes the
     * slot without a respawn.
     */
    SupervisorResult runBatch(const LineFn &lineFor,
                              const SupervisorHooks &hooks);

    /** The live worker pid of each slot (-1 for none). */
    std::vector<pid_t> pids() const;

  private:
    struct Slot
    {
        pid_t pid = -1;
        int in = -1;  ///< our end of the worker's stdin socket pair
        int out = -1; ///< read end of the worker's stdout pipe
        LineReader lines;
    };

    bool spawn(Slot &slot);
    /** Kill (if still running) and reap slot's worker; its status. */
    int reap(Slot &slot);

    std::vector<std::string> argv_;
    unsigned maxRestarts_;
    std::vector<Slot> slots_;
};

} // namespace critics::serve

#endif // CRITICS_SERVE_SUPERVISOR_HH
