/**
 * @file
 * Run manifests: one JSON document per orchestrated batch recording
 * provenance (git describe, schema, config), per-job wall time and
 * simulation throughput, cache activity, and every failed-job record.
 * `scripts/reproduce_all.sh` and `critics_cli report` consume these to
 * gate on failures and to report suite timing in one format.
 */

#ifndef CRITICS_RUNNER_MANIFEST_HH
#define CRITICS_RUNNER_MANIFEST_HH

#include <cstdint>
#include <string>
#include <vector>

namespace critics::runner
{

struct JobRecord
{
    std::string app;
    std::string variant;
    std::string hash;
    bool ok = false;
    bool fromCache = false;
    unsigned attempts = 0;
    double wallSeconds = 0.0;
    std::uint64_t simInsts = 0; ///< 0 for cache hits (nothing simulated)
    std::string error;          ///< empty when ok

    double
    instsPerSec() const
    {
        return wallSeconds > 0.0
            ? static_cast<double>(simInsts) / wallSeconds : 0.0;
    }

    /** The record as it appears in a manifest's jobs array. */
    std::string toJson() const;
};

/** Runner-infrastructure counters snapshotted at batch end
 *  (process-cumulative: result-cache traffic, pool activity, and pass
 *  verification work — observability only, never part of a result). */
struct RunnerCounters
{
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheInserts = 0;
    std::uint64_t cacheCollisions = 0;
    std::uint64_t poolTasks = 0;
    std::uint64_t poolThreads = 0;
    std::uint64_t verifyChecks = 0;     ///< structural post-condition walks
    std::uint64_t verifyErrors = 0;
    std::uint64_t verifyAdvisories = 0; ///< warnings + advisory lints
};

struct RunManifest
{
    std::string batch;
    std::string gitDescribe;
    int schema = 0;
    std::uint64_t startedUnix = 0;
    double wallSeconds = 0.0;
    bool interrupted = false;
    /** Distributed-trace id for batches that ran through serve
     *  ("" for direct runs): the key tying this manifest to the spans
     *  in the daemon's merged Chrome trace. */
    std::string traceId;
    RunnerCounters runnerStats;
    std::vector<JobRecord> jobs;

    std::size_t cachedCount() const;
    std::size_t simulatedCount() const;
    std::size_t failedCount() const;
    std::uint64_t totalSimInsts() const;
    /** Aggregate simulated-instructions/sec over the whole batch. */
    double throughput() const;

    std::string toJson() const;

    /** Head of the manifest a double Ctrl-C leaves: interrupted, and
     *  no field that goes stale as jobs finish (wallSeconds, totals,
     *  runnerStats).  It ends with `"jobs":[`; the job records joined
     *  by ',' and kInterruptedTail complete it. */
    std::string interruptedHead() const;
    static constexpr const char *kInterruptedTail = "]}\n";

    /** Write to `<dir>/<batch>.json` (dir defaults to
     *  cacheDir()/manifests) via `.tmp` + rename; returns the path,
     *  "" on failure. */
    std::string write(const std::string &dir = "") const;

    /** Parse a manifest file.  False on read/parse failure, when
     *  `jobs` is missing or not an array, or when a job is not an
     *  object or lacks `app`, `variant`, `hash` or `ok`. */
    static bool read(const std::string &path, RunManifest &out);

    /** One-line human summary (per-batch timing in a shared format). */
    std::string summaryLine() const;
};

/** `git describe --always --dirty`, or "unknown"; computed once per
 *  process. */
std::string gitDescribe();

} // namespace critics::runner

#endif // CRITICS_RUNNER_MANIFEST_HH
