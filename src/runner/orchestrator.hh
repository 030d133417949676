/**
 * @file
 * The experiment orchestrator.  A Runner takes a batch of JobSpecs
 * and returns one RunResult per spec, scheduling the work so the whole
 * batch costs as little as possible:
 *
 *   - cached specs (same content hash + schema) are served from the
 *     persistent JSONL store without touching the simulator;
 *   - identical in-flight jobs are deduplicated (one simulation, many
 *     outcomes);
 *   - jobs for the same app share one AppExperiment — the synthesized
 *     program, trace and mined profile are built once per app, not
 *     once per design point — which the batch releases after the
 *     app's last job, so a sweep holds only the apps in flight;
 *   - misses run on the shared thread pool with per-job exception
 *     capture and bounded retry, so one bad design point yields a
 *     failed-job record instead of aborting the batch;
 *   - completed results are flushed line-atomically as they finish
 *     (SIGINT loses at most the in-flight jobs), and each batch emits
 *     a manifest with provenance, per-job wall time and throughput.
 *
 * With an obs span sink installed, run() records its three phases
 * (category "phase": cache-lookup, simulate, manifest) and one span
 * per executed job (category "job", named app/variant, covering every
 * attempt) through obs::StageScope; the pipeline's stage spans nest
 * inside the job span on the same thread.
 */

#ifndef CRITICS_RUNNER_ORCHESTRATOR_HH
#define CRITICS_RUNNER_ORCHESTRATOR_HH

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "runner/job.hh"
#include "runner/manifest.hh"
#include "runner/result_store.hh"
#include "support/histogram.hh"

namespace critics::stats
{
class StatRegistry;
}

namespace critics::runner
{

struct RunnerOptions
{
    /** Cache file; "" = cacheDir()/results.jsonl. */
    std::string cachePath;
    /** Read and write the persistent cache; false opens no store. */
    bool useCache = true;
    /** Ignore cached records (still re-writes fresh ones). */
    bool refresh = false;
    /** Total tries per job (1 = no retry). */
    unsigned maxAttempts = 2;
    /** Live done/total+ETA line on stderr; default: only on a TTY. */
    std::optional<bool> progress;
    /** Emit a manifest per batch. */
    bool writeManifest = true;
    /** Manifest directory; "" = cacheDir()/manifests. */
    std::string manifestDir;
    /**
     * Job body, for tests and future job kinds.  Defaults to
     * `experiment.run(spec.variant)`.
     */
    std::function<sim::RunResult(const JobSpec &,
                                 sim::AppExperiment &)>
        executor;
};

/** What happened to one JobSpec of a batch. */
struct JobOutcome
{
    bool ok = false;
    bool fromCache = false;
    unsigned attempts = 0;
    double wallSeconds = 0.0;
    sim::RunResult result; ///< valid only when ok
    std::string error;     ///< last failure message when !ok
};

struct BatchResult
{
    std::vector<JobSpec> jobs;
    std::vector<JobOutcome> outcomes;
    RunManifest manifest;
    std::string manifestPath; ///< "" when not written

    bool allOk() const;

    /** Result for job i; fatal on a failed job (benches treat a
     *  missing design point as unrecoverable for that figure). */
    const sim::RunResult &result(std::size_t i) const;

    /** baselineCycles / variantCycles between two jobs of the batch. */
    double speedup(std::size_t baseIdx, std::size_t variantIdx) const;
};

class Runner
{
  public:
    explicit Runner(RunnerOptions options = {});
    ~Runner();

    Runner(const Runner &) = delete;
    Runner &operator=(const Runner &) = delete;

    /** Run a batch; `batchName` names the manifest.  An app's
     *  experiment is released after its last job unless pinned. */
    BatchResult run(const std::string &batchName,
                    const std::vector<JobSpec> &jobs);

    /**
     * The shared AppExperiment for this profile+options (created on
     * first use), pinned for the Runner's life: batches reuse it and
     * never release it.  Benches use this for offline-analysis
     * statistics (chain geometry, fanout fractions) that are not
     * RunResults, taken before run() so the batch reuses the build.
     */
    std::shared_ptr<sim::AppExperiment>
    experiment(const workload::AppProfile &profile,
               const sim::ExperimentOptions &options);

    /** Pin `built`, an experiment made elsewhere for `spec`'s app and
     *  options (JobSpec::appKey()), as if experiment() had built it:
     *  a long-lived serve worker carries one experiment from one
     *  batch's Runner to the next this way. */
    void pin(const JobSpec &spec,
             std::shared_ptr<sim::AppExperiment> built);

    /** The result store; only when options().useCache. */
    ResultStore &store() { return *store_; }
    const RunnerOptions &options() const { return options_; }

    /** Register the runner's infrastructure counters: the result
     *  cache (if any) under "runner.cache", the pool under
     *  "runner.pool", and the per-job wall-time latency histogram as
     *  "runner.jobWall".  The Runner must outlive the registry. */
    void registerStats(stats::StatRegistry &reg) const;

  private:
    RunnerOptions options_;
    std::optional<ResultStore> store_; ///< set when options_.useCache
    /** Wall time of every executed (non-cached) job, in µs. */
    LatencyHistogram jobWall_;

    struct ExpSlot;
    std::mutex expLock_;
    /** Pinned experiments, by JobSpec::appKey(). */
    std::map<std::string, std::shared_ptr<ExpSlot>> experiments_;
};

/**
 * The process-wide Runner with default options — what the figure
 * benches and the CLI share so every batch in one invocation hits one
 * cache and one experiment pool.
 */
Runner &sharedRunner();

} // namespace critics::runner

#endif // CRITICS_RUNNER_ORCHESTRATOR_HH
