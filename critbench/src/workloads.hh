/**
 * @file
 * The three workloads of the benchmark of record and the traced run.
 *
 *   sweep_cold   the paper's reproduction sweep: all 26 apps x all 16
 *                variants simulated by an in-process Runner on an
 *                empty store (cpu::runTrace does most of the work);
 *   sweep_warm   the same grid answered from a prefilled store by a
 *                fresh Runner per operation (no model layer runs);
 *   serve_mixed  a closed loop of small mobile-app grids through one
 *                `critics_cli serve` daemon, each grid part warm and
 *                part cold (store reads next to store writes, worker
 *                fork/exec and per-batch AppExperiment rebuilds).
 *
 * Each run* function sets up, discards one warm-up operation, measures
 * for Context::seconds and checks every output.
 */

#ifndef CRITBENCH_WORKLOADS_HH
#define CRITBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "metrics.hh"
#include "runner/job.hh"
#include "runner/orchestrator.hh"

namespace critbench
{

/** Everything a workload needs from the command line. */
struct Context
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    unsigned threads = 4;      ///< runner pool of in-process sweeps
    unsigned workers = 2;      ///< serve worker processes
    std::string workDir;       ///< scratch, removed at exit
    std::string cliPath;       ///< critics_cli, the serve daemon
};

/** Instructions per sweep job: small enough that one runner thread
 *  finishes a cold sweep in a few seconds, so a run measures several
 *  sweeps and takes their median. */
constexpr std::uint64_t kSweepInsts = 25000;

/** A sweep_cold run times at least this many sweeps. */
constexpr std::size_t kMinColdSweeps = 3;

/** Set-ups per run; setup_s is their median. */
constexpr std::size_t kSetups = 3;

/** Operations per window of the windowed-median jobs_per_s. */
constexpr std::size_t kRateWindow = 10;

/** The full grid (all apps x all variants) in a seeded job order. */
std::vector<critics::runner::JobSpec>
sweepGrid(std::uint64_t seed, std::uint64_t insts = kSweepInsts);

/** One cold sweep by a fresh Runner on an empty store at `dir`. */
struct ColdSweep
{
    std::unique_ptr<critics::runner::Runner> runner;
    critics::runner::BatchResult batch;
    double wallSeconds = 0.0;
};
ColdSweep coldSweep(const std::vector<critics::runner::JobSpec> &grid,
                    const std::string &dir);

/** Results of a batch in job order (default results for failed jobs). */
std::vector<critics::sim::RunResult>
resultsOf(const critics::runner::BatchResult &batch);

/** Digest of results keyed by spec hash, so it does not depend on the
 *  job order: equal across seeds, and across commits that do not
 *  change simulated results. */
std::string gridDigest(const std::vector<critics::runner::JobSpec> &grid,
                       const std::vector<critics::sim::RunResult> &results);

/** True when `committed` (post-warm-up) plus the warm-up commits
 *  cover a trace of `traceLength` instructions: the warm-up ends at
 *  the first cycle that reaches its quota, so it may overshoot by up
 *  to one cycle's retirements. */
bool committedWholeTrace(const critics::sim::RunResult &result,
                         std::size_t traceLength, double warmupFraction);

/** Check every job of a finished cold sweep: ok, and the whole trace
 *  committed (trace lengths come from the sweep's own experiments).
 *  Returns the number of jobs that failed a check. */
std::size_t checkColdSweep(ColdSweep &sweep, Report &report);

/** A warm operation: a fresh Runner loads `storePath` and answers the
 *  grid.  Returns the results; `ok` is false when any job was not
 *  answered from the store or a job had to be simulated. */
std::vector<critics::sim::RunResult>
warmSweep(const std::vector<critics::runner::JobSpec> &grid,
          const std::string &storePath, bool &ok);

Report runSweepCold(const Context &ctx);
Report runSweepWarm(const Context &ctx);
Report runServeMixed(const Context &ctx);

/** The per-layer breakdown of all three workloads (see traced.cc). */
Report runTraced(const Context &ctx);

/** The serve part of the traced run (see serve_load.cc). */
void traceServe(const Context &ctx, Report &report);

/** Traced replica of a cold sweep, for the tests and runTraced. */
struct TracedSweep
{
    double wallSeconds = 0.0;
    std::vector<critics::sim::RunResult> results; ///< grid order
    std::size_t lengthMismatches = 0; ///< jobs failing the commit check
};
TracedSweep
tracedColdSweep(const std::vector<critics::runner::JobSpec> &grid,
                const std::string &storePath, Report *report);

} // namespace critbench

#endif // CRITBENCH_WORKLOADS_HH
