/**
 * @file
 * Shared plumbing for the figure benches.  Every bench declares its
 * design-point sweep as a JobSpec grid (apps × variants) and hands it
 * to the shared runner::Runner, which serves unchanged specs from the
 * persistent result cache, dedups identical jobs, shares one
 * AppExperiment per app and isolates per-job failures.  Suite timing
 * comes out of the run manifest in one format for all benches.
 */

#ifndef CRITICS_BENCH_COMMON_HH
#define CRITICS_BENCH_COMMON_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/orchestrator.hh"
#include "runner/thread_pool.hh"
#include "sim/experiment.hh"
#include "support/logging.hh"
#include "support/table.hh"
#include "verify/verify.hh"

namespace critics::bench
{

/** Default per-app sample size for bench runs. */
inline sim::ExperimentOptions
benchOptions()
{
    sim::ExperimentOptions opt;
    opt.traceInsts = 400000;
    return opt;
}

/**
 * Print the standard bench header with Table I.  Every bench calls it
 * first, so it reads CRITICS_VERIFY and CRITICS_THREADS once here: a
 * malformed value exits 2 with its message before any work.
 */
inline void
header(const char *figure, const char *what)
{
    try {
        verify::levelFromEnv();
        runner::threadsFromEnv();
    } catch (const std::runtime_error &) {
        std::exit(2); // the fatal message is already on stderr
    }
    std::printf("==============================================="
                "=============================\n");
    std::printf("CritICs reproduction — %s: %s\n", figure, what);
    std::printf("==============================================="
                "=============================\n");
    std::printf("%s\n", sim::describeBaselineConfig().c_str());
}

/** Shorthand for building labelled variants inline. */
inline sim::Variant
variant(const std::string &label,
        sim::Transform transform = sim::Transform::None)
{
    sim::Variant v;
    v.label = label;
    v.transform = transform;
    return v;
}

/**
 * One bench sweep: the (apps × variants) grid and its outcomes.
 * Jobs are laid out app-major; by convention variants[0] is the
 * baseline when the bench needs speedups.
 */
struct Sweep
{
    std::vector<workload::AppProfile> apps;
    std::vector<sim::Variant> variants;
    sim::ExperimentOptions options;
    runner::BatchResult batch;

    std::size_t
    idx(std::size_t app, std::size_t var) const
    {
        return app * variants.size() + var;
    }

    const sim::RunResult &
    at(std::size_t app, std::size_t var) const
    {
        return batch.result(idx(app, var));
    }

    /** Speedup of variant `var` over variant `baseVar` for one app. */
    double
    speedup(std::size_t app, std::size_t var,
            std::size_t baseVar = 0) const
    {
        return batch.speedup(idx(app, baseVar), idx(app, var));
    }
};

/**
 * Declare and run one sweep through the shared runner.  Prints the
 * manifest summary line (jobs, cache hits, wall time, sim throughput)
 * so every bench reports timing the same way.
 */
inline Sweep
runSweep(const std::string &name,
         std::vector<workload::AppProfile> apps,
         std::vector<sim::Variant> variants,
         const sim::ExperimentOptions &options = benchOptions())
{
    Sweep sweep;
    sweep.apps = std::move(apps);
    sweep.variants = std::move(variants);
    sweep.options = options;
    sweep.batch = runner::sharedRunner().run(
        name, runner::makeGrid(sweep.apps, sweep.variants, options));
    std::printf("%s\n", sweep.batch.manifest.summaryLine().c_str());
    return sweep;
}

/**
 * Per-app wall time of a batch, from the manifest (simulated jobs
 * only; cache hits cost nothing and are reported as such).
 */
inline Table
timingTable(const runner::BatchResult &batch)
{
    std::map<std::string, std::pair<double, std::size_t>> perApp;
    std::vector<std::string> order;
    for (const auto &job : batch.manifest.jobs) {
        if (perApp.find(job.app) == perApp.end())
            order.push_back(job.app);
        auto &[seconds, cached] = perApp[job.app];
        seconds += job.wallSeconds;
        cached += job.fromCache ? 1 : 0;
    }
    Table table({"app", "wall (s)", "cached jobs"});
    for (const auto &app : order) {
        const auto &[seconds, cached] = perApp[app];
        table.addRow({app, fmt(seconds, 2),
                      fmt(static_cast<double>(cached), 0)});
    }
    return table;
}

/**
 * The shared AppExperiments for offline-analysis statistics (chain
 * geometry, fanout fractions) that are not cacheable RunResults.
 * Construction happens in parallel.  The experiments stay pinned on
 * the shared runner, so a sweep run after this call reuses them
 * instead of building (and releasing) its own.
 */
inline std::vector<std::shared_ptr<sim::AppExperiment>>
experiments(const std::vector<workload::AppProfile> &profiles,
            const sim::ExperimentOptions &options = benchOptions())
{
    std::vector<std::shared_ptr<sim::AppExperiment>> exps(
        profiles.size());
    runner::ThreadPool::shared().forEach(profiles.size(), [&](std::size_t i) {
        exps[i] =
            runner::sharedRunner().experiment(profiles[i], options);
    });
    return exps;
}

/** Geometric mean of speedups (the paper's suite averages). */
inline double
geoMean(const std::vector<double> &values)
{
    if (values.empty())
        return 1.0;
    double logSum = 0.0;
    for (const double v : values)
        logSum += std::log(v);
    return std::exp(logSum / static_cast<double>(values.size()));
}

/** Arithmetic mean. */
inline double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

} // namespace critics::bench

#endif // CRITICS_BENCH_COMMON_HH
