#include <algorithm>
#include <filesystem>
#include <map>
#include <unistd.h>
#include <sys/wait.h>

#include "cpu/cpu.hh"
#include "runner/result_store.hh"
#include "runner/thread_pool.hh"
#include "sim/variants.hh"
#include "support/rng.hh"
#include "workloads.hh"

namespace critbench
{

using critics::runner::BatchResult;
using critics::runner::JobSpec;
using critics::runner::Runner;
using critics::runner::RunnerOptions;
using critics::sim::RunResult;

std::vector<JobSpec>
sweepGrid(std::uint64_t seed, std::uint64_t insts)
{
    critics::sim::ExperimentOptions options;
    options.traceInsts = insts;
    // The seed orders the apps, and the variants within each app
    // (Fisher-Yates); the set of jobs, and so the work, is the same for
    // every seed.  An app's jobs stay together, so every seed meets the
    // same pattern of shared builds: one thread builds the app's
    // experiment while the other waits for it.
    critics::Rng rng(seed);
    auto shuffle = [&rng](auto &items) {
        for (std::size_t i = items.size(); i > 1; --i)
            std::swap(items[i - 1], items[rng.below(i)]);
    };
    auto apps = critics::workload::allApps();
    shuffle(apps);
    std::vector<JobSpec> grid;
    for (const auto &app : apps) {
        auto jobs = critics::runner::makeGrid(
            {app}, critics::sim::parseVariants("all"), options);
        shuffle(jobs);
        grid.insert(grid.end(), jobs.begin(), jobs.end());
    }
    return grid;
}

ColdSweep
coldSweep(const std::vector<JobSpec> &grid, const std::string &dir)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    RunnerOptions options;
    options.cachePath = dir + "/results.jsonl";
    options.manifestDir = dir + "/manifests";
    options.progress = false;
    ColdSweep sweep;
    sweep.runner = std::make_unique<Runner>(options);
    const auto start = Clock::now();
    sweep.batch = sweep.runner->run("sweep_cold", grid);
    sweep.wallSeconds = secondsSince(start);
    return sweep;
}

std::vector<RunResult>
resultsOf(const BatchResult &batch)
{
    std::vector<RunResult> results;
    results.reserve(batch.outcomes.size());
    for (const auto &outcome : batch.outcomes)
        results.push_back(outcome.ok ? outcome.result : RunResult{});
    return results;
}

std::string
gridDigest(const std::vector<JobSpec> &grid,
           const std::vector<RunResult> &results)
{
    std::vector<std::pair<std::string, std::size_t>> order;
    order.reserve(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
        order.emplace_back(grid[i].hashHex(), i);
    std::sort(order.begin(), order.end());
    // FNV-1a over the bit-exact JSON of each result.
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (const auto &[hash, i] : order) {
        for (const char c :
             critics::runner::resultToJson(results.at(i)) + "\n") {
            digest ^= static_cast<unsigned char>(c);
            digest *= 0x100000001b3ULL;
        }
    }
    return critics::runner::hashHexOf(digest);
}

bool
committedWholeTrace(const RunResult &result, std::size_t traceLength,
                    double warmupFraction)
{
    const auto warmup = static_cast<std::uint64_t>(
        static_cast<double>(traceLength) * warmupFraction);
    // One cycle's retirements: the commit width, plus the CDPs decode
    // retires (2 bytes each, so at most frontendBytes / 2 under 2xFD).
    critics::cpu::CpuConfig widest;
    widest.doubleFrontend();
    const std::uint64_t slack = widest.commitWidth + widest.frontendBytes / 2;
    const std::uint64_t covered = result.cpu.committed + warmup;
    return covered <= traceLength && covered + slack > traceLength;
}

std::size_t
checkColdSweep(ColdSweep &sweep, Report &report)
{
    const auto &jobs = sweep.batch.jobs;
    // One trace per app and transform key, as the experiment's memo
    // shares them; materialized again here, outside the timing.
    using Key = std::pair<std::string, critics::sim::TransformKey>;
    auto keyOf = [](const JobSpec &spec) {
        return Key{spec.appKey(),
                   critics::sim::transformMemoKey(
                       spec.variant, spec.options.profileFraction)};
    };
    std::map<Key, std::size_t> lengths;
    std::vector<const JobSpec *> firsts;
    for (const auto &spec : jobs) {
        if (lengths.emplace(keyOf(spec), 0).second)
            firsts.push_back(&spec);
    }
    std::vector<std::size_t> measured(firsts.size());
    critics::runner::ThreadPool::shared().forEach(
        firsts.size(), [&](std::size_t i) {
            const JobSpec &spec = *firsts[i];
            auto exp = sweep.runner->experiment(spec.profile, spec.options);
            measured[i] =
                spec.variant.transform == critics::sim::Transform::None
                    ? exp->baseTrace().size()
                    : exp->materializeTransform(spec.variant).trace.size();
        });
    for (std::size_t i = 0; i < firsts.size(); ++i)
        lengths[keyOf(*firsts[i])] = measured[i];

    std::size_t bad = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto &outcome = sweep.batch.outcomes[i];
        const auto &spec = jobs[i];
        const std::size_t length = lengths.at(keyOf(spec));
        if (!outcome.ok) {
            report.fail("job " + spec.profile.name + "/" +
                        spec.variant.label + " failed: " + outcome.error);
            bad++;
        } else if (!committedWholeTrace(outcome.result, length,
                                        spec.options.warmupFraction)) {
            report.fail("job " + spec.profile.name + "/" +
                        spec.variant.label + " committed " +
                        std::to_string(outcome.result.cpu.committed) +
                        " of a " + std::to_string(length) +
                        "-instruction trace");
            bad++;
        }
    }
    return bad;
}

std::vector<RunResult>
warmSweep(const std::vector<JobSpec> &grid, const std::string &storePath,
          bool &ok)
{
    RunnerOptions options;
    options.cachePath = storePath;
    options.manifestDir =
        std::filesystem::path(storePath).parent_path().string() +
        "/manifests";
    options.progress = false;
    Runner runner(options);
    const BatchResult batch = runner.run("sweep_warm", grid);
    ok = runner.store().inserts() == 0 &&
         std::all_of(batch.outcomes.begin(), batch.outcomes.end(),
                     [](const auto &o) { return o.ok && o.fromCache; });
    return resultsOf(batch);
}

Report
runSweepCold(const Context &ctx)
{
    Report report;
    const auto grid = sweepGrid(ctx.seed);
    const std::string dir = ctx.workDir + "/sweep_cold";

    // Set-up is a discarded warm-up sweep (the first sweep in a process
    // pays for page faults and allocator growth), made kSetups times.
    std::string digest;
    std::vector<double> setupS;
    for (std::size_t i = 0; i < kSetups; ++i) {
        const auto start = Clock::now();
        ColdSweep warmup = coldSweep(grid, dir);
        setupS.push_back(secondsSince(start));
        if (!warmup.batch.allOk())
            report.fail("warm-up sweep had failed jobs");
        const std::string d = gridDigest(grid, resultsOf(warmup.batch));
        if (!digest.empty() && d != digest)
            report.fail("warm-up sweep digest " + d + " != " + digest);
        digest = d;
    }

    std::vector<double> jobWallMs;
    std::vector<double> sweepMs;
    std::size_t sweeps = 0;
    std::string walls;
    std::unique_ptr<ColdSweep> last;
    const auto loopStart = Clock::now();
    while (sweeps < kMinColdSweeps || secondsSince(loopStart) < ctx.seconds) {
        last.reset(); // free the previous runner before the next sweep
        last = std::make_unique<ColdSweep>(coldSweep(grid, dir));
        sweepMs.push_back(last->wallSeconds * 1e3);
        walls += " " + std::to_string(last->wallSeconds);
        sweeps++;
        for (const auto &outcome : last->batch.outcomes) {
            jobWallMs.push_back(outcome.wallSeconds * 1e3);
            report.operation(outcome.ok);
        }
        const std::string d = gridDigest(grid, resultsOf(last->batch));
        if (d != digest)
            report.fail("sweep " + std::to_string(sweeps) +
                        " digest " + d + " != warm-up digest " + digest);
    }
    const double peakRss = peakRssSelfMb();
    const std::size_t bad = checkColdSweep(*last, report);

    report.note("sweep_cold: " + std::to_string(sweeps) + " timed sweeps of " +
                std::to_string(grid.size()) + " jobs at " +
                std::to_string(kSweepInsts) + " insts; result digest " +
                digest + "; " + std::to_string(bad) +
                " jobs failed the commit check");
    report.note("set-ups (s):" + joinedSeconds(setupS));
    report.note("sweep walls (s):" + walls);
    report.note("jobs_per_s: " +
                describeRates(windowRates(
                    sweepMs, static_cast<double>(grid.size()), 1)));
    report.note("latency samples (one per job): " +
                std::to_string(jobWallMs.size()) + " (p90 needs " +
                std::to_string(samplesNeeded(0.9)) + ")");
    report.metric("setup_s", median(setupS));
    report.metric("peak_rss_mb", peakRss);
    // The median sweep's rate: one slow sweep does not move it.
    report.metric("jobs_per_s",
                  medianRate(sweepMs, static_cast<double>(grid.size()), 1));
    report.metric("latency_p50_ms", median(jobWallMs));
    if (const auto p90 = quantile(jobWallMs, 0.9))
        report.metric("latency_p90_ms", *p90);
    return report;
}

namespace
{

/** Prefill `storePath` with a cold sweep in a child process, so the
 *  measured process holds only what the warm path allocates (its
 *  peak RSS is the warm runner's).  Returns the sweep's digest, or
 *  "" when the child failed. */
std::string
prefillInChild(const std::vector<JobSpec> &grid, const std::string &dir)
{
    int fds[2];
    if (::pipe(fds) != 0)
        return "";
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0)
        return "";
    if (pid == 0) {
        ::close(fds[0]);
        // Single-threaded here: the parent has not started its pool.
        ColdSweep sweep = coldSweep(grid, dir);
        const std::string digest =
            sweep.batch.allOk()
                ? gridDigest(grid, resultsOf(sweep.batch))
                : "";
        const bool sent = ::write(fds[1], digest.data(), digest.size()) ==
                          static_cast<ssize_t>(digest.size());
        ::_exit(sent ? 0 : 1);
    }
    ::close(fds[1]);
    std::string digest;
    char buf[64];
    ssize_t n = 0;
    while ((n = ::read(fds[0], buf, sizeof buf)) > 0)
        digest.append(buf, static_cast<std::size_t>(n));
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    const bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return ok ? digest : "";
}

} // namespace

Report
runSweepWarm(const Context &ctx)
{
    Report report;
    const auto grid = sweepGrid(ctx.seed);
    const std::string dir = ctx.workDir + "/sweep_warm";
    const std::string storePath = dir + "/results.jsonl";

    // Set-up is the prefill, made kSetups times (each one replaces the
    // store), all before this process starts its pool.
    std::string prefill;
    std::vector<double> setupS;
    for (std::size_t i = 0; i < kSetups; ++i) {
        const auto start = Clock::now();
        const std::string digest = prefillInChild(grid, dir);
        setupS.push_back(secondsSince(start));
        if (digest.empty())
            report.fail("prefill sweep failed");
        else if (!prefill.empty() && digest != prefill)
            report.fail("prefill digest " + digest + " != " + prefill);
        prefill = digest;
    }
    auto check = [&](const std::vector<RunResult> &results, bool ok,
                     std::size_t op) {
        const std::string digest = gridDigest(grid, results);
        if (!ok)
            report.fail("warm op " + std::to_string(op) +
                        " simulated or missed a job");
        else if (digest != prefill)
            report.fail("warm op " + std::to_string(op) + " digest " +
                        digest + " != prefill digest " + prefill);
        return ok && digest == prefill;
    };
    {
        // The discarded warm-up operation.
        bool ok = false;
        const auto results = warmSweep(grid, storePath, ok);
        check(results, ok, 0);
    }

    std::vector<double> opMs;
    const auto loopStart = Clock::now();
    while (opMs.size() < samplesNeeded(0.9) ||
           secondsSince(loopStart) < ctx.seconds) {
        bool ok = false;
        const auto opStart = Clock::now();
        const auto results = warmSweep(grid, storePath, ok);
        opMs.push_back(secondsSince(opStart) * 1e3);
        report.operation(check(results, ok, opMs.size()));
    }
    critics::runner::ResultStore store(storePath);
    report.note("sweep_warm: store of " + std::to_string(store.size()) +
                " records (" +
                std::to_string(std::filesystem::file_size(storePath)) +
                " bytes), prefill digest " + prefill);
    report.note("set-ups (s):" + joinedSeconds(setupS));
    report.note("latency samples (one per warm grid sweep): " +
                std::to_string(opMs.size()));
    report.note("jobs_per_s: " +
                describeRates(windowRates(
                    opMs, static_cast<double>(grid.size()), kRateWindow)));
    report.metric("setup_s", median(setupS));
    report.metric("peak_rss_mb", peakRssSelfMb());
    report.metric("jobs_per_s",
                  medianRate(opMs, static_cast<double>(grid.size()),
                             kRateWindow));
    report.metric("latency_p50_ms", median(opMs));
    if (const auto p90 = quantile(opMs, 0.9))
        report.metric("latency_p90_ms", *p90);
    return report;
}

} // namespace critbench
