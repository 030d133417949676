#include "runner/orchestrator.hh"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <unordered_map>

#include "obs/obs.hh"
#include "runner/sigint.hh"
#include "runner/thread_pool.hh"
#include "stats/registry.hh"
#include "support/logging.hh"
#include "verify/verify.hh"

namespace critics::runner
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Progress line (stderr, overwritten in place).

class Progress
{
  public:
    Progress(bool enabled, const std::string &batch, std::size_t total)
        : enabled_(enabled), batch_(batch), total_(total),
          start_(Clock::now())
    {
    }

    void
    update(std::size_t done, std::size_t simulated)
    {
        if (!enabled_ || total_ == 0)
            return;
        std::lock_guard<std::mutex> guard(lock_);
        const double elapsed = secondsSince(start_);
        // ETA from the simulated-job rate; cache hits are ~free.
        double eta = 0.0;
        if (simulated > 0 && done < total_) {
            const double perJob =
                elapsed / static_cast<double>(simulated);
            eta = perJob * static_cast<double>(total_ - done);
        }
        std::fprintf(stderr,
                     "\r[%s] %zu/%zu jobs done, ETA %5.1fs   ",
                     batch_.c_str(), done, total_, eta);
        std::fflush(stderr);
    }

    void
    finish()
    {
        if (!enabled_)
            return;
        std::fprintf(stderr, "\r%*s\r", 60, "");
        std::fflush(stderr);
    }

  private:
    bool enabled_;
    std::string batch_;
    std::size_t total_;
    Clock::time_point start_;
    std::mutex lock_;
};

} // namespace

// ---------------------------------------------------------------------------
// BatchResult

bool
BatchResult::allOk() const
{
    for (const auto &outcome : outcomes) {
        if (!outcome.ok)
            return false;
    }
    return true;
}

const sim::RunResult &
BatchResult::result(std::size_t i) const
{
    critics_assert(i < outcomes.size(), "job index out of range");
    if (!outcomes[i].ok) {
        critics_fatal("job ", i, " (", jobs[i].profile.name, "/",
                      jobs[i].variant.label,
                      ") failed: ", outcomes[i].error);
    }
    return outcomes[i].result;
}

double
BatchResult::speedup(std::size_t baseIdx, std::size_t variantIdx) const
{
    const auto &base = result(baseIdx);
    const auto &variant = result(variantIdx);
    critics_assert(variant.cpu.cycles > 0, "zero-cycle run");
    return static_cast<double>(base.cpu.cycles) /
           static_cast<double>(variant.cpu.cycles);
}

// ---------------------------------------------------------------------------
// Runner

struct Runner::ExpSlot
{
    std::once_flag once;
    std::shared_ptr<sim::AppExperiment> experiment;

    /** The experiment, built on first use.  Construction (synthesis +
     *  trace emission) runs outside every map lock so different apps
     *  build concurrently; call_once makes same-app racers share one
     *  build. */
    std::shared_ptr<sim::AppExperiment>
    get(const workload::AppProfile &profile,
        const sim::ExperimentOptions &options)
    {
        std::call_once(once, [&] {
            experiment =
                std::make_shared<sim::AppExperiment>(profile, options);
        });
        return experiment;
    }
};

Runner::Runner(RunnerOptions options) : options_(std::move(options))
{
    if (options_.useCache)
        store_.emplace(options_.cachePath);
    if (!options_.executor) {
        options_.executor = [](const JobSpec &spec,
                               sim::AppExperiment &experiment) {
            return experiment.run(spec.variant);
        };
    }
}

Runner::~Runner() = default;

void
Runner::registerStats(stats::StatRegistry &reg) const
{
    if (store_)
        store_->registerStats(reg, "runner.cache");
    ThreadPool::shared().registerStats(reg, "runner.pool");
    reg.addLatency("runner.jobWall", jobWall_,
                   "wall time of executed jobs (us)");
}

std::shared_ptr<sim::AppExperiment>
Runner::experiment(const workload::AppProfile &profile,
                   const sim::ExperimentOptions &options)
{
    const std::string key = JobSpec{profile, {}, options}.appKey();
    std::shared_ptr<ExpSlot> slot;
    {
        std::lock_guard<std::mutex> guard(expLock_);
        auto &entry = experiments_[key];
        if (!entry)
            entry = std::make_shared<ExpSlot>();
        slot = entry;
    }
    return slot->get(profile, options);
}

void
Runner::pin(const JobSpec &spec, std::shared_ptr<sim::AppExperiment> built)
{
    auto slot = std::make_shared<ExpSlot>();
    std::call_once(slot->once,
                   [&] { slot->experiment = std::move(built); });
    std::lock_guard<std::mutex> guard(expLock_);
    experiments_[spec.appKey()] = std::move(slot);
}

BatchResult
Runner::run(const std::string &batchName,
            const std::vector<JobSpec> &jobs)
{
    BatchResult batch;
    batch.jobs = jobs;
    batch.outcomes.resize(jobs.size());
    batch.manifest.batch = batchName;
    batch.manifest.schema = kResultSchemaVersion;
    if (options_.writeManifest) // a popen; only manifests record it
        batch.manifest.gitDescribe = runner::gitDescribe();
    batch.manifest.startedUnix = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::seconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());

    const auto startWall = Clock::now();

    // Render and hash every job's ~2 KB canonical spec exactly once:
    // the cache lookup and the insert both need them.
    std::vector<std::string> specs(jobs.size());
    std::vector<std::string> hashes(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        specs[i] = jobs[i].specString();
        hashes[i] = hashHexOf(hashSpecString(specs[i]));
    }

    auto recordOf = [&](std::size_t i, const JobOutcome &outcome) {
        const bool simulated = outcome.ok && !outcome.fromCache;
        return JobRecord{jobs[i].profile.name, jobs[i].variant.label,
                         hashes[i], outcome.ok, outcome.fromCache,
                         outcome.attempts, outcome.wallSeconds,
                         simulated ? jobs[i].options.traceInsts : 0,
                         outcome.error};
    };

    // The manifest a double Ctrl-C flushes: every job starts on a
    // pending record, which the job swaps for its final record when it
    // finishes.  Declared before the guard so it outlives it.
    std::string manifestDir = options_.manifestDir;
    if (manifestDir.empty())
        manifestDir = cacheDir() + "/manifests";
    std::unique_ptr<EmergencyManifest> emergency;
    if (options_.writeManifest) {
        std::error_code ec;
        std::filesystem::create_directories(manifestDir, ec);
        JobOutcome unfinished;
        unfinished.error = "interrupted before completion";
        std::vector<std::string> pending(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i)
            pending[i] = recordOf(i, unfinished).toJson();
        emergency = std::make_unique<EmergencyManifest>(
            manifestDir + "/" + batchName + ".interrupted.json",
            batch.manifest.interruptedHead(), std::move(pending),
            RunManifest::kInterruptedTail);
    }
    SigintGuard sigint;
    SigintGuard::setEmergency(emergency.get());

    // One span per batch phase: emplace starts it, reset ends it.
    std::optional<obs::StageScope> phase;

    // ---- Phase 1: serve cache hits --------------------------------------
    phase.emplace(obs::Stage::None, "cache-lookup", "phase");
    std::vector<std::size_t> misses;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (store_ && !options_.refresh) {
            if (auto cached = store_->lookup(hashes[i], specs[i])) {
                auto &outcome = batch.outcomes[i];
                outcome.ok = true;
                outcome.fromCache = true;
                outcome.result = *cached;
                if (emergency)
                    emergency->publish(i, recordOf(i, outcome).toJson());
                continue;
            }
        }
        misses.push_back(i);
    }
    phase.reset();

    // ---- Phase 2: dedup identical in-flight jobs -------------------------
    // One group per distinct hash: its first job simulates, the rest
    // copy the outcome.
    std::vector<std::vector<std::size_t>> groups;
    std::unordered_map<std::string, std::size_t> byHash;
    for (const std::size_t i : misses) {
        const auto [it, fresh] = byHash.emplace(hashes[i], groups.size());
        if (fresh)
            groups.emplace_back();
        groups[it->second].push_back(i);
    }

    // Each app's groups share one experiment, dropped once the app's
    // last group finishes (retries included) unless it is pinned
    // (Runner::experiment), which run() reuses and never drops.
    struct BatchApp
    {
        std::shared_ptr<ExpSlot> slot;
        std::size_t pending = 0; ///< groups not yet finished
    };
    std::vector<BatchApp> apps;
    std::vector<std::size_t> appOf(groups.size());
    {
        std::unordered_map<std::string, std::size_t> byKey;
        std::lock_guard<std::mutex> guard(expLock_);
        for (std::size_t g = 0; g < groups.size(); ++g) {
            const auto [it, fresh] =
                byKey.emplace(jobs[groups[g][0]].appKey(), apps.size());
            if (fresh) {
                const auto pinned = experiments_.find(it->first);
                apps.push_back({pinned != experiments_.end()
                                    ? pinned->second
                                    : std::make_shared<ExpSlot>()});
            }
            appOf[g] = it->second;
            apps[it->second].pending++;
        }
    }
    std::mutex appsLock; // pending counts and slot drops

    const bool progressEnabled = options_.progress.value_or(
        ::isatty(::fileno(stderr)) != 0);
    Progress progress(progressEnabled, batchName, jobs.size());
    std::atomic<std::size_t> doneCount{jobs.size() - misses.size()};
    std::atomic<std::size_t> simulatedCount{0};
    progress.update(doneCount.load(), 0);

    // ---- Phase 3: run the misses on the pool -----------------------------
    phase.emplace(obs::Stage::None, "simulate", "phase");
    ThreadPool::shared().forEach(groups.size(), [&](std::size_t g) {
        const std::vector<std::size_t> &group = groups[g];
        const JobSpec &spec = jobs[group[0]];
        BatchApp &app = apps[appOf[g]];
        JobOutcome outcome;
        const auto jobStart = Clock::now();

        // One span over every attempt; the experiment build's and the
        // run's stage spans nest inside it on this thread.  Without a
        // sink the name is never built.
        std::optional<obs::StageScope> jobSpan;
        if (obs::spanSinkActive()) {
            jobSpan.emplace(obs::Stage::None,
                            spec.profile.name + "/" + spec.variant.label,
                            "job");
        }
        if (SigintGuard::interrupted()) {
            outcome.error = "interrupted before start";
        } else {
            for (outcome.attempts = 1;
                 outcome.attempts <= options_.maxAttempts;
                 ++outcome.attempts) {
                try {
                    auto exp = app.slot->get(spec.profile, spec.options);
                    outcome.result = options_.executor(spec, *exp);
                    outcome.ok = true;
                    break;
                } catch (const std::exception &e) {
                    outcome.error = e.what();
                } catch (...) {
                    outcome.error = "unknown exception";
                }
                if (SigintGuard::interrupted())
                    break;
            }
            if (outcome.attempts > options_.maxAttempts)
                outcome.attempts = options_.maxAttempts;
        }
        jobSpan.reset();
        outcome.wallSeconds = secondsSince(jobStart);
        jobWall_.add(outcome.wallSeconds * 1e6);

        // The group's outcome slots are this job's alone.  Its final
        // records are rendered before the insert, so an `ok` record is
        // published only after its result is in the store, and only a
        // pointer swap separates the two.
        std::vector<std::string> records;
        for (const std::size_t i : group) {
            batch.outcomes[i] = outcome;
            if (emergency)
                records.push_back(recordOf(i, outcome).toJson());
        }
        if (outcome.ok && store_) {
            store_->insert(hashes[group[0]], specs[group[0]],
                           spec.profile.name, spec.variant.label,
                           outcome.result);
        }
        for (std::size_t k = 0; k < records.size(); ++k)
            emergency->publish(group[k], std::move(records[k]));

        std::shared_ptr<ExpSlot> released; // freed outside the lock
        {
            std::lock_guard<std::mutex> guard(appsLock);
            if (--app.pending == 0)
                released = std::move(app.slot);
        }

        const std::size_t done = doneCount.fetch_add(group.size()) +
                                 group.size();
        progress.update(done, simulatedCount.fetch_add(1) + 1);
    });
    phase.reset();
    progress.finish();

    // ---- Phase 4: manifest ----------------------------------------------
    phase.emplace(obs::Stage::None, "manifest", "phase");
    batch.manifest.wallSeconds = secondsSince(startWall);
    batch.manifest.interrupted = SigintGuard::interrupted();
    {
        stats::StatRegistry reg;
        registerStats(reg);
        verify::registerStats(reg);
        batch.manifest.runnerStats = reg.toJson();
    }
    batch.manifest.jobs.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        batch.manifest.jobs.push_back(recordOf(i, batch.outcomes[i]));
    if (options_.writeManifest) {
        batch.manifestPath = batch.manifest.write(manifestDir);
        if (!batch.manifest.interrupted) {
            // A completed batch supersedes any emergency manifest a
            // double Ctrl-C left behind on an earlier attempt.
            std::error_code ec;
            std::filesystem::remove(
                manifestDir + "/" + batchName +
                    ".interrupted.json", ec);
        }
    }
    phase.reset();

    critics_debug("runner", batch.manifest.summaryLine());

    for (const auto &record : batch.manifest.jobs) {
        if (!record.ok) {
            critics_warn("job failed: ", record.app, "/",
                         record.variant, " after ", record.attempts,
                         " attempt(s): ", record.error);
        }
    }

    if (batch.manifest.interrupted) {
        // Completed results are already flushed; leave a truthful
        // manifest behind and propagate the conventional exit code.
        std::fprintf(stderr,
                     "[%s] interrupted: %zu/%zu jobs done, results "
                     "flushed to %s\n",
                     batchName.c_str(),
                     jobs.size() - batch.manifest.failedCount(),
                     jobs.size(),
                     store_ ? store_->path().c_str() : "no store");
        std::exit(130);
    }
    return batch;
}

Runner &
sharedRunner()
{
    static Runner runner;
    return runner;
}

} // namespace critics::runner
