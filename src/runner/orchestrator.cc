#include "runner/orchestrator.hh"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <unordered_map>

#include "runner/sigint.hh"
#include "runner/thread_pool.hh"
#include "stats/registry.hh"
#include "stats/trace_event.hh"
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
};

Runner::Runner(RunnerOptions options)
    : options_(std::move(options)), store_(options_.cachePath)
{
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
    store_.registerStats(reg, "runner.cache");
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
    // Construction (synthesis + trace emission) happens outside the
    // map lock so different apps build concurrently; call_once makes
    // same-app racers share one build.
    std::call_once(slot->once, [&] {
        slot->experiment =
            std::make_shared<sim::AppExperiment>(profile, options);
    });
    return slot->experiment;
}

BatchResult
Runner::run(const std::string &batchName,
            const std::vector<JobSpec> &jobs)
{
    BatchResult batch;
    std::string manifestName = batchName;
    if (options_.shard.enabled()) {
        // This slice owns a deterministic, hash-partitioned subset;
        // sibling processes cover the rest with no coordination.
        batch.jobs = filterShard(jobs, options_.shard);
        manifestName += ".shard-" +
                        std::to_string(options_.shard.index) + "-of-" +
                        std::to_string(options_.shard.count);
        batch.manifest.shardIndex = options_.shard.index;
        batch.manifest.shardCount = options_.shard.count;
        batch.manifest.shardTotalJobs = jobs.size();
    } else {
        batch.jobs = jobs;
    }
    const std::vector<JobSpec> &owned = batch.jobs;
    batch.outcomes.resize(owned.size());
    batch.manifest.batch = manifestName;
    batch.manifest.schema = kResultSchemaVersion;
    if (options_.writeManifest) // a popen; only manifests record it
        batch.manifest.gitDescribe = runner::gitDescribe();
    batch.manifest.startedUnix = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::seconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());

    const auto startWall = Clock::now();

    // Render and hash every job's ~2 KB canonical spec exactly once:
    // these strings were previously rebuilt per cache lookup, per
    // insert and — worst — per emergency-manifest snapshot, which made
    // snapshot publishing quadratic in the batch size.
    std::vector<std::string> specs(owned.size());
    std::vector<std::string> hashes(owned.size());
    for (std::size_t i = 0; i < owned.size(); ++i) {
        specs[i] = owned[i].specString();
        hashes[i] = hashHexOf(hashSpecString(specs[i]));
    }

    // Emergency-manifest plumbing for a double Ctrl-C: after every
    // job completion a fresh manifest snapshot is published for the
    // signal handler to flush.  Superseded snapshots are retired, not
    // freed — the handler may still be reading one — and the retire
    // list must outlive the guard (declared first = destroyed last).
    std::vector<std::unique_ptr<std::string>> retiredSnapshots;
    std::mutex bookLock; // outcomes[] writes + snapshot builds
    SigintGuard sigint;

    auto buildJobRecords = [&](bool emergency) {
        std::vector<JobRecord> records;
        records.reserve(owned.size());
        for (std::size_t i = 0; i < owned.size(); ++i) {
            const JobOutcome &outcome = batch.outcomes[i];
            JobRecord record;
            record.app = owned[i].profile.name;
            record.variant = owned[i].variant.label;
            record.hash = hashes[i];
            record.ok = outcome.ok;
            record.fromCache = outcome.fromCache;
            record.attempts = outcome.attempts;
            record.wallSeconds = outcome.wallSeconds;
            record.simInsts = (outcome.ok && !outcome.fromCache)
                ? owned[i].options.traceInsts : 0;
            record.error = outcome.error;
            if (emergency && !outcome.ok && outcome.attempts == 0 &&
                outcome.error.empty()) {
                record.error = "interrupted before completion";
            }
            records.push_back(std::move(record));
        }
        return records;
    };

    // Caller holds bookLock.
    auto publishSnapshot = [&] {
        if (!options_.writeManifest)
            return;
        RunManifest snapshot = batch.manifest;
        snapshot.interrupted = true;
        snapshot.wallSeconds = secondsSince(startWall);
        snapshot.jobs = buildJobRecords(/*emergency=*/true);
        auto json = std::make_unique<std::string>(
            snapshot.toJson() + "\n");
        SigintGuard::publishEmergency(json.get());
        retiredSnapshots.push_back(std::move(json));
    };

    std::string manifestDir = options_.manifestDir;
    if (manifestDir.empty())
        manifestDir = cacheDir() + "/manifests";
    if (options_.writeManifest) {
        std::error_code ec;
        std::filesystem::create_directories(manifestDir, ec);
        SigintGuard::setEmergencyPath(
            manifestDir + "/" + manifestName + ".interrupted.json");
        std::lock_guard<std::mutex> guard(bookLock);
        publishSnapshot();
    }

    stats::TraceEventWriter *tsink = options_.trace;
    auto usSince = [&](Clock::time_point t) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                t - startWall)
                .count());
    };
    auto phaseSpan = [&](const char *name, Clock::time_point from) {
        if (tsink) {
            const std::uint64_t ts = usSince(from);
            tsink->complete(name, "phase", ts,
                            usSince(Clock::now()) - ts, 0, 0);
        }
    };
    if (tsink)
        tsink->setProcessName(0, "runner: " + batchName);

    // ---- Phase 1: serve cache hits --------------------------------------
    const auto lookupStart = Clock::now();
    std::vector<std::size_t> misses;
    for (std::size_t i = 0; i < owned.size(); ++i) {
        if (options_.useCache && !options_.refresh) {
            if (auto cached = store_.lookup(hashes[i], specs[i])) {
                auto &outcome = batch.outcomes[i];
                outcome.ok = true;
                outcome.fromCache = true;
                outcome.result = *cached;
                continue;
            }
        }
        misses.push_back(i);
    }
    phaseSpan("cache-lookup", lookupStart);

    // ---- Phase 2: dedup identical in-flight jobs -------------------------
    // One representative simulates; duplicates copy its outcome.
    std::vector<std::size_t> unique;
    std::unordered_map<std::string, std::size_t> byHash;
    std::vector<std::vector<std::size_t>> duplicates;
    for (const std::size_t i : misses) {
        const std::string &hash = hashes[i];
        const auto it = byHash.find(hash);
        if (it == byHash.end()) {
            byHash.emplace(hash, unique.size());
            unique.push_back(i);
            duplicates.emplace_back();
        } else {
            duplicates[it->second].push_back(i);
        }
    }

    const bool progressEnabled = options_.progress.value_or(
        ::isatty(::fileno(stderr)) != 0);
    Progress progress(progressEnabled, manifestName, owned.size());
    std::atomic<std::size_t> doneCount{owned.size() - misses.size()};
    std::atomic<std::size_t> simulatedCount{0};
    progress.update(doneCount.load(), 0);

    // ---- Phase 3: run the misses on the pool -----------------------------
    const auto simStart = Clock::now();
    ThreadPool::shared().forEach(unique.size(), [&](std::size_t u) {
        const std::size_t i = unique[u];
        const JobSpec &spec = owned[i];
        JobOutcome outcome;
        const auto jobStart = Clock::now();

        if (SigintGuard::interrupted()) {
            outcome.error = "interrupted before start";
        } else {
            for (outcome.attempts = 1;
                 outcome.attempts <= options_.maxAttempts;
                 ++outcome.attempts) {
                try {
                    auto exp =
                        experiment(spec.profile, spec.options);
                    outcome.result =
                        options_.executor(spec, *exp);
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
        outcome.wallSeconds = secondsSince(jobStart);
        jobWall_.add(outcome.wallSeconds * 1e6);
        if (tsink) {
            tsink->complete(
                spec.profile.name + "/" + spec.variant.label, "job",
                usSince(jobStart),
                static_cast<std::uint64_t>(outcome.wallSeconds * 1e6),
                0, tsink->tidForCurrentThread(), "attempts",
                static_cast<double>(outcome.attempts));
        }

        if (outcome.ok && options_.useCache) {
            store_.insert(hashes[i], specs[i], spec.profile.name,
                          spec.variant.label, outcome.result);
        }

        {
            // bookLock serializes outcome writes with snapshot
            // builds, so the emergency manifest never reads a
            // half-written JobOutcome.
            std::lock_guard<std::mutex> guard(bookLock);
            batch.outcomes[i] = outcome; // slot i is ours alone
            for (const std::size_t dup : duplicates[u])
                batch.outcomes[dup] = outcome;
            publishSnapshot();
        }

        const std::size_t done =
            doneCount.fetch_add(1 + duplicates[u].size()) + 1 +
            duplicates[u].size();
        progress.update(done, simulatedCount.fetch_add(1) + 1);
    });
    progress.finish();
    if (!unique.empty())
        phaseSpan("simulate", simStart);

    // ---- Phase 4: manifest ----------------------------------------------
    const auto manifestStart = Clock::now();
    batch.manifest.wallSeconds = secondsSince(startWall);
    batch.manifest.interrupted = SigintGuard::interrupted();
    batch.manifest.runnerStats.cacheHits = store_.hits();
    batch.manifest.runnerStats.cacheMisses = store_.misses();
    batch.manifest.runnerStats.cacheInserts = store_.inserts();
    batch.manifest.runnerStats.cacheCollisions = store_.collisions();
    batch.manifest.runnerStats.poolTasks =
        ThreadPool::shared().tasksSubmitted();
    batch.manifest.runnerStats.poolThreads =
        ThreadPool::shared().threadCount();
    {
        const verify::Counters &vc = verify::counters();
        auto relaxed = [](const std::atomic<std::uint64_t> &v) {
            return v.load(std::memory_order_relaxed);
        };
        batch.manifest.runnerStats.verifyChecks =
            relaxed(vc.structuralChecks);
        batch.manifest.runnerStats.verifyFullChecks =
            relaxed(vc.fullChecks);
        batch.manifest.runnerStats.verifyErrors = relaxed(vc.errors);
        batch.manifest.runnerStats.verifyAdvisories =
            relaxed(vc.warnings) + relaxed(vc.advisories);
    }
    batch.manifest.jobs = buildJobRecords(/*emergency=*/false);
    if (options_.writeManifest) {
        batch.manifestPath = batch.manifest.write(manifestDir);
        if (!batch.manifest.interrupted) {
            // A completed batch supersedes any emergency manifest a
            // double Ctrl-C left behind on an earlier attempt.
            std::error_code ec;
            std::filesystem::remove(
                manifestDir + "/" + manifestName +
                    ".interrupted.json", ec);
        }
    }
    phaseSpan("manifest", manifestStart);

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
                     manifestName.c_str(),
                     owned.size() - batch.manifest.failedCount(),
                     owned.size(), store_.path().c_str());
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
