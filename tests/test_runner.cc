/**
 * @file
 * The experiment orchestrator: job-hash stability, persistent-cache
 * hit/miss/invalidation, JSONL round-tripping, failed-job isolation,
 * bounded retry, in-flight dedup, cold/warm bit-identity, experiment
 * lifetime (batch-scoped vs pinned), and the strict manifest reader.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "obs/obs.hh"
#include "runner/manifest.hh"
#include "runner/orchestrator.hh"
#include "runner/result_store.hh"
#include "runner/thread_pool.hh"
#include "stats/registry.hh"
#include "support/json.hh"
#include "support/logging.hh"

using namespace critics;
using namespace critics::runner;

namespace
{

/** Unique-per-test temp file path, removed on destruction. */
class TempPath
{
  public:
    explicit TempPath(const std::string &stem)
    {
        static std::atomic<int> counter{0};
        path_ = (std::filesystem::temp_directory_path() /
                 (stem + "-" + std::to_string(::getpid()) + "-" +
                  std::to_string(counter.fetch_add(1))))
                    .string();
    }

    ~TempPath()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

JobSpec
tinySpec(const std::string &app = "Acrobat",
         sim::Transform transform = sim::Transform::None)
{
    JobSpec spec;
    spec.profile = workload::findApp(app);
    spec.options.traceInsts = 20000; // keep test simulations small
    spec.variant.label = "test";
    spec.variant.transform = transform;
    return spec;
}

/** A RunResult with every stored leaf set to a distinct value, through
 *  the codec's leaf list: large and extreme counters, and doubles that
 *  are not representable in decimal, subnormal or negative zero. */
sim::RunResult
sampleResult()
{
    sim::RunResult r;
    auto *base = reinterpret_cast<char *>(&r);
    const auto &leaves = resultLeaves();
    for (std::size_t i = 0; i < leaves.size(); ++i) {
        char *field = base + leaves[i].offset;
        if (leaves[i].counter) {
            const std::uint64_t v = i == 0
                ? ~std::uint64_t{0}
                : 0x0123456789abcdefULL * (i + 1) + i;
            std::memcpy(field, &v, sizeof v);
        } else {
            const double k = static_cast<double>(i);
            const double v = i % 4 == 0 ? 0.1 * k + 0.2 // inexact
                : i % 4 == 1 ? std::numeric_limits<double>::denorm_min() *
                                   (k + 1.0)
                : i % 4 == 2 ? (i == 2 ? -0.0 : -k / 3.0)
                             : 1e300 / (k + 7.0);
            std::memcpy(field, &v, sizeof v);
        }
    }
    return r;
}

/** The object holding the member at dotted `path` of a parsed record,
 *  and the member's index in it; nullptr when there is none. */
std::pair<json::JsonValue *, std::size_t>
memberAt(json::JsonValue &doc, const std::string &path)
{
    json::JsonValue *object = &doc;
    const auto parts = stats::splitDots(path);
    for (std::size_t p = 0; p < parts.size(); ++p) {
        auto &members = object->members;
        const auto it = std::find_if(
            members.begin(), members.end(),
            [&](const auto &member) { return member.first == parts[p]; });
        if (it == members.end())
            return {nullptr, 0};
        if (p + 1 == parts.size())
            return {object, static_cast<std::size_t>(it - members.begin())};
        object = &it->second;
    }
    return {nullptr, 0};
}

} // namespace

// ---------------------------------------------------------------------------
// Job hashing

TEST(JobHash, StableAcrossConstructions)
{
    const JobSpec a = tinySpec();
    const JobSpec b = tinySpec();
    EXPECT_EQ(a.specString(), b.specString());
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_EQ(a.hashHex(), b.hashHex());
    EXPECT_EQ(a.hashHex().size(), 16u);
}

TEST(JobHash, SensitiveToEveryKnobLayer)
{
    const JobSpec base = tinySpec();

    JobSpec profile = base;
    profile.profile.seed += 1;
    EXPECT_NE(base.hash(), profile.hash());

    JobSpec options = base;
    options.options.traceInsts += 1;
    EXPECT_NE(base.hash(), options.hash());

    JobSpec crit = base;
    crit.options.crit.fanoutThreshold += 1;
    EXPECT_NE(base.hash(), crit.hash());

    JobSpec variant = base;
    variant.variant.transform = sim::Transform::CritIc;
    EXPECT_NE(base.hash(), variant.hash());

    JobSpec knob = base;
    knob.variant.perfectBranch = true;
    EXPECT_NE(base.hash(), knob.hash());
}

TEST(JobHash, LabelIsPresentationOnly)
{
    const JobSpec a = tinySpec();
    JobSpec b = a;
    b.variant.label = "renamed";
    EXPECT_EQ(a.hash(), b.hash());
}

TEST(JobHash, AppKeyIgnoresVariant)
{
    const JobSpec a = tinySpec();
    JobSpec b = a;
    b.variant.transform = sim::Transform::Hoist;
    EXPECT_EQ(a.appKey(), b.appKey());
    JobSpec c = a;
    c.options.warmupFraction = 0.5;
    EXPECT_NE(a.appKey(), c.appKey());
}

// ---------------------------------------------------------------------------
// Result serialization + store

TEST(ResultStore, JsonRoundTripIsBitExact)
{
    const sim::RunResult original = sampleResult();
    const std::string json = resultToJson(original);
    const auto doc = json::parseJson(json);
    ASSERT_TRUE(doc.has_value());
    const auto restored = resultFromJson(*doc);
    ASSERT_TRUE(restored.has_value());
    EXPECT_EQ(std::memcmp(&*restored, &original, sizeof original), 0);
    EXPECT_EQ(resultToJson(*restored), json);
}

TEST(ResultStore, CodecCoversEveryRunResultField)
{
    // Every RunResult field is an 8-byte leaf the registry names once:
    // a field no component registers leaves the sizes unequal.
    const auto &leaves = resultLeaves();
    EXPECT_EQ(leaves.size() * 8, sizeof(sim::RunResult));
    std::set<std::size_t> offsets;
    for (const auto &leaf : leaves) {
        EXPECT_EQ(leaf.offset % 8, 0u) << leaf.path;
        offsets.insert(leaf.offset);
    }
    EXPECT_EQ(offsets.size(), leaves.size());
}

TEST(ResultStore, RecordMissingOrMistypingALeafIsRejected)
{
    const auto doc = json::parseJson(resultToJson(sampleResult()));
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(resultFromJson(*doc).has_value());
    for (const auto &leaf : resultLeaves()) {
        json::JsonValue dropped = *doc;
        const auto [object, at] = memberAt(dropped, leaf.path);
        ASSERT_NE(object, nullptr) << leaf.path;
        object->members.erase(object->members.begin() +
                              static_cast<std::ptrdiff_t>(at));
        EXPECT_FALSE(resultFromJson(dropped).has_value())
            << "dropped " << leaf.path;

        // A counter as a hex-float string, a double as a bare number.
        json::JsonValue mistyped = *doc;
        const auto [parent, index] = memberAt(mistyped, leaf.path);
        json::JsonValue &value = parent->members[index].second;
        value.kind = leaf.counter ? json::JsonValue::Kind::String
                                  : json::JsonValue::Kind::Number;
        value.text = leaf.counter ? json::hexFloat(1.0) : "1";
        EXPECT_FALSE(resultFromJson(mistyped).has_value())
            << "mistyped " << leaf.path;
    }
    // A member no leaf names is rejected too.
    json::JsonValue extra = *doc;
    json::JsonValue one;
    one.kind = json::JsonValue::Kind::Number;
    one.text = "1";
    extra.members.front().second.members.emplace_back("bogus", one);
    EXPECT_FALSE(resultFromJson(extra).has_value());
}

TEST(ResultStore, HitMissAndInvalidation)
{
    TempPath file("critics-store");
    const JobSpec spec = tinySpec();
    const sim::RunResult result = sampleResult();
    {
        ResultStore store(file.str());
        EXPECT_FALSE(store.lookup(spec).has_value());
        store.insert(spec, result);
        EXPECT_TRUE(store.lookup(spec).has_value());
    }
    // Reload from disk: still a hit for the same spec…
    ResultStore reloaded(file.str());
    EXPECT_EQ(reloaded.size(), 1u);
    const auto hit = reloaded.lookup(spec);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(resultToJson(*hit), resultToJson(result));
    // …and a miss once any spec knob changes.
    JobSpec changed = spec;
    changed.options.crit.window += 1;
    EXPECT_FALSE(reloaded.lookup(changed).has_value());
    JobSpec variantChanged = spec;
    variantChanged.variant.maxChainLen += 1;
    EXPECT_FALSE(reloaded.lookup(variantChanged).has_value());
}

TEST(ResultStore, SkipsTruncatedTailLine)
{
    TempPath file("critics-store-trunc");
    const JobSpec spec = tinySpec();
    {
        ResultStore store(file.str());
        store.insert(spec, sampleResult());
    }
    // Simulate an interrupt mid-append: a second, truncated record.
    {
        std::ofstream out(file.str(), std::ios::app);
        out << "{\"schema\":1,\"hash\":\"dead";
    }
    setQuiet(true);
    ResultStore store(file.str());
    EXPECT_EQ(store.size(), 1u);
    EXPECT_TRUE(store.lookup(spec).has_value());
}

// ---------------------------------------------------------------------------
// Orchestrator

namespace
{

RunnerOptions
testOptions(const std::string &cachePath)
{
    RunnerOptions options;
    options.cachePath = cachePath;
    options.writeManifest = false;
    options.progress = false;
    return options;
}

} // namespace

TEST(Runner, ColdThenWarmIsBitIdenticalAndSimulationFree)
{
    TempPath file("critics-runner-warm");
    const std::vector<JobSpec> jobs{
        tinySpec("Acrobat"),
        tinySpec("Acrobat", sim::Transform::CritIc)};

    std::string coldJson0, coldJson1;
    {
        Runner runner(testOptions(file.str()));
        const auto cold = runner.run("cold", jobs);
        ASSERT_TRUE(cold.allOk());
        EXPECT_FALSE(cold.outcomes[0].fromCache);
        coldJson0 = resultToJson(cold.result(0));
        coldJson1 = resultToJson(cold.result(1));
    }
    // Fresh Runner, same cache file: everything served from disk.
    std::atomic<int> executed{0};
    RunnerOptions options = testOptions(file.str());
    options.executor = [&](const JobSpec &spec,
                           sim::AppExperiment &experiment) {
        ++executed;
        return experiment.run(spec.variant);
    };
    Runner runner(options);
    const auto warm = runner.run("warm", jobs);
    ASSERT_TRUE(warm.allOk());
    EXPECT_EQ(executed.load(), 0);
    EXPECT_TRUE(warm.outcomes[0].fromCache);
    EXPECT_TRUE(warm.outcomes[1].fromCache);
    EXPECT_EQ(resultToJson(warm.result(0)), coldJson0);
    EXPECT_EQ(resultToJson(warm.result(1)), coldJson1);
}

TEST(Runner, NoCacheRunnerOpensNoStore)
{
    // A store full of records costs a no-cache Runner nothing: it
    // parses none of them, answers nothing from them and adds none.
    TempPath file("critics-runner-nocache");
    const std::vector<JobSpec> jobs{tinySpec("Acrobat")};
    {
        Runner warm(testOptions(file.str()));
        ASSERT_TRUE(warm.run("fill", jobs).allOk());
    }
    const auto fileSize = std::filesystem::file_size(file.str());

    std::atomic<int> executed{0};
    RunnerOptions options = testOptions(file.str());
    options.useCache = false;
    options.executor = [&](const JobSpec &spec,
                           sim::AppExperiment &experiment) {
        ++executed;
        return experiment.run(spec.variant);
    };
    Runner runner(options);
    stats::StatRegistry reg;
    runner.registerStats(reg);
    EXPECT_EQ(reg.find("runner.cache.parsedLines"), nullptr);

    const auto batch = runner.run("nocache", jobs);
    ASSERT_TRUE(batch.allOk());
    EXPECT_EQ(executed.load(), 1);
    EXPECT_FALSE(batch.outcomes[0].fromCache);
    EXPECT_EQ(batch.manifest.runnerStats.cacheHits, 0u);
    EXPECT_EQ(batch.manifest.runnerStats.cacheMisses, 0u);
    EXPECT_EQ(batch.manifest.runnerStats.cacheInserts, 0u);
    EXPECT_EQ(std::filesystem::file_size(file.str()), fileSize);
}

TEST(Runner, PhaseAndJobSpansGoThroughTheSpanSink)
{
    // The Runner records its spans through obs::StageScope only: one
    // per batch phase and one per executed job, and the pipeline's
    // stage spans fall inside their job's window on the job's thread.
    TempPath file("critics-runner-spans");
    std::vector<JobSpec> jobs{
        tinySpec("Acrobat"),
        tinySpec("Acrobat", sim::Transform::CritIc)};
    jobs[0].variant.label = "baseline";
    jobs[1].variant.label = "critic";

    std::mutex lock;
    std::vector<obs::SpanRecord> spans;
    obs::setSpanSink([&](const obs::SpanRecord &span) {
        std::lock_guard<std::mutex> guard(lock);
        spans.push_back(span);
    });
    {
        Runner runner(testOptions(file.str()));
        ASSERT_TRUE(runner.run("spans", jobs).allOk());
    }
    obs::setSpanSink(nullptr);

    std::vector<obs::SpanRecord> jobSpans, stageSpans;
    std::vector<std::string> phases;
    for (const auto &span : spans) {
        if (span.category == "job")
            jobSpans.push_back(span);
        else if (span.category == "stage")
            stageSpans.push_back(span);
        else if (span.category == "phase")
            phases.push_back(span.name);
        else
            ADD_FAILURE() << "span category '" << span.category << "'";
    }
    ASSERT_EQ(jobSpans.size(), 2u);
    EXPECT_EQ((std::set<std::string>{jobSpans[0].name, jobSpans[1].name}),
              (std::set<std::string>{"Acrobat/baseline",
                                     "Acrobat/critic"}));
    EXPECT_EQ(phases, (std::vector<std::string>{"cache-lookup",
                                                "simulate", "manifest"}));
    EXPECT_FALSE(stageSpans.empty());
    for (const auto &stage : stageSpans) {
        const bool nested = std::any_of(
            jobSpans.begin(), jobSpans.end(),
            [&stage](const obs::SpanRecord &job) {
                return job.tid == stage.tid &&
                       job.startUs <= stage.startUs &&
                       stage.startUs + stage.durUs <=
                           job.startUs + job.durUs;
            });
        EXPECT_TRUE(nested) << stage.name << " on tid " << stage.tid;
    }

    // Once the sink is removed, a batch that simulates again records
    // nothing.
    spans.clear();
    RunnerOptions again = testOptions(file.str());
    again.refresh = true;
    Runner runner(again);
    ASSERT_TRUE(runner.run("no-sink", jobs).allOk());
    EXPECT_TRUE(spans.empty());
}

TEST(Runner, FailedJobIsIsolatedAndRecorded)
{
    TempPath file("critics-runner-fail");
    RunnerOptions options = testOptions(file.str());
    options.maxAttempts = 2;
    options.executor = [](const JobSpec &spec,
                          sim::AppExperiment &experiment) {
        if (spec.variant.label == "poison")
            throw std::runtime_error("deliberately bad design point");
        return experiment.run(spec.variant);
    };
    Runner runner(options);

    std::vector<JobSpec> jobs{tinySpec(), tinySpec("Office"),
                              tinySpec("Music")};
    jobs[1].variant.label = "poison";
    const auto batch = runner.run("poisoned", jobs);

    // The bad job failed with a record; the rest of the batch is fine.
    EXPECT_FALSE(batch.allOk());
    EXPECT_TRUE(batch.outcomes[0].ok);
    EXPECT_FALSE(batch.outcomes[1].ok);
    EXPECT_TRUE(batch.outcomes[2].ok);
    EXPECT_EQ(batch.outcomes[1].attempts, 2u); // bounded retry
    EXPECT_NE(batch.outcomes[1].error.find("deliberately bad"),
              std::string::npos);
    EXPECT_EQ(batch.manifest.failedCount(), 1u);
    // Failures are not cached: only the two good results persist.
    EXPECT_EQ(runner.store().size(), 2u);
}

TEST(Runner, RetrySucceedsOnSecondAttempt)
{
    TempPath file("critics-runner-retry");
    std::atomic<int> calls{0};
    RunnerOptions options = testOptions(file.str());
    options.maxAttempts = 3;
    options.executor = [&](const JobSpec &spec,
                           sim::AppExperiment &experiment) {
        if (calls.fetch_add(1) == 0)
            throw std::runtime_error("transient");
        return experiment.run(spec.variant);
    };
    Runner runner(options);
    const auto batch = runner.run("flaky", {tinySpec()});
    ASSERT_TRUE(batch.allOk());
    EXPECT_EQ(batch.outcomes[0].attempts, 2u);
}

TEST(Runner, IdenticalInFlightJobsDeduplicate)
{
    TempPath file("critics-runner-dedup");
    std::atomic<int> executed{0};
    RunnerOptions options = testOptions(file.str());
    options.executor = [&](const JobSpec &spec,
                           sim::AppExperiment &experiment) {
        ++executed;
        return experiment.run(spec.variant);
    };
    Runner runner(options);

    JobSpec a = tinySpec();
    JobSpec b = a;
    b.variant.label = "same-knobs-different-name";
    const auto batch = runner.run("dedup", {a, b, a});
    ASSERT_TRUE(batch.allOk());
    EXPECT_EQ(executed.load(), 1);
    EXPECT_EQ(resultToJson(batch.result(0)),
              resultToJson(batch.result(1)));
    EXPECT_EQ(resultToJson(batch.result(0)),
              resultToJson(batch.result(2)));
}

TEST(Runner, SharesOneExperimentPerApp)
{
    TempPath file("critics-runner-share");
    Runner runner(testOptions(file.str()));
    const JobSpec spec = tinySpec();
    const auto first = runner.experiment(spec.profile, spec.options);
    const auto second = runner.experiment(spec.profile, spec.options);
    EXPECT_EQ(first.get(), second.get());
    JobSpec other = tinySpec("Office");
    EXPECT_NE(first.get(),
              runner.experiment(other.profile, other.options).get());
}

TEST(Runner, JobsOfOneAppShareOneExperiment)
{
    TempPath file("critics-runner-one-exp");
    std::mutex lock;
    // Holding each experiment keeps a rebuild from reusing an address.
    std::map<std::string, std::set<std::shared_ptr<sim::AppExperiment>>>
        seen;
    RunnerOptions options = testOptions(file.str());
    options.executor = [&](const JobSpec &spec,
                           sim::AppExperiment &experiment) {
        {
            std::lock_guard<std::mutex> guard(lock);
            seen[spec.profile.name].insert(experiment.shared_from_this());
        }
        return experiment.run(spec.variant);
    };
    Runner runner(options);
    const auto batch = runner.run(
        "one-exp", {tinySpec("Acrobat"),
                    tinySpec("Acrobat", sim::Transform::CritIc),
                    tinySpec("Acrobat", sim::Transform::Hoist),
                    tinySpec("Office"),
                    tinySpec("Office", sim::Transform::CritIc)});
    ASSERT_TRUE(batch.allOk());
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen["Acrobat"].size(), 1u);
    EXPECT_EQ(seen["Office"].size(), 1u);
}

TEST(Runner, PinnedExperimentIsReusedAndSurvivesTheBatch)
{
    TempPath file("critics-runner-pinned");
    std::atomic<int> foreign{0};
    std::shared_ptr<sim::AppExperiment> pinned;
    RunnerOptions options = testOptions(file.str());
    options.executor = [&](const JobSpec &spec,
                           sim::AppExperiment &experiment) {
        if (&experiment != pinned.get())
            ++foreign;
        return experiment.run(spec.variant);
    };
    Runner runner(options);
    const JobSpec spec = tinySpec();
    pinned = runner.experiment(spec.profile, spec.options);
    const std::weak_ptr<sim::AppExperiment> watch = pinned;
    const auto batch = runner.run(
        "pinned", {spec, tinySpec("Acrobat", sim::Transform::CritIc)});
    ASSERT_TRUE(batch.allOk());
    EXPECT_EQ(foreign.load(), 0);
    pinned.reset();
    // The runner still holds it, and hands out the same one.
    EXPECT_FALSE(watch.expired());
    EXPECT_EQ(runner.experiment(spec.profile, spec.options).get(),
              watch.lock().get());
}

TEST(Runner, UnpinnedExperimentIsReleasedByTheEndOfTheBatch)
{
    TempPath file("critics-runner-release");
    std::mutex lock;
    std::vector<std::weak_ptr<sim::AppExperiment>> built;
    RunnerOptions options = testOptions(file.str());
    options.executor = [&](const JobSpec &spec,
                           sim::AppExperiment &experiment) {
        {
            std::lock_guard<std::mutex> guard(lock);
            built.push_back(experiment.weak_from_this());
        }
        return experiment.run(spec.variant);
    };
    Runner runner(options);
    const auto batch = runner.run(
        "release", {tinySpec("Acrobat"),
                    tinySpec("Acrobat", sim::Transform::CritIc),
                    tinySpec("Office")});
    ASSERT_TRUE(batch.allOk());
    ASSERT_EQ(built.size(), 3u);
    for (const auto &experiment : built)
        EXPECT_TRUE(experiment.expired());
}

TEST(Runner, FinishedAppIsReleasedWhileTheBatchRuns)
{
    // Office's job waits for Acrobat's experiment to die.  Acrobat's
    // job is handed out first, so it runs before or beside Office's,
    // and its release must not wait for the batch to end.
    TempPath file("critics-runner-release-early");
    std::mutex lock;
    std::weak_ptr<sim::AppExperiment> acrobat;
    bool acrobatSeen = false;
    bool releasedEarly = false;
    RunnerOptions options = testOptions(file.str());
    options.executor = [&](const JobSpec &spec,
                           sim::AppExperiment &experiment) {
        if (spec.profile.name == "Acrobat") {
            std::lock_guard<std::mutex> guard(lock);
            acrobat = experiment.weak_from_this();
            acrobatSeen = true;
        } else {
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (std::chrono::steady_clock::now() < deadline) {
                {
                    std::lock_guard<std::mutex> guard(lock);
                    if (acrobatSeen && acrobat.expired()) {
                        releasedEarly = true;
                        break;
                    }
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        }
        return experiment.run(spec.variant);
    };
    Runner runner(options);
    const auto batch =
        runner.run("release-early", {tinySpec("Acrobat"), tinySpec("Office")});
    ASSERT_TRUE(batch.allOk());
    EXPECT_TRUE(releasedEarly);
}

TEST(Runner, RetriedJobFindsItsExperiment)
{
    TempPath file("critics-runner-retry-exp");
    std::atomic<int> calls{0};
    std::weak_ptr<sim::AppExperiment> first;
    bool sameOnRetry = false;
    RunnerOptions options = testOptions(file.str());
    options.maxAttempts = 2;
    options.executor = [&](const JobSpec &spec,
                           sim::AppExperiment &experiment) {
        if (calls.fetch_add(1) == 0) {
            first = experiment.weak_from_this();
            throw std::runtime_error("transient");
        }
        // The app's only job has not finished, so its experiment is
        // still the one the first attempt saw.
        sameOnRetry = first.lock().get() == &experiment;
        return experiment.run(spec.variant);
    };
    Runner runner(options);
    const auto batch = runner.run("retry-exp", {tinySpec()});
    ASSERT_TRUE(batch.allOk());
    EXPECT_EQ(batch.outcomes[0].attempts, 2u);
    EXPECT_TRUE(sameOnRetry);
    EXPECT_TRUE(first.expired());
}

TEST(Manifest, WriteReadRoundTrip)
{
    TempPath dir("critics-manifests");
    RunManifest manifest;
    manifest.batch = "unit";
    manifest.schema = kResultSchemaVersion;
    manifest.gitDescribe = "deadbeef";
    manifest.wallSeconds = 1.5;
    JobRecord good;
    good.app = "Acrobat";
    good.variant = "critic";
    good.hash = "0123456789abcdef";
    good.ok = true;
    good.wallSeconds = 0.75;
    good.simInsts = 400000;
    JobRecord bad;
    bad.app = "Office";
    bad.variant = "poison";
    bad.ok = false;
    bad.attempts = 2;
    bad.error = "it \"broke\"\nbadly";
    manifest.jobs = {good, bad};

    const std::string path = manifest.write(dir.str());
    ASSERT_FALSE(path.empty());
    RunManifest restored;
    ASSERT_TRUE(RunManifest::read(path, restored));
    EXPECT_EQ(restored.batch, "unit");
    EXPECT_EQ(restored.gitDescribe, "deadbeef");
    ASSERT_EQ(restored.jobs.size(), 2u);
    EXPECT_TRUE(restored.jobs[0].ok);
    EXPECT_EQ(restored.jobs[0].simInsts, 400000u);
    EXPECT_FALSE(restored.jobs[1].ok);
    EXPECT_EQ(restored.jobs[1].error, bad.error);
    EXPECT_EQ(restored.failedCount(), 1u);
    // Written through a sibling temp file that the rename consumed.
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(Manifest, InterruptedHeadAndRecordsFormAManifest)
{
    TempPath dir("critics-manifest-interrupted");
    std::filesystem::create_directories(dir.str());
    RunManifest manifest;
    manifest.batch = "partial";
    JobRecord done;
    done.app = "Acrobat";
    done.variant = "critic";
    done.hash = "0123456789abcdef";
    done.ok = true;
    JobRecord pending = done;
    pending.ok = false;
    pending.error = "interrupted before completion";
    const std::string path = dir.str() + "/partial.interrupted.json";
    {
        std::ofstream out(path);
        out << manifest.interruptedHead() << done.toJson() << ","
            << pending.toJson() << RunManifest::kInterruptedTail;
    }
    RunManifest restored;
    ASSERT_TRUE(RunManifest::read(path, restored));
    EXPECT_TRUE(restored.interrupted);
    EXPECT_EQ(restored.batch, "partial");
    ASSERT_EQ(restored.jobs.size(), 2u);
    EXPECT_TRUE(restored.jobs[0].ok);
    EXPECT_EQ(restored.jobs[1].error, pending.error);
    // The head holds nothing a later job would have made stale.
    const std::string head = manifest.interruptedHead();
    for (const char *stale : {"wallSeconds", "totals", "runnerStats"})
        EXPECT_EQ(head.find(stale), std::string::npos) << stale;
}

TEST(Manifest, StrictReaderRejectsMalformedJobs)
{
    TempPath dir("critics-manifest-strict");
    std::filesystem::create_directories(dir.str());
    const std::string job =
        R"("app":"Acrobat","variant":"critic","hash":"00ff","ok":true)";
    auto readsAs = [&](const std::string &text) {
        const std::string path = dir.str() + "/m.json";
        std::ofstream(path, std::ios::trunc) << text;
        RunManifest manifest;
        return RunManifest::read(path, manifest);
    };
    // Accepted: runnerStats is optional, as are the job's other
    // fields, and an unknown key is ignored (manifests written by the
    // retired process sharding carry a "shard" object).
    EXPECT_TRUE(readsAs(R"({"batch":"b","jobs":[)" "{" + job + "}]}"));
    EXPECT_TRUE(readsAs(R"({"batch":"b","jobs":[]})"));
    EXPECT_TRUE(readsAs(R"({"batch":"b","shard":{"index":2,"count":3,)"
                        R"("totalJobs":7},"jobs":[)" "{" + job + "}]}"));
    // jobs missing or not an array.
    EXPECT_FALSE(readsAs(R"({"batch":"b"})"));
    EXPECT_FALSE(readsAs(R"({"batch":"b","jobs":{}})"));
    EXPECT_FALSE(readsAs(R"({"batch":"b","jobs":"none"})"));
    // An element that is not an object.
    EXPECT_FALSE(readsAs(R"({"batch":"b","jobs":[)" "{" + job +
                         "},3]}"));
    EXPECT_FALSE(readsAs(R"({"batch":"b","jobs":[null]})"));
    // A job lacking a required field (or holding the wrong type).
    for (const char *drop : {"app", "variant", "hash", "ok"}) {
        std::string partial;
        for (const char *key : {"app", "variant", "hash", "ok"}) {
            if (std::string(key) == drop)
                continue;
            partial += partial.empty() ? "" : ",";
            partial += std::string("\"") + key + "\":" +
                       (std::string(key) == "ok" ? "true" : "\"x\"");
        }
        EXPECT_FALSE(readsAs(R"({"batch":"b","jobs":[{)" + partial +
                             "}]}"))
            << "accepted a job without " << drop;
    }
    EXPECT_FALSE(readsAs(
        R"({"jobs":[{"app":"A","variant":"v","hash":"h","ok":"yes"}]})"));
    EXPECT_FALSE(readsAs(
        R"({"jobs":[{"app":7,"variant":"v","hash":"h","ok":true}]})"));
}

TEST(ThreadPool, ThreadsEnvIsParsedStrictlyAndBounded)
{
    // Only the parser: a pool is never built from these values.
    EXPECT_EQ(parseThreads("1"), std::optional<std::size_t>(1));
    EXPECT_EQ(parseThreads(std::to_string(kMaxThreads)),
              std::optional<std::size_t>(kMaxThreads));
    const std::vector<std::string> bad = {
        "", "abc", "2x", " 2", "0", "-1", "+2",
        std::to_string(kMaxThreads + 1), "99999999999999999999"};
    for (const std::string &text : bad) {
        EXPECT_FALSE(parseThreads(text).has_value()) << "'" << text << "'";
    }
}

TEST(ThreadPool, VisitsEveryIndexOnce)
{
    std::vector<std::atomic<int>> counts(257);
    ThreadPool::shared().forEach(counts.size(),
                                 [&](std::size_t i) { ++counts[i]; });
    for (const auto &c : counts)
        EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, PropagatesException)
{
    const auto body = [](std::size_t i) {
        if (i == 13)
            throw std::runtime_error("boom");
    };
    EXPECT_THROW(ThreadPool::shared().forEach(64, body),
                 std::runtime_error);
}

TEST(ThreadPool, ZeroIterations)
{
    EXPECT_NO_THROW(
        ThreadPool::shared().forEach(0, [](std::size_t) { FAIL(); }));
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    std::atomic<int> total{0};
    ThreadPool::shared().forEach(4, [&](std::size_t) {
        ThreadPool::shared().forEach(8, [&](std::size_t) { ++total; });
    });
    EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, ForEachRunsEveryIndexAcrossThreads)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> counts(100);
    pool.forEach(counts.size(),
                 [&](std::size_t i) { ++counts[i]; });
    for (const auto &count : counts)
        EXPECT_EQ(count.load(), 1);
}
