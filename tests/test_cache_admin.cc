/**
 * @file
 * The cache lifecycle: multi-process append safety (fork N writers,
 * no torn lines), compact/gc semantics including truncated-tail,
 * old-schema and collision/orphan records, the incremental index
 * against a fresh load, the store scanner under seeded line
 * mutations, and the double-SIGINT emergency manifest flush.
 */

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>

#include "runner/cache_admin.hh"
#include "runner/manifest.hh"
#include "runner/orchestrator.hh"
#include "runner/result_store.hh"
#include "runner/sigint.hh"
#include "runner/thread_pool.hh"
#include "stats/registry.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/rng.hh"

using namespace critics;
using namespace critics::runner;

namespace
{

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
        std::filesystem::remove(path_ + ".lock", ec); // store sidecar
    }

    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

JobSpec
tinySpec(std::uint64_t seed = 0,
         sim::Transform transform = sim::Transform::None)
{
    JobSpec spec;
    spec.profile = workload::findApp("Acrobat");
    spec.profile.seed += seed;
    spec.options.traceInsts = 20000;
    spec.variant.label = "test";
    spec.variant.transform = transform;
    return spec;
}

sim::RunResult
sampleResult(double salt = 0.0)
{
    sim::RunResult r;
    r.cpu.cycles = 123456789ULL + static_cast<std::uint64_t>(salt);
    r.cpu.committed = 400000;
    r.cpu.all.fetch = 0.1 + 0.2 + salt;
    r.cpu.all.issueWait = 3.14159265358979;
    r.energy.cpuCore = 0.12345678901234567;
    r.selectionCoverage = 1.0 / 7.0;
    r.dynThumbFraction = 1e-17;
    return r;
}

/** A store line exactly as ResultStore::insert writes it, with the
 *  hash and timestamp overridable to fabricate rot. */
std::string
makeLine(const JobSpec &spec, const sim::RunResult &result,
         std::uint64_t writtenUnix, const std::string &hashOverride = "",
         int schema = kResultSchemaVersion)
{
    json::JsonWriter w;
    w.beginObject()
        .field("schema", schema)
        .field("hash",
               hashOverride.empty() ? spec.hashHex() : hashOverride)
        .field("app", spec.profile.name)
        .field("variant", spec.variant.label)
        .field("writtenUnix", writtenUnix)
        .field("spec", spec.specString());
    return w.str() + ",\"result\":" + resultToJson(result) + "}\n";
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
appendBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << bytes;
}

std::size_t
wellFormedLineCount(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    std::size_t count = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const auto doc = json::parseJson(line);
        if (!doc || !doc->isObject())
            return static_cast<std::size_t>(-1); // torn line
        ++count;
    }
    return count;
}

} // namespace

// ---------------------------------------------------------------------------
// Multi-process append safety

TEST(ResultStoreMultiProcess, ForkedWritersNeverTearLines)
{
    TempPath file("critics-store-mp");
    constexpr int kWriters = 4;
    constexpr int kRecords = 8;

    // A pipe barrier lines all writers up before the first append so
    // the flock actually contends.
    int barrier[2];
    ASSERT_EQ(::pipe(barrier), 0);

    std::vector<pid_t> children;
    for (int w = 0; w < kWriters; ++w) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            ::close(barrier[1]);
            char go;
            while (::read(barrier[0], &go, 1) == 0) {
            }
            ::close(barrier[0]);
            {
                ResultStore store(file.str());
                for (int m = 0; m < kRecords; ++m) {
                    store.insert(
                        tinySpec(static_cast<std::uint64_t>(
                            w * 1000 + m)),
                        sampleResult(static_cast<double>(m)));
                }
            }
            ::_exit(0);
        }
        children.push_back(pid);
    }
    ::close(barrier[0]);
    ASSERT_EQ(::write(barrier[1], "gggg", kWriters), kWriters);
    ::close(barrier[1]);
    for (const pid_t pid : children) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    // No torn lines, and every record of every writer recovered.
    EXPECT_EQ(wellFormedLineCount(file.str()),
              static_cast<std::size_t>(kWriters * kRecords));
    EXPECT_EQ(readResultRecords(file.str()).size(),
              static_cast<std::size_t>(kWriters * kRecords));
}

// ---------------------------------------------------------------------------
// Rewriter vs. appender: the gc temp+rename race

TEST(ResultStore, AppendSurvivesConcurrentRewrite)
{
    // The deterministic half of the gc-race fix: an open store whose
    // backing file gets replaced under it (gc's temp+rename) must
    // notice the swap on its next insert and append to the new file,
    // not the orphaned old inode.
    TempPath file("critics-store-rewrite");
    ResultStore store(file.str());
    store.insert(tinySpec(1), sampleResult(1.0)); // fd now cached

    const auto stats = gcStore(file.str(), GcOptions{});
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->recordsKept, 1u);

    store.insert(tinySpec(2), sampleResult(2.0));
    const auto records = readResultRecords(file.str());
    EXPECT_EQ(records.size(), 2u); // nothing vanished with the inode
}

/** Concurrent rewriters beside the appenders: the parent's gc, plus
 *  (for 2) a forked child running compact in a loop. */
class CacheGcRace : public ::testing::TestWithParam<int>
{
};

TEST_P(CacheGcRace, ForkedWritersNeverLoseRecordsAcrossGc)
{
    // The probabilistic half: writer processes appending while one or
    // two rewriters replace the store in a loop.  Every writer holds
    // the store's sidecar lock across its append and every rewriter
    // across its fold + temp + rename, so every append must survive.
    TempPath file("critics-store-gc-race");
    constexpr int kWriters = 3;
    constexpr int kRecords = 24;

    int barrier[2];
    ASSERT_EQ(::pipe(barrier), 0);

    std::vector<pid_t> children;
    for (int w = 0; w < kWriters; ++w) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            ::close(barrier[1]);
            char go;
            while (::read(barrier[0], &go, 1) == 0) {
            }
            ::close(barrier[0]);
            {
                ResultStore store(file.str());
                for (int m = 0; m < kRecords; ++m) {
                    store.insert(
                        tinySpec(static_cast<std::uint64_t>(
                            w * 1000 + m)),
                        sampleResult(static_cast<double>(m)));
                    ::usleep(500); // stretch the window gc races into
                }
            }
            ::_exit(0);
        }
        children.push_back(pid);
    }
    ::close(barrier[0]);

    // The second rewriter compacts until the parent closes `stop`.
    pid_t compactor = 0;
    int stop[2] = {-1, -1};
    if (GetParam() == 2) {
        ASSERT_EQ(::pipe(stop), 0);
        compactor = ::fork();
        ASSERT_GE(compactor, 0);
        if (compactor == 0) {
            ::close(stop[1]);
            struct pollfd done = {stop[0], POLLIN, 0};
            while (::poll(&done, 1, 0) == 0) {
                if (!compactStore(file.str()))
                    ::_exit(1);
            }
            ::_exit(0);
        }
        ::close(stop[0]);
    }
    ASSERT_EQ(::write(barrier[1], "ggg", kWriters), kWriters);
    ::close(barrier[1]);

    // Rewrite the store as fast as possible while the writers append.
    bool anyChildAlive = true;
    while (anyChildAlive) {
        const auto stats = gcStore(file.str(), GcOptions{});
        ASSERT_TRUE(stats.has_value());
        anyChildAlive = false;
        for (pid_t &pid : children) {
            if (pid == 0)
                continue;
            int status = 0;
            const pid_t done = ::waitpid(pid, &status, WNOHANG);
            if (done == pid) {
                EXPECT_TRUE(WIFEXITED(status) &&
                            WEXITSTATUS(status) == 0);
                pid = 0;
            } else {
                anyChildAlive = true;
            }
        }
    }
    if (compactor > 0) {
        ::close(stop[1]);
        int status = 0;
        ASSERT_EQ(::waitpid(compactor, &status, 0), compactor);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    // Every record of every writer survived every rewrite.
    EXPECT_EQ(wellFormedLineCount(file.str()),
              static_cast<std::size_t>(kWriters * kRecords));
    EXPECT_EQ(readResultRecords(file.str()).size(),
              static_cast<std::size_t>(kWriters * kRecords));
}

INSTANTIATE_TEST_SUITE_P(Rewriters, CacheGcRace, ::testing::Values(1, 2),
                         [](const auto &info) {
                             return info.param == 1 ? "GcOnly"
                                                    : "GcAndCompact";
                         });

// ---------------------------------------------------------------------------
// Incremental refresh

TEST(ResultStore, RefreshParsesOnlyAppendedLines)
{
    TempPath file("critics-refresh-count");
    constexpr std::size_t kRecords = 6;
    {
        ResultStore writer(file.str());
        for (std::size_t i = 0; i < kRecords; ++i)
            writer.insert(tinySpec(i), sampleResult(1.0 * i));
    }
    ResultStore live(file.str());
    stats::StatRegistry reg;
    live.registerStats(reg, "runner.cache");
    const stats::StatDef *parsed = reg.find("runner.cache.parsedLines");
    ASSERT_NE(parsed, nullptr);
    EXPECT_EQ(parsed->eval(), static_cast<double>(kRecords));

    ResultStore(file.str()).insert(tinySpec(kRecords), sampleResult());
    live.refresh();
    // One new line parsed, not the whole store again.
    EXPECT_EQ(parsed->eval(), static_cast<double>(kRecords + 1));
    EXPECT_EQ(live.size(), kRecords + 1);
    EXPECT_TRUE(live.lookup(tinySpec(kRecords)).has_value());

    live.refresh(); // nothing new: nothing parsed
    EXPECT_EQ(parsed->eval(), static_cast<double>(kRecords + 1));
}

TEST(ResultStore, RefreshMatchesFreshLoad)
{
    // A long-lived store refreshed after every step of a seeded mix of
    // appends, malformed lines, torn tails, rewrites (inode swaps) and
    // removals must index exactly what a fresh load of the file does.
    TempPath file("critics-refresh-prop");
    constexpr std::uint64_t kSpecs = 10;
    std::vector<JobSpec> specs;
    for (std::uint64_t i = 0; i < kSpecs; ++i)
        specs.push_back(tinySpec(i));

    Rng rng(20181020);
    ResultStore live(file.str());
    bool tailPending = false;
    std::uint64_t now = 1000;
    auto randomLine = [&] {
        const JobSpec &spec = specs[rng.below(kSpecs)];
        return makeLine(spec, sampleResult(rng.uniform()), ++now);
    };
    setQuiet(true);
    for (int step = 0; step < 120; ++step) {
        const std::uint64_t op = rng.below(8);
        SCOPED_TRACE("step " + std::to_string(step) + " op " +
                     std::to_string(op));
        switch (op) {
          case 0:
          case 1: // insert by another process's store
            ResultStore(file.str())
                .insert(specs[rng.below(kSpecs)],
                        sampleResult(rng.uniform()));
            tailPending = false;
            break;
          case 2: // another writer appends a malformed line
            appendBytes(file.str(),
                        randomLine() + "not a record\n" + randomLine());
            tailPending = false;
            break;
          case 3: // a record without its newline, later completed
            if (tailPending) {
                appendBytes(file.str(), "\n");
            } else {
                std::string line = randomLine();
                line.pop_back();
                appendBytes(file.str(), line);
            }
            tailPending = !tailPending;
            break;
          case 4:
            ASSERT_TRUE(compactStore(file.str()).has_value());
            tailPending = false;
            break;
          case 5: {
            GcOptions opt;
            opt.maxBytes = 4096 * (1 + rng.below(6));
            ASSERT_TRUE(gcStore(file.str(), opt).has_value());
            tailPending = false;
            break;
          }
          case 6: { // a temp-file + rename rewrite that adds a record
            const std::string temp = file.str() + ".tmp";
            std::ofstream(temp, std::ios::binary)
                << fileBytes(file.str()) << (tailPending ? "\n" : "")
                << randomLine();
            std::filesystem::rename(temp, file.str());
            tailPending = false;
            break;
          }
          case 7:
            std::filesystem::remove(file.str());
            tailPending = false;
            break;
        }
        live.refresh();
        ResultStore fresh(file.str());
        ASSERT_EQ(live.size(), fresh.size());
        for (const JobSpec &spec : specs) {
            const auto want = fresh.lookup(spec);
            const auto got = live.lookup(spec);
            ASSERT_EQ(got.has_value(), want.has_value());
            if (want) {
                ASSERT_EQ(resultToJson(*got), resultToJson(*want));
            }
        }
    }
    setQuiet(false);
}

// ---------------------------------------------------------------------------
// The store scanner

namespace
{

/** The record a store line's bytes encode, decoded with the JSON
 *  accessors directly rather than through the scanner. */
std::optional<ResultRecord>
decodeDirectly(const std::string &bytes)
{
    const auto doc = json::parseJson(bytes);
    if (!doc)
        return std::nullopt;
    const json::JsonValue *schema = doc->find("schema");
    const json::JsonValue *hash = doc->find("hash");
    const json::JsonValue *spec = doc->find("spec");
    const json::JsonValue *result = doc->find("result");
    if (!schema || schema->asInt() != kResultSchemaVersion || !hash ||
        !hash->asString() || !spec || !spec->asString() || !result) {
        return std::nullopt;
    }
    const auto parsed = resultFromJson(*result);
    if (!parsed)
        return std::nullopt;
    ResultRecord record;
    record.hash = *hash->asString();
    record.spec = *spec->asString();
    if (const json::JsonValue *v = doc->find("app"))
        record.app = v->asString().value_or("");
    if (const json::JsonValue *v = doc->find("variant"))
        record.variant = v->asString().value_or("");
    if (const json::JsonValue *v = doc->find("writtenUnix"))
        record.writtenUnix = v->asUint().value_or(0);
    record.result = *parsed;
    return record;
}

void
expectSameRecord(const ResultRecord &got, const ResultRecord &want)
{
    EXPECT_EQ(got.hash, want.hash);
    EXPECT_EQ(got.spec, want.spec);
    EXPECT_EQ(got.app, want.app);
    EXPECT_EQ(got.variant, want.variant);
    EXPECT_EQ(got.writtenUnix, want.writtenUnix);
    EXPECT_EQ(resultToJson(got.result), resultToJson(want.result));
}

} // namespace

TEST(StoreScanner, MutatedLinesScanIdenticallyOrAreRejected)
{
    // Seeded byte flips, truncations and inserted quotes or braces in
    // a good line, each followed by the untouched line.  Every mutated
    // line must be handed over verbatim and either scan Good to
    // exactly the record its bytes encode or be rejected; a truncated
    // record (a torn write) is never Good; and no mutation bleeds into
    // the next line, which must scan to the original record.
    TempPath file("critics-scan-mutations");
    const std::string good = makeLine(tinySpec(1), sampleResult(1.0), 77);
    const std::string body = good.substr(0, good.size() - 1);
    const auto original = decodeDirectly(body);
    ASSERT_TRUE(original.has_value());

    constexpr int kMutations = 600;
    Rng rng(20181023);
    std::vector<std::string> mutated;
    std::vector<bool> truncated;
    std::string bytes;
    for (int i = 0; i < kMutations; ++i) {
        std::string line = body;
        const std::uint64_t op = rng.below(3);
        if (op == 0) { // flip bits of one byte, never into a newline
            char &c = line[rng.below(line.size())];
            const char flipped =
                static_cast<char>(c ^ static_cast<char>(1 + rng.below(255)));
            c = flipped == '\n' ? static_cast<char>(c ^ 0x01) : flipped;
        } else if (op == 1) {
            line.resize(1 + rng.below(line.size() - 1));
        } else {
            line.insert(rng.below(line.size() + 1), 1, "\"{}"[rng.below(3)]);
        }
        mutated.push_back(line);
        truncated.push_back(op == 1);
        bytes += line + "\n" + good;
    }
    appendBytes(file.str(), bytes);

    std::size_t index = 0, accepted = 0;
    const auto scan = scanStore(file.str(), [&](StoreLine &line) {
        const std::size_t i = index++;
        if (i % 2 == 1) {
            EXPECT_EQ(line.bytes, body) << "after mutation " << i / 2;
            ASSERT_EQ(line.kind, StoreLine::Kind::Good);
            expectSameRecord(line.record, *original);
            return;
        }
        SCOPED_TRACE("mutation " + std::to_string(i / 2));
        ASSERT_LT(i / 2, mutated.size());
        ASSERT_EQ(line.bytes, mutated[i / 2]);
        const auto direct = decodeDirectly(line.bytes);
        ASSERT_EQ(line.kind == StoreLine::Kind::Good, direct.has_value());
        if (line.kind != StoreLine::Kind::Good)
            return;
        EXPECT_FALSE(truncated[i / 2]);
        expectSameRecord(line.record, *direct);
        ++accepted;
    });
    ASSERT_TRUE(scan.has_value());
    EXPECT_EQ(index, 2u * kMutations);
    EXPECT_EQ(*scan, bytes.size());
    // Most mutations break the record; a few only change a value.
    EXPECT_LT(accepted, static_cast<std::size_t>(kMutations) / 2);
}

TEST(StoreScanner, RepeatedKeyIsMalformed)
{
    // A line naming its hash twice could be indexed under either; the
    // scanner must not pick one.
    TempPath file("critics-scan-repeated");
    const std::string good = makeLine(tinySpec(1), sampleResult(1.0), 77);
    const std::string twice = "{\"hash\":\"0000000000000000\"," +
        good.substr(1);
    appendBytes(file.str(), twice + good);

    std::vector<StoreLine::Kind> kinds;
    const auto scan = scanStore(file.str(), [&](StoreLine &line) {
        kinds.push_back(line.kind);
    });
    ASSERT_TRUE(scan.has_value());
    ASSERT_EQ(kinds.size(), 2u);
    EXPECT_EQ(kinds[0], StoreLine::Kind::Malformed);
    EXPECT_EQ(kinds[1], StoreLine::Kind::Good);
}

// ---------------------------------------------------------------------------
// Compact

namespace
{

/** A record as the schema-1 store wrote it, verbatim: tinySpec(0)'s
 *  job, its result fields listed under hand-picked names. */
std::string
schema1Line()
{
    return fileBytes(std::string(CRITICS_GOLDEN_DIR) +
                     "/store_schema1.jsonl");
}

} // namespace

TEST(CacheCompact, DropsSupersededOldSchemaOrphansAndTornTail)
{
    TempPath file("critics-compact");
    const JobSpec live = tinySpec(1);
    const sim::RunResult final = sampleResult(9.0);
    {
        std::ofstream f(file.str());
        f << makeLine(live, sampleResult(1.0), 100); // superseded
        f << makeLine(live, final, 200);             // survives
        f << makeLine(tinySpec(2), sampleResult(), 100, "",
                      kResultSchemaVersion + 1);     // other schema
        f << schema1Line();                          // old schema
        // Orphan: a stored hash that is not hash(spec) — a collision
        // or a hash-function-change leftover.
        f << makeLine(tinySpec(3), sampleResult(), 100,
                      "00000000deadbeef");
        f << "{\"schema\":1,\"hash\":\"tr";          // torn tail
    }
    const auto before = std::filesystem::file_size(file.str());
    const auto stats = compactStore(file.str());
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->recordsKept, 1u);
    EXPECT_EQ(stats->superseded, 1u);
    EXPECT_EQ(stats->oldSchema, 2u);
    EXPECT_EQ(stats->orphans, 1u);
    EXPECT_EQ(stats->malformed, 1u);
    EXPECT_EQ(stats->bytesBefore, before);
    EXPECT_GT(stats->bytesReclaimed(), 0u);
    EXPECT_LT(std::filesystem::file_size(file.str()), before);

    // The surviving record is the later one, byte-for-byte.
    const auto records = readResultRecords(file.str());
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].hash, live.hashHex());
    EXPECT_EQ(resultToJson(records[0].result), resultToJson(final));
}

TEST(CacheCompact, Schema1RecordIsAMissAndResimulated)
{
    // Every store written before the records nested the registry's
    // names goes cold once: its records load as nothing, and a Runner
    // simulates their jobs again.
    TempPath file("critics-schema1");
    const std::string line = schema1Line();
    appendBytes(file.str(), line);
    const JobSpec spec = tinySpec(0);
    const auto doc = json::parseJson(line.substr(0, line.size() - 1));
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("schema")->asInt(), 1);
    EXPECT_EQ(doc->find("spec")->asString(), spec.specString());
    EXPECT_EQ(ResultStore(file.str()).size(), 0u);

    std::atomic<int> executed{0};
    RunnerOptions options;
    options.cachePath = file.str();
    options.writeManifest = false;
    options.progress = false;
    options.executor = [&](const JobSpec &job,
                           sim::AppExperiment &experiment) {
        ++executed;
        return experiment.run(job.variant);
    };
    const auto batch = Runner(options).run("schema1", {spec});
    ASSERT_TRUE(batch.allOk());
    EXPECT_FALSE(batch.outcomes[0].fromCache);
    EXPECT_EQ(executed.load(), 1);
    EXPECT_EQ(ResultStore(file.str()).size(), 1u);
}

TEST(CacheCompact, UnterminatedRecordIsATornTail)
{
    // A complete record whose newline never landed is not (yet) a
    // record: under the lock it is torn, and compact keeps only the
    // terminated line, verbatim.
    TempPath file("critics-compact-unterminated");
    const std::string good = makeLine(tinySpec(3), sampleResult(), 100);
    std::string unterminated = makeLine(tinySpec(4), sampleResult(), 100);
    unterminated.pop_back();
    appendBytes(file.str(), good + unterminated);
    const auto stats = compactStore(file.str());
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->recordsKept, 1u);
    EXPECT_EQ(stats->malformed, 1u);
    EXPECT_EQ(fileBytes(file.str()), good);
}

TEST(CacheCompact, MissingFileIsAnEmptyNoOp)
{
    TempPath file("critics-compact-missing");
    const auto stats = compactStore(file.str());
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->filesRead, 0u);
    EXPECT_EQ(stats->recordsKept, 0u);
    EXPECT_FALSE(std::filesystem::exists(file.str()));
}

// ---------------------------------------------------------------------------
// GC

TEST(CacheGc, MaxAgeExpiresOldAndUnstampedRecords)
{
    TempPath file("critics-gc-age");
    {
        std::ofstream f(file.str());
        f << makeLine(tinySpec(1), sampleResult(), 1000); // too old
        f << makeLine(tinySpec(2), sampleResult(), 9000); // fresh
        f << makeLine(tinySpec(3), sampleResult(), 0);    // unstamped
    }
    GcOptions opt;
    opt.maxAgeSeconds = 5000;
    opt.nowUnix = 10000; // cutoff = 5000
    const auto stats = gcStore(file.str(), opt);
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->expired, 2u);
    const auto records = readResultRecords(file.str());
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].hash, tinySpec(2).hashHex());
}

TEST(CacheGc, MaxBytesEvictsOldestFirst)
{
    TempPath file("critics-gc-bytes");
    std::uintmax_t oneLine = 0;
    {
        std::ofstream f(file.str());
        const std::string newest =
            makeLine(tinySpec(3), sampleResult(), 300);
        oneLine = newest.size();
        f << makeLine(tinySpec(2), sampleResult(), 200);
        f << makeLine(tinySpec(1), sampleResult(), 100);
        f << newest;
    }
    GcOptions opt;
    opt.maxBytes = 2 * oneLine + oneLine / 2; // room for two records
    const auto stats = gcStore(file.str(), opt);
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->evicted, 1u);
    EXPECT_LE(std::filesystem::file_size(file.str()), opt.maxBytes);
    // The oldest record (writtenUnix 100) went first.
    std::set<std::string> hashes;
    for (const auto &record : readResultRecords(file.str()))
        hashes.insert(record.hash);
    EXPECT_EQ(hashes.count(tinySpec(1).hashHex()), 0u);
    EXPECT_EQ(hashes.count(tinySpec(2).hashHex()), 1u);
    EXPECT_EQ(hashes.count(tinySpec(3).hashHex()), 1u);
}

// ---------------------------------------------------------------------------
// Collision counting

TEST(ResultStore, CollisionLookupIsAMissAndCounted)
{
    TempPath file("critics-collision");
    const JobSpec spec = tinySpec(1);
    {
        // A record with spec A's hash but a different spec string —
        // what a hash collision (or hash-function change) leaves.
        JobSpec other = tinySpec(2);
        std::ofstream f(file.str());
        f << makeLine(other, sampleResult(), 100, spec.hashHex());
    }
    ResultStore store(file.str());
    EXPECT_FALSE(store.lookup(spec).has_value());
    EXPECT_EQ(store.collisions(), 1u);
    EXPECT_EQ(store.misses(), 1u);
}

// ---------------------------------------------------------------------------
// Double-SIGINT emergency flush

TEST(SigintGuardDeath, SecondSigintFlushesManifestThenDies)
{
    TempPath dir("critics-sigint");
    std::filesystem::create_directories(dir.str());
    const std::string emergency = dir.str() + "/batch.interrupted.json";
    const std::string header = "{\"batch\":\"emergency\",\"jobs\":[";
    const std::vector<std::string> pending{"{\"job\":0}", "{\"job\":1}",
                                           "{\"job\":2}"};
    const std::string finished = "{\"job\":1,\"ok\":true}";
    const std::string trailer = "]}\n";

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        EmergencyManifest manifest(emergency, header, pending, trailer);
        manifest.publish(1, finished);
        SigintGuard guard;
        SigintGuard::setEmergency(&manifest);
        ::raise(SIGINT); // first: flag only
        if (!SigintGuard::interrupted())
            ::_exit(3);
        ::raise(SIGINT); // second: flush + default disposition
        ::_exit(4);      // unreachable if the re-raise worked
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status))
        << "child exited " << WEXITSTATUS(status)
        << " instead of dying by SIGINT";
    EXPECT_EQ(WTERMSIG(status), SIGINT);

    std::ifstream in(emergency);
    ASSERT_TRUE(in.good()) << "no emergency manifest written";
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(contents, header + pending[0] + "," + finished + "," +
                            pending[2] + trailer);
}

TEST(RunnerSigintDeath, DoubleSigintMidBatchLeavesTruthfulManifest)
{
    // "threadsafe" re-executes this test in a fresh child process, so
    // the child has no pool inherited from earlier tests and the
    // signal handler races the child's own pool threads.  The child
    // re-runs this body; it finds the parent's directory through the
    // environment.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const char *kDirVar = "CRITICS_TEST_SIGINT_DIR";
    TempPath scratch("critics-runner-sigint");
    const char *inherited = std::getenv(kDirVar);
    const std::string dir = inherited ? inherited : scratch.str();
    if (!inherited) {
        std::filesystem::create_directories(dir);
        ::setenv(kDirVar, dir.c_str(), 1);
    }

    std::vector<JobSpec> jobs;
    for (std::uint64_t s = 0; s < 6; ++s) {
        jobs.push_back(tinySpec(s));
        jobs.push_back(tinySpec(s, sim::Transform::CritIc));
    }
    // The last job to start raises both interrupts.
    const std::size_t raiseAt = jobs.size() - 1;
    RunnerOptions options;
    options.cachePath = dir + "/results.jsonl";
    options.manifestDir = dir + "/manifests";
    options.progress = false;
    auto runBatch = [&] {
        std::atomic<std::size_t> started{0};
        options.executor = [&](const JobSpec &spec,
                               sim::AppExperiment &experiment) {
            if (started.fetch_add(1) == raiseAt) {
                ::raise(SIGINT); // first: flag only
                ::raise(SIGINT); // second: flush + die
            }
            return experiment.run(spec.variant);
        };
        Runner runner(options);
        runner.run("sigint", jobs);
    };
    EXPECT_EXIT(runBatch(), ::testing::KilledBySignal(SIGINT), "");
    ::unsetenv(kDirVar);

    RunManifest manifest;
    ASSERT_TRUE(RunManifest::read(
        dir + "/manifests/sigint.interrupted.json", manifest));
    EXPECT_TRUE(manifest.interrupted);
    ASSERT_EQ(manifest.jobs.size(), jobs.size());
    std::set<std::string> stored;
    for (const auto &record : readResultRecords(options.cachePath))
        stored.insert(record.hash);
    std::size_t ok = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobRecord &job = manifest.jobs[i];
        EXPECT_EQ(job.hash, jobs[i].hashHex());
        if (job.ok) {
            ok++;
            EXPECT_EQ(stored.count(job.hash), 1u)
                << "job " << i << " is ok but not in the store";
        } else {
            EXPECT_FALSE(job.error.empty()) << "job " << i;
        }
    }
    // Every thread published each job it had finished before it
    // started its next one, so only each thread's last job may still
    // be pending.
    const std::size_t threads = ThreadPool::shared().threadCount() + 1;
    EXPECT_GE(ok + threads, jobs.size());
}
