/**
 * @file
 * The serve subsystem without a terminal in the loop: the content-hash
 * split of cold jobs over worker slots, wire-format round-trips and
 * rejection of malformed input, LineReader framing under adversarial
 * byte arrival and at its line cap, the worker supervisor's bounded
 * restart state machine (driven by /bin/sh stand-in workers that read
 * batch lines on stdin, no simulator needed), seeded mutations of
 * request lines and of the worker channels' lines, and end-to-end
 * daemon exercises over a real TCP socket with real serve-worker
 * children — cold submit streamed to completion, warm resubmit
 * answered entirely from the store, event-log replay after a client
 * disconnect, warm round trips free of delayed-ACK stalls, workers and
 * their experiments kept across batches, an idle worker's death, the
 * drain reaping every worker, the connection and line caps, and a
 * protocol-initiated shutdown drain.
 */

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <set>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/span.hh"
#include "runner/orchestrator.hh"
#include "runner/result_store.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/supervisor.hh"
#include "sim/report.hh"
#include "sim/variants.hh"
#include "stats/trace_event.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/rng.hh"

using namespace critics;
using namespace critics::serve;

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
    }

    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

/** Field accessors for one-line JSON replies. */
std::optional<json::JsonValue>
parsedReply(const std::optional<std::string> &line)
{
    if (!line)
        return std::nullopt;
    auto doc = json::parseJson(*line);
    if (!doc || !doc->isObject())
        return std::nullopt;
    return doc;
}

bool
boolField(const json::JsonValue &doc, const char *key)
{
    const auto *f = doc.find(key);
    return f && f->asBool().value_or(false);
}

std::uint64_t
uintField(const json::JsonValue &doc, const char *key)
{
    const auto *f = doc.find(key);
    return f ? f->asUint().value_or(0) : 0;
}

std::string
stringField(const json::JsonValue &doc, const char *key)
{
    const auto *f = doc.find(key);
    return f ? f->asString().value_or("") : "";
}

runner::JobSpec
partitionSpec(std::uint64_t seed,
              sim::Transform transform = sim::Transform::None)
{
    runner::JobSpec spec;
    spec.profile = workload::findApp("Acrobat");
    spec.profile.seed += seed;
    spec.options.traceInsts = 20000;
    spec.variant.label = "test";
    spec.variant.transform = transform;
    return spec;
}

} // namespace

// ---------------------------------------------------------------------------
// Worker partition

TEST(Shard, PartitionIsDisjointAndCovering)
{
    // Each cold job goes to exactly one of the N worker slots, the same
    // one every time, and the jobs spread over every slot.
    std::vector<runner::JobSpec> jobs;
    for (std::uint64_t s = 0; s < 12; ++s) {
        jobs.push_back(partitionSpec(s));
        jobs.push_back(partitionSpec(s, sim::Transform::CritIc));
    }
    const unsigned N = 3;
    std::vector<std::size_t> owned(N + 1, 0);
    for (const auto &spec : jobs) {
        const unsigned slot = shardOf(spec, N);
        ASSERT_GE(slot, 1u);
        ASSERT_LE(slot, N);
        EXPECT_EQ(shardOf(spec, N), slot);
        ++owned[slot];
    }
    for (unsigned k = 1; k <= N; ++k)
        EXPECT_GT(owned[k], 0u) << "slot " << k << " owns no job";
    // One slot owns everything.
    for (const auto &spec : jobs)
        EXPECT_EQ(shardOf(spec, 1), 1u);
}

TEST(Shard, AssignmentIgnoresPresentationLabel)
{
    runner::JobSpec a = partitionSpec(7);
    runner::JobSpec b = a;
    b.variant.label = "renamed";
    for (unsigned n = 1; n <= 5; ++n)
        EXPECT_EQ(shardOf(a, n), shardOf(b, n));
}

// ---------------------------------------------------------------------------
// Wire format

TEST(ServeProtocol, RequestRoundTripsEveryOp)
{
    Request submit;
    submit.op = Request::Op::Submit;
    submit.submit.batch = "nightly";
    submit.submit.apps = "Acrobat,Office";
    submit.submit.variants = "baseline,critic";
    submit.submit.insts = 123456;
    submit.submit.refresh = true;
    submit.submit.sleepMs = 250;

    std::string error;
    const auto back = parseRequest(renderRequest(submit), &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->op, Request::Op::Submit);
    EXPECT_EQ(back->submit.batch, "nightly");
    EXPECT_EQ(back->submit.apps, "Acrobat,Office");
    EXPECT_EQ(back->submit.variants, "baseline,critic");
    EXPECT_EQ(back->submit.insts, 123456u);
    EXPECT_TRUE(back->submit.refresh);
    EXPECT_EQ(back->submit.sleepMs, 250u);

    for (const auto op : {Request::Op::Status, Request::Op::Wait}) {
        Request request;
        request.op = op;
        request.job = "serve-7";
        const auto parsed = parseRequest(renderRequest(request));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(parsed->op, op);
        EXPECT_EQ(parsed->job, "serve-7");
    }
    for (const auto op : {Request::Op::Ping, Request::Op::Stats,
                          Request::Op::Shutdown}) {
        Request request;
        request.op = op;
        const auto parsed = parseRequest(renderRequest(request));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(parsed->op, op);
    }
}

TEST(ServeProtocol, SubmitDefaultsSurviveMinimalRequest)
{
    const auto parsed = parseRequest("{\"op\":\"submit\"}");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->submit.batch, "serve");
    EXPECT_EQ(parsed->submit.apps, "mobile");
    EXPECT_EQ(parsed->submit.variants, "all");
    EXPECT_EQ(parsed->submit.insts, 400000u);
    EXPECT_FALSE(parsed->submit.refresh);
    EXPECT_EQ(parsed->submit.sleepMs, 0u);
}

TEST(ServeProtocol, MalformedRequestsAreRejectedWithAReason)
{
    const char *bad[] = {
        "not json at all",
        "[1,2,3]",                          // not an object
        "{}",                               // no op
        "{\"op\":\"frobnicate\"}",          // unknown op
        "{\"op\":\"status\"}",              // status without a job
        "{\"op\":\"wait\",\"job\":\"\"}",   // empty job id
        "{\"op\":\"submit\",\"insts\":0}",  // zero budget
        "{\"op\":\"submit\",\"insts\":50000001}", // over kMaxInsts
        "{\"op\":\"submit\",\"batch\":\"\"}",
        "{\"op\":\"submit\",\"refresh\":\"yes\"}", // wrong type
        "{\"op\":\"ping\",\"op\":\"shutdown\"}",  // repeated key
        "{\"op\":\"submit\",\"insts\":5,\"insts\":6}",
    };
    for (const char *line : bad) {
        std::string error;
        EXPECT_FALSE(parseRequest(line, &error).has_value()) << line;
        EXPECT_FALSE(error.empty()) << line;
    }
}

TEST(ServeProtocol, JobEventRoundTripsWithAndWithoutError)
{
    JobEvent ok;
    ok.hash = "abcd1234";
    ok.app = "Acrobat";
    ok.variant = "critic";
    ok.ok = true;
    ok.fromCache = true;
    auto back = parseJobEvent(renderJobEvent(ok));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->hash, "abcd1234");
    EXPECT_EQ(back->app, "Acrobat");
    EXPECT_EQ(back->variant, "critic");
    EXPECT_TRUE(back->ok);
    EXPECT_TRUE(back->fromCache);
    EXPECT_TRUE(back->error.empty());

    JobEvent failed = ok;
    failed.ok = false;
    failed.fromCache = false;
    failed.error = "simulator said \"no\"";
    back = parseJobEvent(renderJobEvent(failed));
    ASSERT_TRUE(back.has_value());
    EXPECT_FALSE(back->ok);
    EXPECT_EQ(back->error, "simulator said \"no\"");
}

namespace
{

/** An irregular result: odd doubles, large counters. */
sim::RunResult
sampleResult()
{
    sim::RunResult r;
    r.cpu.cycles = 123456789012345ULL;
    r.cpu.committed = 400000;
    r.cpu.efetchAccuracy = 2.0 / 3.0;
    r.cpu.all.fetch = 0.1;
    r.cpu.crit.insts = 77;
    r.cpu.mem.dram.totalLatency = 700;
    r.energy.cpuCore = 0.12345678901234567;
    r.energy.icache = 2e-9;
    r.pass.chainsTransformed = 10;
    r.selectionCoverage = 1.0 / 7.0;
    r.dynThumbFraction = 1e-17;
    return r;
}

/** A simulated job's event as a worker sends it. */
JobEvent
simulatedEvent()
{
    JobEvent event;
    event.hash = "9f86d081884c7d65";
    event.app = "Acrobat";
    event.variant = "critic";
    event.ok = true;
    event.wallSeconds = 12.25;
    event.result = sampleResult();
    return event;
}

} // namespace

TEST(ServeProtocol, JobEventCarriesItsResultBitExactly)
{
    const JobEvent sent = simulatedEvent();
    const auto back = parseJobEvent(renderJobEvent(sent), true);
    ASSERT_TRUE(back.has_value());
    ASSERT_TRUE(back->result.has_value());
    EXPECT_EQ(runner::resultToJson(*back->result),
              runner::resultToJson(*sent.result));
    EXPECT_EQ(renderJobEvent(*back), renderJobEvent(sent));

    // What clients see: the same event without its result.
    JobEvent stripped = sent;
    stripped.result.reset();
    const std::string line = renderJobEvent(stripped);
    EXPECT_EQ(line.find("result"), std::string::npos);
    const auto client = parseJobEvent(line);
    ASSERT_TRUE(client.has_value());
    EXPECT_FALSE(client->result.has_value());
}

TEST(ServeProtocol, WorkerEventWithoutACompleteResultIsRejected)
{
    JobEvent event = simulatedEvent();
    event.result.reset();
    const std::string bare = renderJobEvent(event);
    EXPECT_FALSE(parseJobEvent(bare, true).has_value());
    EXPECT_TRUE(parseJobEvent(bare).has_value()); // a client's line

    // A result missing a field is refused on either leg.
    std::string torn = renderJobEvent(simulatedEvent());
    const auto at = torn.find("\"energy\":");
    ASSERT_NE(at, std::string::npos);
    torn.replace(at, 9, "\"enerxy\":");
    EXPECT_FALSE(parseJobEvent(torn, true).has_value());
    EXPECT_FALSE(parseJobEvent(torn).has_value());

    // A failed job, or a cache answer, has no result to carry.
    event.ok = false;
    event.error = "no";
    EXPECT_TRUE(parseJobEvent(renderJobEvent(event), true).has_value());
    event.ok = true;
    event.fromCache = true;
    EXPECT_TRUE(parseJobEvent(renderJobEvent(event), true).has_value());
}

TEST(ServeProtocol, ShardDoneRoundTripsAndKindsDoNotCross)
{
    const std::string doneLine = renderShardDone();
    EXPECT_EQ(doneLine, "{\"event\":\"shard-done\"}");
    EXPECT_TRUE(parseShardDone(doneLine));

    JobEvent event;
    event.hash = "beef";
    const std::string eventLine = renderJobEvent(event);
    // A parser only accepts its own event kind.
    EXPECT_FALSE(parseJobEvent(doneLine).has_value());
    EXPECT_FALSE(parseShardDone(eventLine));
    // And a job event without its identity is useless.
    EXPECT_FALSE(parseJobEvent("{\"event\":\"job\"}").has_value());
    EXPECT_FALSE(parseJobEvent("{\"event\":\"job\",\"hash\":\"\"}")
                     .has_value());
    // Nor one that names its kind twice.
    EXPECT_FALSE(
        parseJobEvent("{\"event\":\"job\",\"hash\":\"h\",\"event\":\"span\"}")
            .has_value());
    // Nor one whose wall time could not be rendered back.
    for (const char *wall : {"-2.25", "1e999", "\"nan\"", "true"}) {
        EXPECT_FALSE(parseJobEvent(
                         std::string("{\"event\":\"job\",\"hash\":"
                                     "\"beef\",\"wall-s\":") +
                         wall + "}")
                         .has_value())
            << wall;
    }
}

namespace
{

WorkerBatch
sampleBatch()
{
    WorkerBatch batch;
    batch.batch = "nightly.serve-3.shard-1-of-2";
    batch.apps = "Acrobat,Office";
    batch.variants = "baseline,critic";
    batch.insts = 50000;
    batch.hashes = {"9f86d081884c7d65", "60303ae22b998861"};
    batch.sleepMs = 1500;
    batch.traceId = "5af3-serve-3";
    batch.profile = "/tmp/prof/serve-3.worker-1.json";
    return batch;
}

void
expectSameBatch(const WorkerBatch &a, const WorkerBatch &b)
{
    EXPECT_EQ(a.batch, b.batch);
    EXPECT_EQ(a.apps, b.apps);
    EXPECT_EQ(a.variants, b.variants);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.hashes, b.hashes);
    EXPECT_EQ(a.sleepMs, b.sleepMs);
    EXPECT_EQ(a.traceId, b.traceId);
    EXPECT_EQ(a.profile, b.profile);
}

} // namespace

TEST(ServeProtocol, WorkerBatchRoundTripsAndRejectsBadFields)
{
    const WorkerBatch full = sampleBatch();
    std::string error;
    auto back = parseWorkerBatch(renderWorkerBatch(full), &error);
    ASSERT_TRUE(back.has_value()) << error;
    expectSameBatch(*back, full);

    // The optional fields are left out when unset, and come back unset.
    WorkerBatch bare = full;
    bare.sleepMs = 0;
    bare.traceId.clear();
    bare.profile.clear();
    const std::string bareLine = renderWorkerBatch(bare);
    EXPECT_EQ(bareLine.find("trace-id"), std::string::npos);
    back = parseWorkerBatch(bareLine, &error);
    ASSERT_TRUE(back.has_value()) << error;
    expectSameBatch(*back, bare);

    // A batch line is not a request, nor a request a batch line.
    EXPECT_FALSE(parseRequest(renderWorkerBatch(full)).has_value());
    EXPECT_FALSE(parseWorkerBatch("{\"op\":\"submit\"}").has_value());

    const std::string good = renderWorkerBatch(full);
    auto with = [&](const std::string &from, const std::string &to) {
        std::string line = good;
        const auto at = line.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return line.replace(at, from.size(), to);
    };
    for (const std::string &bad :
         {with("\"insts\":50000", "\"insts\":0"),
          with("\"insts\":50000", "\"insts\":50000001"),
          with("\"insts\":50000", "\"insts\":-5"),
          with("\"apps\":\"Acrobat,Office\"", "\"apps\":\"\""),
          with("\"variants\":", "\"variantz\":"),
          with("\"hashes\":[", "\"hashes\":[7,"),
          with("\"hashes\":[", "\"hashes\":[\"\","),
          with("\"hashes\":[\"9f86d081884c7d65\",\"60303ae22b998861\"]",
               "\"hashes\":\"9f86d081884c7d65\""),
          with("\"sleep-ms\":1500", "\"sleep-ms\":0"),
          with("\"trace-id\":\"5af3-serve-3\"", "\"trace-id\":\"\""),
          with("\"op\":\"batch\"", "\"op\":\"batch\",\"op\":\"batch\""),
          std::string("[]"), std::string("not json")}) {
        error.clear();
        EXPECT_FALSE(parseWorkerBatch(bad, &error).has_value()) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(ServeProtocol, MutatedChannelLinesRoundTripOrAreRejected)
{
    // A worker's stdout carries span, job-event (with and without a
    // result) and shard-done lines, and its stdin batch lines.  Seeded
    // byte flips, truncations and inserted quotes or braces in each
    // kind: a mutated line is refused, or it decodes as one kind only
    // and the decoded value re-renders to a line that parses back
    // equal — what its bytes encode, nothing half-read.
    obs::SpanRecord span;
    span.name = "Acrobat/critic";
    span.category = "job";
    span.startUs = 123456789;
    span.durUs = 250000;
    span.tid = 3;
    const JobEvent simulated = simulatedEvent();
    JobEvent failed = simulated;
    failed.ok = false;
    failed.wallSeconds = 0.0;
    failed.error = "simulator said \"no\"";
    failed.result.reset();
    const std::vector<std::string> good = {
        obs::renderSpanEvent(span, "5af3-serve-1"),
        renderJobEvent(simulated), renderJobEvent(failed),
        renderShardDone(), renderWorkerBatch(sampleBatch())};

    auto spanReparses = [](const obs::SpanRecord &a,
                           const std::string &traceId) {
        std::string backId;
        const auto b =
            obs::parseSpanEvent(obs::renderSpanEvent(a, traceId), &backId);
        ASSERT_TRUE(b.has_value());
        EXPECT_EQ(backId, traceId);
        EXPECT_EQ(b->name, a.name);
        EXPECT_EQ(b->category, a.category);
        EXPECT_EQ(b->startUs, a.startUs);
        EXPECT_EQ(b->durUs, a.durUs);
        EXPECT_EQ(b->tid, a.tid);
    };
    auto eventReparses = [](const JobEvent &a) {
        const auto b = parseJobEvent(renderJobEvent(a), true);
        ASSERT_TRUE(b.has_value());
        EXPECT_EQ(b->hash, a.hash);
        EXPECT_EQ(b->app, a.app);
        EXPECT_EQ(b->variant, a.variant);
        EXPECT_EQ(b->ok, a.ok);
        EXPECT_EQ(b->fromCache, a.fromCache);
        EXPECT_EQ(b->wallSeconds, a.wallSeconds);
        EXPECT_EQ(b->error, a.error);
        ASSERT_EQ(b->result.has_value(), a.result.has_value());
        if (a.result) {
            EXPECT_EQ(runner::resultToJson(*b->result),
                      runner::resultToJson(*a.result));
        }
    };
    auto batchReparses = [](const WorkerBatch &a) {
        const auto b = parseWorkerBatch(renderWorkerBatch(a));
        ASSERT_TRUE(b.has_value());
        expectSameBatch(*b, a);
    };

    constexpr int kMutations = 2000;
    Rng rng(20240607);
    int accepted = 0;
    for (int i = 0; i < kMutations; ++i) {
        std::string line = good[rng.below(good.size())];
        const std::uint64_t op = rng.below(3);
        if (op == 0) { // flip bits of one byte
            char &c = line[rng.below(line.size())];
            c = static_cast<char>(c ^ static_cast<char>(1 + rng.below(255)));
        } else if (op == 1) {
            line.resize(rng.below(line.size()));
        } else {
            line.insert(rng.below(line.size() + 1), 1, "\"{}"[rng.below(3)]);
        }
        SCOPED_TRACE("mutation " + std::to_string(i) + ": " + line);

        std::string traceId;
        const auto asSpan = obs::parseSpanEvent(line, &traceId);
        const auto asEvent = parseJobEvent(line, true);
        const bool asDone = parseShardDone(line);
        const auto asBatch = parseWorkerBatch(line);
        const int kinds = asSpan.has_value() + asEvent.has_value() +
                          asDone + asBatch.has_value();
        EXPECT_LE(kinds, 1);
        if (asSpan)
            spanReparses(*asSpan, traceId);
        if (asEvent)
            eventReparses(*asEvent);
        if (asBatch)
            batchReparses(*asBatch);
        // A truncated line lost its closing brace: never accepted.
        if (op == 1) {
            EXPECT_EQ(kinds, 0);
        }
        accepted += kinds;
    }
    // Most mutations break the line; a few only change a value.
    EXPECT_GT(accepted, 0);
    EXPECT_LT(accepted, kMutations / 2);
}

TEST(ServeProtocol, MutatedRequestLinesFrameAndRoundTripOrAreRejected)
{
    // The request path end to end: seeded byte flips, truncations and
    // inserted quotes or braces in rendered requests of every op, fed
    // through a LineReader in random-sized chunks.  The reader's cap is
    // the longest unmutated line, so an inserted byte can push a line
    // one past it.  The reader must hand back exactly the
    // newline-separated pieces of what was fed, up to the first piece
    // over the cap, where it stops; each piece is refused by
    // parseRequest, or it decodes to a request whose rendering parses
    // back equal.
    Request submit;
    submit.op = Request::Op::Submit;
    submit.submit.batch = "nightly";
    submit.submit.apps = "Acrobat,Office";
    submit.submit.variants = "baseline,critic";
    submit.submit.insts = 123456;
    submit.submit.refresh = true;
    submit.submit.sleepMs = 250;
    std::vector<std::string> good = {renderRequest(submit)};
    for (const auto op : {Request::Op::Status, Request::Op::Wait,
                          Request::Op::Ping, Request::Op::Stats,
                          Request::Op::Shutdown}) {
        Request request;
        request.op = op;
        request.job = "serve-7";
        good.push_back(renderRequest(request));
    }

    std::size_t cap = 0;
    for (const auto &line : good)
        cap = std::max(cap, line.size());

    auto sameRequest = [](const Request &a, const Request &b) {
        return a.op == b.op && a.job == b.job &&
            a.submit.batch == b.submit.batch &&
            a.submit.apps == b.submit.apps &&
            a.submit.variants == b.submit.variants &&
            a.submit.insts == b.submit.insts &&
            a.submit.refresh == b.submit.refresh &&
            a.submit.sleepMs == b.submit.sleepMs;
    };

    constexpr int kMutations = 3000;
    Rng rng(20261019);
    int accepted = 0;
    int overflowed = 0;
    for (int i = 0; i < kMutations; ++i) {
        std::string line = good[rng.below(good.size())];
        const std::uint64_t op = rng.below(3);
        if (op == 0) { // flip bits of one byte
            char &c = line[rng.below(line.size())];
            c = static_cast<char>(c ^ static_cast<char>(1 + rng.below(255)));
        } else if (op == 1) {
            line.resize(rng.below(line.size()));
        } else {
            line.insert(rng.below(line.size() + 1), 1, "\"{}"[rng.below(3)]);
        }
        SCOPED_TRACE("mutation " + std::to_string(i) + ": " + line);

        // A flip may itself produce a newline (or a CR before one):
        // the reader splits there, as a socket peer would see it.
        const std::string wire = line + "\n";
        std::vector<std::string> expected;
        bool overflow = false;
        for (std::size_t start = 0; start < wire.size();) {
            const std::size_t end = wire.find('\n', start);
            std::string piece = wire.substr(start, end - start);
            if (piece.size() > cap) {
                overflow = true;
                break;
            }
            if (!piece.empty() && piece.back() == '\r')
                piece.pop_back();
            expected.push_back(piece);
            start = end + 1;
        }
        overflowed += overflow;
        LineReader reader(cap);
        std::vector<std::string> framed;
        for (std::size_t at = 0; at < wire.size();) {
            const std::size_t n =
                std::min<std::size_t>(1 + rng.below(16), wire.size() - at);
            reader.feed(wire.data() + at, n);
            at += n;
            while (const auto piece = reader.nextLine())
                framed.push_back(*piece);
        }
        EXPECT_FALSE(reader.nextLine().has_value());
        ASSERT_EQ(framed, expected);
        EXPECT_EQ(reader.overflowed(), overflow);

        for (const std::string &piece : framed) {
            std::string error;
            const auto request = parseRequest(piece, &error);
            if (!request) {
                EXPECT_FALSE(error.empty());
                continue;
            }
            ++accepted;
            // A truncated line lost its closing brace.
            EXPECT_NE(op, 1u);
            const auto back = parseRequest(renderRequest(*request));
            ASSERT_TRUE(back.has_value());
            EXPECT_TRUE(sameRequest(*request, *back));
        }
    }
    // Most mutations break the line; a few only change a value.
    EXPECT_GT(accepted, 0);
    EXPECT_LT(accepted, kMutations / 2);
    EXPECT_GT(overflowed, 0);

    // The boundary itself: a request exactly at the cap frames and
    // parses; one byte more stops the reader, and it yields nothing
    // after, not even a later short line.
    for (const std::size_t extra : {0, 1}) {
        Request padded = submit;
        padded.submit.batch +=
            std::string(cap - good[0].size() + extra, 'x');
        const std::string line = renderRequest(padded);
        ASSERT_EQ(line.size(), cap + extra);
        LineReader reader(cap);
        const std::string wire = line + "\n{\"op\":\"ping\"}\n";
        reader.feed(wire.data(), wire.size());
        const auto first = reader.nextLine();
        if (extra == 0) {
            ASSERT_TRUE(first.has_value());
            EXPECT_TRUE(parseRequest(*first).has_value());
            EXPECT_EQ(reader.nextLine().value_or(""), "{\"op\":\"ping\"}");
            EXPECT_FALSE(reader.overflowed());
        } else {
            EXPECT_FALSE(first.has_value());
            EXPECT_FALSE(reader.nextLine().has_value());
            EXPECT_TRUE(reader.overflowed());
        }
    }
}

// ---------------------------------------------------------------------------
// Line framing

TEST(ServeLineReader, ReassemblesLinesFedByteByByte)
{
    LineReader reader;
    const std::string stream = "first\nsecond\r\ntail";
    std::vector<std::string> lines;
    for (const char c : stream) {
        reader.feed(&c, 1);
        while (const auto line = reader.nextLine())
            lines.push_back(*line);
    }
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "first");
    EXPECT_EQ(lines[1], "second"); // \r stripped
    // The unterminated tail stays buffered until its newline arrives.
    EXPECT_FALSE(reader.nextLine().has_value());
    reader.feed("\n", 1);
    const auto tail = reader.nextLine();
    ASSERT_TRUE(tail.has_value());
    EXPECT_EQ(*tail, "tail");
}

TEST(ServeLineReader, LineOverTheCapStopsTheReaderWithoutItsNewline)
{
    // A peer that never sends a newline is cut off once it has sent one
    // byte more than a line may hold: the buffer does not keep growing.
    LineReader reader(8);
    reader.feed("12345678", 8);
    EXPECT_FALSE(reader.nextLine().has_value());
    EXPECT_FALSE(reader.overflowed()); // may still end at 8 bytes
    reader.feed("\n", 1);
    EXPECT_EQ(reader.nextLine().value_or("?"), "12345678");
    reader.feed("123456789", 9);
    EXPECT_FALSE(reader.nextLine().has_value());
    EXPECT_TRUE(reader.overflowed());
    reader.feed("\nok\n", 4);
    EXPECT_FALSE(reader.nextLine().has_value());

    // The daemon's readers default to the shared cap.
    LineReader wide;
    const std::string longest(kMaxLineBytes, 'x');
    wide.feed(longest.data(), longest.size());
    wide.feed("\n", 1);
    EXPECT_EQ(wide.nextLine().value_or("").size(), kMaxLineBytes);
    wide.feed(longest.data(), longest.size());
    wide.feed("y", 1);
    EXPECT_FALSE(wide.nextLine().has_value());
    EXPECT_TRUE(wide.overflowed());
}

TEST(ServeLineReader, DrainsMultipleLinesFromOneFeed)
{
    LineReader reader;
    const std::string chunk = "a\n\nbb\nccc";
    reader.feed(chunk.data(), chunk.size());
    EXPECT_EQ(reader.nextLine().value_or("?"), "a");
    EXPECT_EQ(reader.nextLine().value_or("?"), ""); // empty line kept
    EXPECT_EQ(reader.nextLine().value_or("?"), "bb");
    EXPECT_FALSE(reader.nextLine().has_value());
}

// ---------------------------------------------------------------------------
// Worker supervision

namespace
{

/** Collects supervisor callbacks under a lock. */
struct SupervisorLog
{
    std::mutex lock;
    std::vector<std::string> lines;
    std::vector<pid_t> spawns;
    unsigned crashes = 0;

    SupervisorHooks
    hooks()
    {
        SupervisorHooks h;
        h.onLine = [this](std::size_t, const std::string &line) {
            std::lock_guard<std::mutex> guard(lock);
            lines.push_back(line);
        };
        h.onSpawn = [this](std::size_t, pid_t pid) {
            std::lock_guard<std::mutex> guard(lock);
            spawns.push_back(pid);
        };
        h.onCrash = [this](std::size_t, int, bool) {
            std::lock_guard<std::mutex> guard(lock);
            ++crashes;
        };
        return h;
    }
};

/** Stand-in workers: `/bin/sh -c <script>`, which reads its batch
 *  lines on stdin like a serve-worker. */
WorkerSupervisor
shellWorkers(const std::string &script, std::size_t slots,
             unsigned maxRestarts)
{
    return WorkerSupervisor({"/bin/sh", "-c", script}, slots, maxRestarts);
}

/** The same line for each slot, on every ask: `lines[k]` for slot k. */
WorkerSupervisor::LineFn
fixedLines(std::vector<std::string> lines)
{
    return [lines = std::move(lines)](std::size_t k) { return lines[k]; };
}

/** The shard-done line, as a shell script prints it. */
std::string
shardDone()
{
    return renderShardDone();
}

std::string
echoShardDone()
{
    return "echo '" + shardDone() + "'";
}

/** Gone and reaped: not even a zombie answers kill(pid, 0). */
bool
reaped(pid_t pid)
{
    return ::kill(pid, 0) != 0 && errno == ESRCH;
}

} // namespace

TEST(ServeSupervisor, CrashingWorkerIsRestartedOnceAndFinishes)
{
    TempPath dir("critics-serve-sup");
    std::filesystem::create_directories(dir.str());
    const std::string marker = dir.str() + "/attempted";
    // First life: print a truncated line (no newline) and die by
    // "crash".  Second life: see the marker, echo the batch line it
    // was sent — a fresh one, asked for after the crash — and finish
    // the batch cleanly.
    const std::string script =
        "while read -r line; do "
        "if [ -e " + marker + " ]; then echo \"done-line $line\"; " +
        echoShardDone() + "; "
        "else touch " + marker + "; printf half-a-line; exit 7; fi; "
        "done";

    SupervisorLog log;
    auto supervisor = shellWorkers(script, 1, /*maxRestarts=*/2);
    unsigned asked = 0;
    const auto result = supervisor.runBatch(
        [&](std::size_t) { return "batch-" + std::to_string(++asked); },
        log.hooks());

    EXPECT_TRUE(result.allOk);
    EXPECT_EQ(result.restarts, 1u);
    ASSERT_EQ(result.workerOk.size(), 1u);
    EXPECT_TRUE(result.workerOk[0]);
    EXPECT_EQ(log.crashes, 1u);
    EXPECT_EQ(log.spawns.size(), 2u);
    // The respawn asked for the slot's line again and the second life
    // got the fresh one; the pre-crash truncated tail was dropped, not
    // glued onto its output.
    EXPECT_EQ(asked, 2u);
    const std::vector<std::string> expected = {"done-line batch-2",
                                               shardDone()};
    EXPECT_EQ(log.lines, expected);
}

TEST(ServeSupervisor, ExhaustedRestartBudgetDegradesNotWedges)
{
    SupervisorLog log;
    // Slot 0's line can never succeed; slot 1's finishes at once.  The
    // pool must still drain and report per-slot verdicts.
    auto supervisor = shellWorkers(
        "while read -r line; do [ \"$line\" = fail ] && exit 3; "
        "echo healthy; " + echoShardDone() + "; done",
        2, /*maxRestarts=*/1);
    const auto result =
        supervisor.runBatch(fixedLines({"fail", "ok"}), log.hooks());

    EXPECT_FALSE(result.allOk);
    EXPECT_EQ(result.restarts, 1u); // the whole budget, no more
    ASSERT_EQ(result.workerOk.size(), 2u);
    EXPECT_FALSE(result.workerOk[0]);
    EXPECT_TRUE(result.workerOk[1]);
    EXPECT_EQ(log.crashes, 2u); // first life + the one respawn
    const std::vector<std::string> expected = {"healthy", shardDone()};
    EXPECT_EQ(log.lines, expected);
}

TEST(ServeSupervisor, SignalDeathCountsAsACrash)
{
    SupervisorLog log;
    auto supervisor =
        shellWorkers("read -r line; kill -9 $$", 1, /*maxRestarts=*/0);
    const auto result =
        supervisor.runBatch(fixedLines({"batch"}), log.hooks());
    EXPECT_FALSE(result.allOk);
    EXPECT_EQ(result.restarts, 0u);
    EXPECT_EQ(log.crashes, 1u);
}

TEST(ServeSupervisor, WorkersOutliveBatchesAndIdleDeathCostsOneRespawn)
{
    const std::string script = "while read -r line; do echo \"$$ $line\"; " +
                               echoShardDone() + "; done";
    std::vector<pid_t> pids;
    {
        auto supervisor = shellWorkers(script, 2, /*maxRestarts=*/1);
        SupervisorLog first, second, third;
        // Slot 1 sits the first batch out: nothing is spawned for it.
        ASSERT_TRUE(
            supervisor.runBatch(fixedLines({"a", ""}), first.hooks()).allOk);
        ASSERT_EQ(first.spawns.size(), 1u);
        EXPECT_EQ(supervisor.pids()[1], -1);
        const pid_t worker = supervisor.pids()[0];
        EXPECT_EQ(first.lines[0], std::to_string(worker) + " a");

        // The same process answers the next batch.
        auto result =
            supervisor.runBatch(fixedLines({"b", "c"}), second.hooks());
        ASSERT_TRUE(result.allOk);
        EXPECT_EQ(result.restarts, 0u);
        EXPECT_EQ(supervisor.pids()[0], worker);
        EXPECT_EQ(second.spawns.size(), 1u); // slot 1's first spawn
        EXPECT_EQ(second.crashes, 0u);

        // Killed while idle: the next batch finds out, respawns it once
        // and still finishes.
        ASSERT_EQ(::kill(worker, SIGKILL), 0);
        result =
            supervisor.runBatch(fixedLines({"d", ""}), third.hooks());
        EXPECT_TRUE(result.allOk);
        EXPECT_EQ(result.restarts, 1u);
        EXPECT_EQ(third.crashes, 1u);
        ASSERT_EQ(third.spawns.size(), 1u);
        EXPECT_NE(supervisor.pids()[0], worker);
        EXPECT_EQ(third.lines[0],
                  std::to_string(supervisor.pids()[0]) + " d");
        pids = supervisor.pids();
    }
    // Destroying the supervisor closed their stdin and reaped them.
    for (const pid_t pid : pids)
        EXPECT_TRUE(reaped(pid)) << pid;
}

TEST(ServeSupervisor, OverlongStdoutLineIsACrash)
{
    TempPath dir("critics-serve-overlong");
    std::filesystem::create_directories(dir.str());
    const std::string marker = dir.str() + "/flooded";
    // First life: one line a byte over the cap, and the worker keeps
    // running; it is killed for it.  Second life: a clean batch.
    const std::string script =
        "while read -r line; do "
        "if [ -e " + marker + " ]; then " + echoShardDone() + "; "
        "else touch " + marker + "; head -c " +
        std::to_string(kMaxLineBytes + 1) + " /dev/zero | tr '\\0' x; "
        "echo; read -r never; fi; done";
    SupervisorLog log;
    auto supervisor = shellWorkers(script, 1, /*maxRestarts=*/1);
    const auto result =
        supervisor.runBatch(fixedLines({"batch"}), log.hooks());
    EXPECT_TRUE(result.allOk);
    EXPECT_EQ(result.restarts, 1u);
    EXPECT_EQ(log.crashes, 1u);
    const std::vector<std::string> expected = {shardDone()};
    EXPECT_EQ(log.lines, expected);
}

// ---------------------------------------------------------------------------
// Daemon end to end (real serve-worker children, real TCP)

TEST(ServeServer, ColdSubmitWarmResubmitReplayAndShutdown)
{
    setQuiet(true);
    TempPath dir("critics-serve-e2e");
    std::filesystem::create_directories(dir.str());

    ServerOptions options;
    options.workerExe = CRITICS_CLI;
    options.cachePath = dir.str() + "/results.jsonl";
    options.portFile = dir.str() + "/port";
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ASSERT_GT(server.port(), 0);
    {
        std::ifstream in(options.portFile);
        unsigned published = 0;
        in >> published;
        EXPECT_EQ(published, server.port());
    }

    ServeClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error))
        << error;

    // Liveness.
    ASSERT_TRUE(client.sendLine("{\"op\":\"ping\"}"));
    auto reply = parsedReply(client.readLine(5000));
    ASSERT_TRUE(reply.has_value());
    EXPECT_TRUE(boolField(*reply, "ok"));

    // Cold submit: a 1-app × 2-variant grid, nothing in the store yet.
    Request submit;
    submit.op = Request::Op::Submit;
    submit.submit.batch = "e2e";
    submit.submit.apps = "Acrobat";
    submit.submit.variants = "baseline,critic";
    submit.submit.insts = 20000;
    ASSERT_TRUE(client.sendLine(renderRequest(submit)));
    reply = parsedReply(client.readLine(30000));
    ASSERT_TRUE(reply.has_value());
    ASSERT_TRUE(boolField(*reply, "ok")) << stringField(*reply, "error");
    const std::string coldJob = stringField(*reply, "job");
    EXPECT_FALSE(coldJob.empty());
    EXPECT_EQ(uintField(*reply, "total"), 2u);
    EXPECT_EQ(uintField(*reply, "warm"), 0u);
    EXPECT_EQ(uintField(*reply, "cold"), 2u);

    // Stream it to completion: two live job events, then the done
    // marker with the final tallies.
    auto streamToDone = [&](ServeClient &c, const std::string &jobId,
                            unsigned *jobEvents,
                            unsigned *cacheEvents) -> json::JsonValue {
        Request wait;
        wait.op = Request::Op::Wait;
        wait.job = jobId;
        EXPECT_TRUE(c.sendLine(renderRequest(wait)));
        *jobEvents = 0;
        *cacheEvents = 0;
        for (;;) {
            const auto line = c.readLine(120000);
            if (!line) {
                ADD_FAILURE() << "stream ended before done marker";
                return json::JsonValue();
            }
            if (const auto event = parseJobEvent(*line)) {
                EXPECT_TRUE(event->ok) << event->error;
                ++*jobEvents;
                *cacheEvents += event->fromCache ? 1 : 0;
                continue;
            }
            const auto doc = parsedReply(line);
            if (doc && stringField(*doc, "event") == "done")
                return *doc;
        }
    };

    unsigned jobEvents = 0, cacheEvents = 0;
    auto done = streamToDone(client, coldJob, &jobEvents, &cacheEvents);
    EXPECT_EQ(jobEvents, 2u);
    EXPECT_EQ(cacheEvents, 0u);
    EXPECT_EQ(stringField(done, "state"), "done");
    EXPECT_EQ(uintField(done, "simulated"), 2u);
    EXPECT_EQ(uintField(done, "failed"), 0u);
    EXPECT_EQ(server.simulated(), 2u);
    EXPECT_EQ(server.warmHits(), 0u);

    // Warm resubmit of the identical grid: answered straight from the
    // store at submit time — zero cold jobs, zero new simulations.
    ASSERT_TRUE(client.sendLine(renderRequest(submit)));
    reply = parsedReply(client.readLine(30000));
    ASSERT_TRUE(reply.has_value());
    ASSERT_TRUE(boolField(*reply, "ok"));
    const std::string warmJob = stringField(*reply, "job");
    EXPECT_NE(warmJob, coldJob);
    EXPECT_EQ(uintField(*reply, "warm"), 2u);
    EXPECT_EQ(uintField(*reply, "cold"), 0u);
    done = streamToDone(client, warmJob, &jobEvents, &cacheEvents);
    EXPECT_EQ(jobEvents, 2u);
    EXPECT_EQ(cacheEvents, 2u); // every event marked from-cache
    EXPECT_EQ(uintField(done, "simulated"), 0u);
    EXPECT_EQ(server.warmHits(), 2u);
    EXPECT_EQ(server.simulated(), 2u); // unchanged
    EXPECT_EQ(server.failedJobs(), 0u);

    // Unknown job ids are an error reply, not a hang.
    ASSERT_TRUE(
        client.sendLine("{\"op\":\"status\",\"job\":\"serve-999\"}"));
    reply = parsedReply(client.readLine(5000));
    ASSERT_TRUE(reply.has_value());
    EXPECT_FALSE(boolField(*reply, "ok"));

    // A disconnect loses nothing: a brand-new connection replays the
    // cold batch's full event log from its status record.
    client.close();
    ServeClient late;
    ASSERT_TRUE(late.connect("127.0.0.1", server.port(), &error))
        << error;
    Request status;
    status.op = Request::Op::Status;
    status.job = coldJob;
    ASSERT_TRUE(late.sendLine(renderRequest(status)));
    reply = parsedReply(late.readLine(5000));
    ASSERT_TRUE(reply.has_value());
    EXPECT_TRUE(boolField(*reply, "ok"));
    EXPECT_EQ(stringField(*reply, "state"), "done");
    EXPECT_EQ(uintField(*reply, "events"), 2u);
    EXPECT_EQ(uintField(*reply, "total"), 2u);

    // Protocol-initiated shutdown: the daemon acknowledges, drains and
    // wait() returns.
    ASSERT_TRUE(late.sendLine("{\"op\":\"shutdown\"}"));
    reply = parsedReply(late.readLine(5000));
    ASSERT_TRUE(reply.has_value());
    EXPECT_TRUE(boolField(*reply, "ok"));
    server.wait();
}

namespace
{

/** Submit `submit` and follow it to its done line, which lands in
 *  *done; returns the job id ("" on any protocol failure). */
std::string
submitAndWait(ServeClient &client, const SubmitRequest &submit,
              json::JsonValue *done)
{
    Request request;
    request.op = Request::Op::Submit;
    request.submit = submit;
    if (!client.sendLine(renderRequest(request)))
        return "";
    const auto ack = parsedReply(client.readLine(120000));
    if (!ack || !boolField(*ack, "ok"))
        return "";
    Request wait;
    wait.op = Request::Op::Wait;
    wait.job = stringField(*ack, "job");
    if (!client.sendLine(renderRequest(wait)))
        return "";
    for (;;) {
        const auto doc = parsedReply(client.readLine(120000));
        if (!doc)
            return "";
        if (stringField(*doc, "event") == "done") {
            *done = *doc;
            return wait.job;
        }
    }
}

/** The worker pids a batch's status lists. */
std::vector<pid_t>
statusPids(ServeClient &client, const std::string &job)
{
    Request status;
    status.op = Request::Op::Status;
    status.job = job;
    std::vector<pid_t> pids;
    if (!client.sendLine(renderRequest(status)))
        return pids;
    const auto reply = parsedReply(client.readLine(5000));
    const auto *list = reply ? reply->find("pids") : nullptr;
    if (list == nullptr)
        return pids;
    for (const auto &pid : list->elements)
        pids.push_back(std::stoi(pid.asString().value_or("0")));
    return pids;
}

SubmitRequest
grid(const std::string &apps, const std::string &variants)
{
    SubmitRequest submit;
    submit.batch = "e2e";
    submit.apps = apps;
    submit.variants = variants;
    submit.insts = 20000;
    return submit;
}

/** The names of the spans a trace holds for one batch's trace id. */
std::multiset<std::string>
spanNames(const stats::TraceEventWriter &trace, const std::string &traceId)
{
    std::multiset<std::string> names;
    const auto doc = json::parseJson(trace.toJson());
    const auto *events = doc ? doc->find("traceEvents") : nullptr;
    if (events == nullptr)
        return names;
    for (const auto &event : events->elements) {
        const auto *args = event.find("args");
        const auto *id = args ? args->find("trace") : nullptr;
        if (id != nullptr && id->asString() == traceId)
            names.insert(stringField(event, "name"));
    }
    return names;
}

std::string
traceOf(ServeClient &client, const std::string &job)
{
    Request status;
    status.op = Request::Op::Status;
    status.job = job;
    if (!client.sendLine(renderRequest(status)))
        return "";
    const auto reply = parsedReply(client.readLine(5000));
    return reply ? stringField(*reply, "trace") : "";
}

/** The record `store` holds for `app`/`variant` at grid()'s insts
 *  must equal a direct Runner run's (the Runner's store goes under
 *  `dir`). */
void
expectServedMatchesDirect(const std::string &store, const std::string &dir,
                          const std::string &app, const std::string &variant)
{
    runner::RunnerOptions direct;
    direct.cachePath = dir + "/direct/results.jsonl";
    direct.progress = false;
    direct.writeManifest = false;
    sim::ExperimentOptions expOptions;
    expOptions.traceInsts = grid(app, variant).insts;
    const auto jobs = runner::makeGrid(*sim::tryParseApps(app),
                                       *sim::tryParseVariants(variant),
                                       expOptions);
    const auto batch = runner::Runner(direct).run("direct", jobs);
    ASSERT_TRUE(batch.allOk());
    bool found = false;
    for (const auto &record : runner::readResultRecords(store)) {
        if (record.hash != jobs[0].hashHex())
            continue;
        found = true;
        EXPECT_EQ(record.spec, jobs[0].specString());
        EXPECT_EQ(sim::toJson(record.result), sim::toJson(batch.result(0)));
    }
    EXPECT_TRUE(found) << app << "/" << variant << " was not served";
}

} // namespace

TEST(ServeServer, WarmRoundTripsAreNotHeldForDelayedAcks)
{
    // A warm batch's events and its done line are all ready at once.
    // Sent as separate small segments without TCP_NODELAY, Nagle holds
    // the second until the client's delayed ACK (~40 ms on Linux), so
    // each submit+wait round trip cost 40 ms; now it costs about one.
    setQuiet(true);
    TempPath dir("critics-serve-nagle");
    std::filesystem::create_directories(dir.str());
    ServerOptions options;
    options.workers = 1;
    options.workerExe = CRITICS_CLI;
    options.cachePath = dir.str() + "/results.jsonl";
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ServeClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error))
        << error;

    SubmitRequest submit = grid("Acrobat", "baseline,critic,opp16,efetch");
    submit.insts = 5000;
    auto roundTrip = [&]() {
        json::JsonValue done;
        return !submitAndWait(client, submit, &done).empty() &&
               stringField(done, "state") == "done";
    };
    ASSERT_TRUE(roundTrip()); // cold: fills the store

    constexpr int kTrips = 20;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kTrips; ++i)
        ASSERT_TRUE(roundTrip()) << "round trip " << i;
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    EXPECT_EQ(server.warmHits(), 4u * kTrips);
    EXPECT_LT(ms, kTrips * 40.0 / 2) << "20 warm round trips took " << ms
                                     << " ms";

    server.requestShutdown();
    server.wait();
}

TEST(ServeServer, WarmWorkerKeepsItsPidAndExperimentAcrossBatches)
{
    // Two batches of one app at one insts run in the same worker
    // process, and the second reuses the first's experiment: its trace
    // has job spans but no synth or emit span.  The job it served
    // gives the same record as a direct run.
    setQuiet(true);
    TempPath dir("critics-serve-warm-worker");
    std::filesystem::create_directories(dir.str());
    stats::TraceEventWriter trace;
    ServerOptions options;
    options.workers = 1;
    options.workerExe = CRITICS_CLI;
    options.cachePath = dir.str() + "/results.jsonl";
    options.trace = &trace;
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ServeClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error))
        << error;

    json::JsonValue done;
    const std::string first =
        submitAndWait(client, grid("Acrobat", "baseline,critic"), &done);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(uintField(done, "simulated"), 2u);
    const std::string second =
        submitAndWait(client, grid("Acrobat", "hoist,efetch"), &done);
    ASSERT_FALSE(second.empty());
    EXPECT_EQ(uintField(done, "simulated"), 2u);
    EXPECT_EQ(uintField(done, "failed"), 0u);

    const auto pids = statusPids(client, first);
    ASSERT_EQ(pids.size(), 1u);
    EXPECT_EQ(statusPids(client, second), pids);

    const auto cold = spanNames(trace, traceOf(client, first));
    const auto warm = spanNames(trace, traceOf(client, second));
    EXPECT_EQ(cold.count("synth"), 1u);
    EXPECT_EQ(cold.count("emit"), 1u);
    EXPECT_EQ(warm.count("Acrobat/hoist"), 1u);
    EXPECT_EQ(warm.count("Acrobat/efetch"), 1u);
    EXPECT_EQ(warm.count("synth"), 0u);
    EXPECT_EQ(warm.count("emit"), 0u);

    expectServedMatchesDirect(options.cachePath, dir.str(), "Acrobat",
                              "hoist");

    server.requestShutdown();
    server.wait();
}

TEST(ServeServer, WarmWorkerReusesItsExperimentForEveryGridOfItsKey)
{
    // Three cold grids of one key, two transformed variants each, run
    // in one worker process on one experiment: the worker drops the
    // transformed traces after each batch instead of the experiment, so
    // batches 2 and 3 have job spans but no synth or emit span.
    setQuiet(true);
    TempPath dir("critics-serve-reuse");
    std::filesystem::create_directories(dir.str());
    stats::TraceEventWriter trace;
    ServerOptions options;
    options.workers = 1;
    options.workerExe = CRITICS_CLI;
    options.cachePath = dir.str() + "/results.jsonl";
    options.trace = &trace;
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ServeClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error))
        << error;

    const std::vector<std::pair<std::string, std::string>> grids = {
        {"critic", "hoist"},
        {"opp16", "compress"},
        {"critic-ideal", "opp16+critic"}};
    std::vector<std::string> batches;
    for (const auto &[a, b] : grids) {
        json::JsonValue done;
        batches.push_back(
            submitAndWait(client, grid("Acrobat", a + "," + b), &done));
        ASSERT_FALSE(batches.back().empty()) << a << "," << b;
        EXPECT_EQ(uintField(done, "simulated"), 2u) << a << "," << b;
        EXPECT_EQ(uintField(done, "failed"), 0u) << a << "," << b;
    }

    const auto pids = statusPids(client, batches[0]);
    ASSERT_EQ(pids.size(), 1u);
    const auto cold = spanNames(trace, traceOf(client, batches[0]));
    EXPECT_EQ(cold.count("synth"), 1u);
    EXPECT_EQ(cold.count("emit"), 1u);
    for (std::size_t i = 1; i < batches.size(); ++i) {
        EXPECT_EQ(statusPids(client, batches[i]), pids) << "batch " << i;
        const auto warm = spanNames(trace, traceOf(client, batches[i]));
        EXPECT_EQ(warm.count("Acrobat/" + grids[i].first), 1u);
        EXPECT_EQ(warm.count("Acrobat/" + grids[i].second), 1u);
        EXPECT_EQ(warm.count("synth"), 0u) << "batch " << i;
        EXPECT_EQ(warm.count("emit"), 0u) << "batch " << i;
    }

    expectServedMatchesDirect(options.cachePath, dir.str(), "Acrobat",
                              "opp16+critic");

    server.requestShutdown();
    server.wait();
}

TEST(ServeServer, KillingAnIdleWorkerCostsOneRespawnAndNoFailedJob)
{
    setQuiet(true);
    TempPath dir("critics-serve-idle-kill");
    std::filesystem::create_directories(dir.str());
    ServerOptions options;
    options.workers = 1;
    options.workerExe = CRITICS_CLI;
    options.cachePath = dir.str() + "/results.jsonl";
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ServeClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error))
        << error;

    json::JsonValue done;
    const std::string first =
        submitAndWait(client, grid("Office", "baseline"), &done);
    ASSERT_FALSE(first.empty());
    const auto before = statusPids(client, first);
    ASSERT_EQ(before.size(), 1u);
    ASSERT_EQ(::kill(before[0], SIGKILL), 0);

    const std::string second =
        submitAndWait(client, grid("Office", "critic,opp16"), &done);
    ASSERT_FALSE(second.empty());
    EXPECT_EQ(stringField(done, "state"), "done");
    EXPECT_EQ(uintField(done, "simulated"), 2u);
    EXPECT_EQ(uintField(done, "failed"), 0u);
    EXPECT_EQ(server.workerRestarts(), 1u);
    EXPECT_EQ(server.failedJobs(), 0u);
    const auto after = statusPids(client, second);
    ASSERT_EQ(after.size(), 1u);
    EXPECT_NE(after[0], before[0]);

    server.requestShutdown();
    server.wait();
}

TEST(ServeServer, DrainReapsEveryWorker)
{
    setQuiet(true);
    TempPath dir("critics-serve-reap");
    std::filesystem::create_directories(dir.str());
    ServerOptions options;
    options.workers = 2;
    options.workerExe = CRITICS_CLI;
    options.cachePath = dir.str() + "/results.jsonl";
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ServeClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error))
        << error;
    json::JsonValue done;
    const std::string job = submitAndWait(
        client, grid("Acrobat,Office", "baseline,efetch"), &done);
    ASSERT_FALSE(job.empty());
    const auto pids = statusPids(client, job);
    ASSERT_EQ(pids.size(), 2u); // both shards had work
    for (const pid_t pid : pids)
        EXPECT_EQ(::kill(pid, 0), 0) << "worker " << pid << " idles";

    server.requestShutdown(); // what SIGTERM does
    server.wait();
    for (const pid_t pid : pids)
        EXPECT_TRUE(reaped(pid)) << "worker " << pid << " outlived";
}

TEST(ServeServer, ConnectionsPastTheCapAreRefusedWithAReason)
{
    setQuiet(true);
    TempPath dir("critics-serve-conn-cap");
    std::filesystem::create_directories(dir.str());
    ServerOptions options;
    options.workerExe = CRITICS_CLI;
    options.cachePath = dir.str() + "/results.jsonl";
    options.maxClients = 2;
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    auto ping = [](ServeClient &c) {
        if (!c.sendLine("{\"op\":\"ping\"}"))
            return false;
        const auto reply = parsedReply(c.readLine(5000));
        return reply && boolField(*reply, "ok");
    };
    ServeClient a, b, c;
    ASSERT_TRUE(a.connect("127.0.0.1", server.port(), &error)) << error;
    ASSERT_TRUE(b.connect("127.0.0.1", server.port(), &error)) << error;
    EXPECT_TRUE(ping(a));
    EXPECT_TRUE(ping(b));

    // The third is told why, then closed.
    ASSERT_TRUE(c.connect("127.0.0.1", server.port(), &error)) << error;
    const auto refusal = parsedReply(c.readLine(5000));
    ASSERT_TRUE(refusal.has_value());
    EXPECT_FALSE(boolField(*refusal, "ok"));
    EXPECT_NE(stringField(*refusal, "error").find("at most 2"),
              std::string::npos);
    EXPECT_FALSE(c.readLine(5000).has_value());
    EXPECT_FALSE(c.connected());

    // A slot frees when a client leaves.
    a.close();
    bool admitted = false;
    for (int attempt = 0; attempt < 50 && !admitted; ++attempt) {
        ServeClient d;
        admitted = d.connect("127.0.0.1", server.port(), &error) && ping(d);
        if (!admitted)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(admitted);
    EXPECT_TRUE(ping(b));

    server.requestShutdown();
    server.wait();
}

TEST(ServeServer, OverlongRequestLineGetsAReasonThenTheConnectionCloses)
{
    setQuiet(true);
    TempPath dir("critics-serve-line-cap");
    std::filesystem::create_directories(dir.str());
    ServerOptions options;
    options.workerExe = CRITICS_CLI;
    options.cachePath = dir.str() + "/results.jsonl";
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServeClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error))
        << error;
    // One byte over the cap.
    ASSERT_TRUE(client.sendLine(std::string(kMaxLineBytes + 1, ' ')));
    const auto reply = parsedReply(client.readLine(10000));
    ASSERT_TRUE(reply.has_value());
    EXPECT_FALSE(boolField(*reply, "ok"));
    EXPECT_NE(stringField(*reply, "error").find("longer than"),
              std::string::npos);
    EXPECT_FALSE(client.readLine(10000).has_value());

    // The daemon itself is fine.
    ServeClient next;
    ASSERT_TRUE(next.connect("127.0.0.1", server.port(), &error)) << error;
    ASSERT_TRUE(next.sendLine("{\"op\":\"ping\"}"));
    const auto pong = parsedReply(next.readLine(5000));
    ASSERT_TRUE(pong.has_value());
    EXPECT_TRUE(boolField(*pong, "ok"));

    server.requestShutdown();
    server.wait();
}

TEST(ServeServer, StartRefusesZeroWorkersOrMissingExe)
{
    // Cold jobs run only in serve-worker children, so a server that
    // could start none is refused before it binds or writes its port.
    TempPath dir("critics-serve-refuse");
    std::filesystem::create_directories(dir.str());
    ServerOptions noWorkers;
    noWorkers.workers = 0;
    noWorkers.workerExe = CRITICS_CLI;
    ServerOptions noExe; // workerExe left empty
    for (ServerOptions options : {noWorkers, noExe}) {
        options.cachePath = dir.str() + "/results.jsonl";
        options.portFile = dir.str() + "/port";
        Server server(options);
        std::string error;
        EXPECT_FALSE(server.start(&error));
        EXPECT_FALSE(error.empty());
        EXPECT_EQ(server.port(), 0);
        EXPECT_FALSE(std::filesystem::exists(options.portFile));
    }
}

TEST(ServeServer, SubmitWithUnknownVocabularyFailsFast)
{
    setQuiet(true);
    TempPath dir("critics-serve-vocab");
    std::filesystem::create_directories(dir.str());
    ServerOptions options;
    options.workerExe = CRITICS_CLI;
    options.cachePath = dir.str() + "/results.jsonl";
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServeClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error))
        << error;
    for (const char *line :
         {"{\"op\":\"submit\",\"apps\":\"NoSuchApp\"}",
          "{\"op\":\"submit\",\"variants\":\"warp-drive\"}"}) {
        ASSERT_TRUE(client.sendLine(line));
        const auto reply = parsedReply(client.readLine(5000));
        ASSERT_TRUE(reply.has_value()) << line;
        EXPECT_FALSE(boolField(*reply, "ok")) << line;
        EXPECT_FALSE(stringField(*reply, "error").empty()) << line;
    }
    // Rejection is stateless: the daemon still answers.
    ASSERT_TRUE(client.sendLine("{\"op\":\"ping\"}"));
    const auto reply = parsedReply(client.readLine(5000));
    ASSERT_TRUE(reply.has_value());
    EXPECT_TRUE(boolField(*reply, "ok"));

    server.requestShutdown();
    server.wait();
}
