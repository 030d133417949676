/**
 * @file
 * The serve subsystem without a terminal in the loop: wire-format
 * round-trips and rejection of malformed input, LineReader framing
 * under adversarial byte arrival, the worker supervisor's bounded
 * restart state machine (driven by /bin/sh stand-in workers, no
 * simulator needed), seeded mutations of request lines and of the
 * worker stdout channel's lines, and an end-to-end daemon exercise
 * over a real TCP socket with real serve-worker children — cold
 * submit streamed to completion, warm resubmit answered entirely from
 * the store, event-log replay after a client disconnect, and a
 * protocol-initiated shutdown drain.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "obs/span.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/supervisor.hh"
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

} // namespace

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

TEST(ServeProtocol, ShardDoneRoundTripsAndKindsDoNotCross)
{
    ShardDone done;
    done.failed = 3;
    done.total = 17;
    const std::string doneLine = renderShardDone(done);
    const auto back = parseShardDone(doneLine);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->failed, 3u);
    EXPECT_EQ(back->total, 17u);

    JobEvent event;
    event.hash = "beef";
    const std::string eventLine = renderJobEvent(event);
    // A parser only accepts its own event kind.
    EXPECT_FALSE(parseJobEvent(doneLine).has_value());
    EXPECT_FALSE(parseShardDone(eventLine).has_value());
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

TEST(ServeProtocol, MutatedChannelLinesRoundTripOrAreRejected)
{
    // A worker's stdout carries span, job-event and shard-done lines.
    // Seeded byte flips, truncations and inserted quotes or braces in
    // each kind: a mutated line is refused, or it decodes as one kind
    // only and the decoded value re-renders to a line that parses back
    // equal — what its bytes encode, nothing half-read.
    obs::SpanRecord span;
    span.name = "Acrobat/critic";
    span.category = "job";
    span.startUs = 123456789;
    span.durUs = 250000;
    span.tid = 3;
    JobEvent simulated;
    simulated.hash = "9f86d081884c7d65";
    simulated.app = "Acrobat";
    simulated.variant = "critic";
    simulated.ok = true;
    simulated.wallSeconds = 12.25;
    JobEvent failed = simulated;
    failed.ok = false;
    failed.wallSeconds = 0.0;
    failed.error = "simulator said \"no\"";
    ShardDone done;
    done.failed = 1;
    done.total = 17;
    const std::vector<std::string> good = {
        obs::renderSpanEvent(span, "5af3-serve-1"),
        renderJobEvent(simulated), renderJobEvent(failed),
        renderShardDone(done)};

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
        const auto b = parseJobEvent(renderJobEvent(a));
        ASSERT_TRUE(b.has_value());
        EXPECT_EQ(b->hash, a.hash);
        EXPECT_EQ(b->app, a.app);
        EXPECT_EQ(b->variant, a.variant);
        EXPECT_EQ(b->ok, a.ok);
        EXPECT_EQ(b->fromCache, a.fromCache);
        EXPECT_EQ(b->wallSeconds, a.wallSeconds);
        EXPECT_EQ(b->error, a.error);
    };
    auto doneReparses = [](const ShardDone &a) {
        const auto b = parseShardDone(renderShardDone(a));
        ASSERT_TRUE(b.has_value());
        EXPECT_EQ(b->failed, a.failed);
        EXPECT_EQ(b->total, a.total);
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
        const auto asEvent = parseJobEvent(line);
        const auto asDone = parseShardDone(line);
        const int kinds = asSpan.has_value() + asEvent.has_value() +
                          asDone.has_value();
        EXPECT_LE(kinds, 1);
        if (asSpan)
            spanReparses(*asSpan, traceId);
        if (asEvent)
            eventReparses(*asEvent);
        if (asDone)
            doneReparses(*asDone);
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
    // through a LineReader in random-sized chunks.  The reader must
    // hand back exactly the newline-separated pieces of what was fed,
    // and each piece is refused by parseRequest, or it decodes to a
    // request whose rendering parses back equal.
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
        for (std::size_t start = 0; start < wire.size();) {
            const std::size_t end = wire.find('\n', start);
            std::string piece = wire.substr(start, end - start);
            if (!piece.empty() && piece.back() == '\r')
                piece.pop_back();
            expected.push_back(piece);
            start = end + 1;
        }
        LineReader reader;
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

/** Collects supervisor callbacks under a lock (they arrive from the
 *  supervisor's poll loop while the test thread owns run()). */
struct SupervisorLog
{
    std::mutex lock;
    std::vector<std::string> lines;
    std::vector<pid_t> spawns;
    unsigned crashes = 0;

    SupervisorOptions
    options(unsigned maxRestarts)
    {
        SupervisorOptions o;
        o.maxRestarts = maxRestarts;
        o.onLine = [this](std::size_t, const std::string &line) {
            std::lock_guard<std::mutex> guard(lock);
            lines.push_back(line);
        };
        o.onSpawn = [this](std::size_t, pid_t pid) {
            std::lock_guard<std::mutex> guard(lock);
            spawns.push_back(pid);
        };
        o.onCrash = [this](std::size_t, int, bool) {
            std::lock_guard<std::mutex> guard(lock);
            ++crashes;
        };
        return o;
    }
};

std::vector<std::string>
shellWorker(const std::string &script)
{
    return {"/bin/sh", "-c", script};
}

} // namespace

TEST(ServeSupervisor, CrashingWorkerIsRestartedOnceAndFinishes)
{
    TempPath dir("critics-serve-sup");
    std::filesystem::create_directories(dir.str());
    const std::string marker = dir.str() + "/attempted";
    // First life: print a truncated line (no newline) and die by
    // "crash".  Second life: see the marker and finish cleanly.
    const std::string script =
        "if [ -e " + marker + " ]; then echo done-line; exit 0; "
        "else touch " + marker + "; printf half-a-line; exit 7; fi";

    SupervisorLog log;
    WorkerSupervisor supervisor(log.options(/*maxRestarts=*/2));
    const auto result = supervisor.run({shellWorker(script)});

    EXPECT_TRUE(result.allOk);
    EXPECT_EQ(result.restarts, 1u);
    ASSERT_EQ(result.workerOk.size(), 1u);
    EXPECT_TRUE(result.workerOk[0]);
    EXPECT_EQ(log.crashes, 1u);
    EXPECT_EQ(log.spawns.size(), 2u);
    // The pre-crash truncated tail was dropped, not glued onto the
    // respawned worker's output.
    ASSERT_EQ(log.lines.size(), 1u);
    EXPECT_EQ(log.lines[0], "done-line");
}

TEST(ServeSupervisor, ExhaustedRestartBudgetDegradesNotWedges)
{
    SupervisorLog log;
    WorkerSupervisor supervisor(log.options(/*maxRestarts=*/1));
    // Slot 0 can never succeed; slot 1 exits clean immediately.  The
    // pool must still drain and report per-slot verdicts.
    const auto result = supervisor.run({
        shellWorker("exit 3"),
        shellWorker("echo healthy; exit 0"),
    });

    EXPECT_FALSE(result.allOk);
    EXPECT_EQ(result.restarts, 1u); // the whole budget, no more
    ASSERT_EQ(result.workerOk.size(), 2u);
    EXPECT_FALSE(result.workerOk[0]);
    EXPECT_TRUE(result.workerOk[1]);
    EXPECT_EQ(log.crashes, 2u); // first life + the one respawn
    ASSERT_EQ(log.lines.size(), 1u);
    EXPECT_EQ(log.lines[0], "healthy");
}

TEST(ServeSupervisor, SignalDeathCountsAsACrash)
{
    SupervisorLog log;
    WorkerSupervisor supervisor(log.options(/*maxRestarts=*/0));
    const auto result =
        supervisor.run({shellWorker("kill -9 $$")});
    EXPECT_FALSE(result.allOk);
    EXPECT_EQ(result.restarts, 0u);
    EXPECT_EQ(log.crashes, 1u);
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
