/**
 * @file
 * The observability layer: LatencyHistogram bucket exactness and
 * conservative percentiles, span wire-format round-trips, StageScope
 * nesting and span emission, cross-process trace stitching (worker
 * span lines landing on per-pid tracks with monotonic re-based
 * timestamps), the SIGPROF sampling profiler end to end, and the
 * daemon's stats op reporting job-latency percentiles plus per-batch
 * manifests with a trace id.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hh"
#include "obs/profiler.hh"
#include "obs/span.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "stats/trace_event.hh"
#include "support/histogram.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "helpers.hh"

using namespace critics;
using critics::test::TempDir;

namespace
{

// ---------------------------------------------------------------------------
// LatencyHistogram

TEST(LatencyHistogram, EmptyReportsZeros)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.max(), 0.0);
    EXPECT_EQ(h.percentile(0.5), 0.0);
    EXPECT_EQ(h.percentile(0.99), 0.0);
}

TEST(LatencyHistogram, BucketBoundariesAreExact)
{
    // Sub-µs values land in the underflow bucket.
    EXPECT_EQ(LatencyHistogram::bucketOf(0.0), 0u);
    EXPECT_EQ(LatencyHistogram::bucketOf(0.999), 0u);
    EXPECT_EQ(LatencyHistogram::bucketOf(-5.0), 0u);
    EXPECT_EQ(LatencyHistogram::bucketUpperBound(0), 1.0);

    // 1.0 opens octave 0, sub-bucket 0: [1, 1.125).
    EXPECT_EQ(LatencyHistogram::bucketOf(1.0), 1u);
    EXPECT_EQ(LatencyHistogram::bucketLowerBound(1), 1.0);
    EXPECT_EQ(LatencyHistogram::bucketUpperBound(1), 1.125);

    // A value exactly on a sub-bucket boundary belongs to the upper
    // bucket (frexp is exact — no log() rounding surprises).
    EXPECT_EQ(LatencyHistogram::bucketOf(1.125), 2u);
    EXPECT_EQ(LatencyHistogram::bucketLowerBound(2), 1.125);

    // The last sub-bucket of octave 0 is [1.875, 2); 2.0 itself opens
    // octave 1.
    EXPECT_EQ(LatencyHistogram::bucketOf(1.9999), 8u);
    EXPECT_EQ(LatencyHistogram::bucketUpperBound(8), 2.0);
    EXPECT_EQ(LatencyHistogram::bucketOf(2.0), 9u);
    EXPECT_EQ(LatencyHistogram::bucketLowerBound(9), 2.0);

    // Adjacent buckets tile the axis: upper(i) == lower(i+1).
    for (std::size_t i = 0; i + 1 < LatencyHistogram::kBuckets; ++i) {
        EXPECT_EQ(LatencyHistogram::bucketUpperBound(i),
                  LatencyHistogram::bucketLowerBound(i + 1))
            << "gap between buckets " << i << " and " << i + 1;
    }

    // Values past the last octave clamp into the top bucket.
    EXPECT_EQ(LatencyHistogram::bucketOf(std::ldexp(1.0, 60)),
              LatencyHistogram::kBuckets - 1);
}

TEST(LatencyHistogram, OneSampleIsConservativelyReported)
{
    LatencyHistogram h;
    h.add(1.0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.mean(), 1.0);
    EXPECT_EQ(h.max(), 1.0);
    // percentile() answers with the bucket's upper bound — never an
    // under-estimate.
    EXPECT_EQ(h.percentile(0.5), 1.125);
    EXPECT_EQ(h.percentile(1.0), 1.125);
}

TEST(LatencyHistogram, PercentilesAreMonotoneAndBounded)
{
    LatencyHistogram h;
    for (int v = 1; v <= 100; ++v)
        h.add(static_cast<double>(v));
    const double p50 = h.percentile(0.50);
    const double p90 = h.percentile(0.90);
    const double p99 = h.percentile(0.99);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    // Conservative: at or above the true value, within one bucket
    // (12.5% relative width).
    EXPECT_GE(p50, 50.0);
    EXPECT_LE(p50, 50.0 * 1.125);
    EXPECT_GE(p99, 99.0);
    EXPECT_LE(p99, 99.0 * 1.125);
    EXPECT_EQ(h.max(), 100.0);
    EXPECT_NEAR(h.mean(), 50.5, 1e-9);
}

// ---------------------------------------------------------------------------
// Span wire format

TEST(ObsSpan, RenderParseRoundTrip)
{
    obs::SpanRecord span;
    span.name = "Acrobat/critic";
    span.category = "job";
    span.startUs = 123456789;
    span.durUs = 250000;
    span.tid = 3;
    const std::string line = obs::renderSpanEvent(span, "5af3-serve-1");
    // Byte for byte the line DESIGN.md §9.1 documents.
    EXPECT_EQ(line, "{\"event\":\"span\",\"trace\":\"5af3-serve-1\","
                    "\"name\":\"Acrobat/critic\",\"cat\":\"job\","
                    "\"ts\":123456789,\"dur\":250000,\"tid\":3}");
    std::string traceId;
    const auto back = obs::parseSpanEvent(line, &traceId);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(traceId, "5af3-serve-1");
    EXPECT_EQ(back->name, span.name);
    EXPECT_EQ(back->category, span.category);
    EXPECT_EQ(back->startUs, span.startUs);
    EXPECT_EQ(back->durUs, span.durUs);
    EXPECT_EQ(back->tid, span.tid);
}

TEST(ObsSpan, NonSpanLinesAreRejected)
{
    // Job events share the worker's stdout channel with span events;
    // each parser must let the other kind pass through.
    serve::JobEvent job;
    job.hash = "abc";
    job.app = "Acrobat";
    job.variant = "critic";
    job.ok = true;
    EXPECT_FALSE(
        obs::parseSpanEvent(serve::renderJobEvent(job)).has_value());
    EXPECT_FALSE(obs::parseSpanEvent("not json").has_value());
    EXPECT_FALSE(obs::parseSpanEvent("{}").has_value());
    // A span without a timestamp is malformed, not merely sparse.
    EXPECT_FALSE(
        obs::parseSpanEvent("{\"event\":\"span\",\"name\":\"x\"}")
            .has_value());
    // A tid past 32 bits would wrap onto another thread's track.
    EXPECT_FALSE(obs::parseSpanEvent("{\"event\":\"span\",\"name\":\"x\","
                                     "\"ts\":1,\"tid\":4294967297}")
                     .has_value());
}

TEST(ObsSpan, JobEventCarriesWallSeconds)
{
    serve::JobEvent event;
    event.hash = "h";
    event.app = "Office";
    event.variant = "baseline";
    event.ok = true;
    event.wallSeconds = 1.5;
    const auto back =
        serve::parseJobEvent(serve::renderJobEvent(event));
    ASSERT_TRUE(back.has_value());
    EXPECT_DOUBLE_EQ(back->wallSeconds, 1.5);
}

// ---------------------------------------------------------------------------
// StageScope

TEST(ObsStage, NestedScopesRestoreThePreviousStage)
{
    EXPECT_EQ(obs::currentStage(), obs::Stage::None);
    {
        obs::StageScope outer(obs::Stage::Transform);
        EXPECT_EQ(obs::currentStage(), obs::Stage::Transform);
        {
            obs::StageScope inner(obs::Stage::Analyze);
            EXPECT_EQ(obs::currentStage(), obs::Stage::Analyze);
        }
        EXPECT_EQ(obs::currentStage(), obs::Stage::Transform);
    }
    EXPECT_EQ(obs::currentStage(), obs::Stage::None);
}

TEST(ObsStage, AssignsDenseThreadIds)
{
    // The one thread id spans carry: stable per thread, new per thread.
    const std::uint32_t self = obs::obsThreadId();
    EXPECT_GE(self, 1u);
    EXPECT_EQ(obs::obsThreadId(), self);
    std::uint32_t other = self;
    std::thread([&] { other = obs::obsThreadId(); }).join();
    EXPECT_NE(other, self);
}

TEST(ObsStage, SinkReceivesSpansInnermostFirst)
{
    std::vector<obs::SpanRecord> records;
    obs::setSpanSink([&records](const obs::SpanRecord &span) {
        records.push_back(span);
    });
    {
        obs::StageScope job(obs::Stage::None, "Acrobat/critic", "job");
        obs::StageScope stage(obs::Stage::Simulate);
        // Stage::None leaves the stage marker alone...
        EXPECT_EQ(obs::currentStage(), obs::Stage::Simulate);
    }
    obs::setSpanSink(nullptr);

    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].name, "simulate");
    EXPECT_EQ(records[0].category, "stage");
    EXPECT_EQ(records[1].name, "Acrobat/critic");
    EXPECT_EQ(records[1].category, "job");
    EXPECT_GT(records[0].tid, 0u);
    EXPECT_GT(records[0].startUs, 0u);
    // ...and the job span brackets the stage span.
    EXPECT_LE(records[1].startUs, records[0].startUs);

    // With the sink removed, scopes are marker-only again.
    {
        obs::StageScope quiet(obs::Stage::Emit);
    }
    EXPECT_EQ(records.size(), 2u);
}

// ---------------------------------------------------------------------------
// Cross-process stitching

TEST(ObsStitch, WorkerSpanLinesLandOnPerPidTracks)
{
    // Two "workers" emit span lines with absolute CLOCK_MONOTONIC
    // timestamps; the stitcher re-bases them on its own epoch and
    // files them under each worker's OS pid — the same arithmetic
    // Server::stitchSpan performs on live worker stdout.
    const std::uint64_t epochUs = 1000000;
    const std::string traceId = "77-serve-9";
    stats::TraceEventWriter trace;

    struct Worker
    {
        std::uint32_t pid;
        std::uint64_t firstUs;
    };
    const Worker workers[] = {{101, epochUs + 5000},
                              {102, epochUs + 6000}};
    for (const auto &w : workers) {
        for (int k = 0; k < 2; ++k) {
            obs::SpanRecord span;
            span.name = "analyze";
            span.category = "stage";
            span.startUs = w.firstUs + static_cast<std::uint64_t>(k) *
                                           2000;
            span.durUs = 1500;
            span.tid = 1;
            std::string parsedId;
            const auto parsed = obs::parseSpanEvent(
                obs::renderSpanEvent(span, traceId), &parsedId);
            ASSERT_TRUE(parsed.has_value());
            const std::uint64_t ts = parsed->startUs > epochUs
                ? parsed->startUs - epochUs : 0;
            trace.complete(parsed->name, parsed->category, ts,
                           parsed->durUs, w.pid, parsed->tid, "trace",
                           parsedId);
        }
    }

    const auto doc = json::parseJson(trace.toJson());
    ASSERT_TRUE(doc.has_value());
    const auto *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->elements.size(), 4u);

    std::uint64_t lastTsPerPid[2] = {0, 0};
    for (const auto &e : events->elements) {
        const auto pid = e.find("pid")->asUint().value_or(0);
        ASSERT_TRUE(pid == 101 || pid == 102);
        EXPECT_EQ(e.find("tid")->asUint().value_or(0), 1u);
        EXPECT_EQ(e.find("cat")->asString().value_or(""), "stage");
        EXPECT_EQ(
            e.find("args")->find("trace")->asString().value_or(""),
            traceId);
        // Re-based timestamps: absolute µs minus the epoch, strictly
        // increasing per worker track.
        const auto ts = e.find("ts")->asUint().value_or(0);
        EXPECT_GE(ts, 5000u);
        EXPECT_LT(ts, 10000u);
        std::uint64_t &last = lastTsPerPid[pid - 101];
        EXPECT_GT(ts, last);
        last = ts;
    }
}

// ---------------------------------------------------------------------------
// Sampling profiler.  Named ObsProfiler* so the TSan CI lane can
// filter it (signal-driven sampling and TSan interceptors disagree).

/** Burn roughly `ms` of CPU time (not wall time). */
volatile double gProfilerSinkhole = 0.0;
void
burnCpu(double seconds, obs::Stage stage)
{
    obs::StageScope scope(stage);
    const std::uint64_t start = obs::monotonicMicros();
    const auto budget = static_cast<std::uint64_t>(seconds * 1e6);
    double x = 1.0;
    while (obs::monotonicMicros() - start < budget) {
        for (int i = 0; i < 1000; ++i)
            x = x * 1.000001 + 0.5;
        gProfilerSinkhole = x;
    }
}

TEST(ObsProfiler, SamplesAreAttributedToStages)
{
    obs::SamplingProfiler profiler;
    ASSERT_TRUE(profiler.start());
    // Two stages with a deliberately lopsided CPU split.
    burnCpu(0.30, obs::Stage::Analyze);
    burnCpu(0.05, obs::Stage::Emit);
    profiler.stop();

    // ~5ms CPU per sample -> ~70 expected; demand only a loose floor
    // so a loaded CI machine cannot flake this.
    EXPECT_GE(profiler.sampleCount(), 10u);

    const std::string report = profiler.reportJson();
    const auto doc = json::parseJson(report);
    ASSERT_TRUE(doc.has_value()) << report;
    EXPECT_EQ(doc->find("schema")->asString().value_or(""),
              "critics-profile-v1");
    const auto samples = doc->find("samples")->asUint().value_or(0);
    EXPECT_EQ(samples, profiler.sampleCount());

    const auto *stages = doc->find("stages");
    ASSERT_NE(stages, nullptr);
    const auto analyze =
        stages->find("analyze")->asUint().value_or(0);
    const auto emit = stages->find("emit")->asUint().value_or(0);
    // The whole busy loop ran inside named stages.
    const double attributed =
        doc->find("attributedFraction")->asDouble().value_or(0.0);
    EXPECT_GE(attributed, 0.9);
    // 6x the CPU -> clearly dominant even under scheduler noise.
    EXPECT_GT(analyze, emit * 2);

    const auto *flat = doc->find("flat");
    ASSERT_NE(flat, nullptr);
    ASSERT_TRUE(flat->isArray());
    EXPECT_FALSE(flat->elements.empty());

    EXPECT_TRUE(obs::printProfileReport(report, 5));
}

TEST(ObsProfiler, SecondProfilerIsRefusedWhileOneRuns)
{
    setQuiet(true);
    obs::SamplingProfiler first;
    ASSERT_TRUE(first.start());
    obs::SamplingProfiler second;
    EXPECT_FALSE(second.start());
    first.stop();
    // stop() is idempotent and frees the slot for the next run.
    first.stop();
    obs::SamplingProfiler third;
    EXPECT_TRUE(third.start());
    third.stop();
}

TEST(ObsProfiler, ReportSurvivesWriteAndPrettyPrint)
{
    TempDir dir("critics-obs-prof");
    obs::SamplingProfiler profiler;
    ASSERT_TRUE(profiler.start());
    burnCpu(0.05, obs::Stage::Simulate);
    profiler.stop();
    const std::string path = dir.str() + "/prof.json";
    ASSERT_TRUE(profiler.writeReport(path));
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_TRUE(obs::printProfileReport(text));
    EXPECT_FALSE(obs::printProfileReport("{\"schema\":\"other\"}"));
    EXPECT_FALSE(obs::printProfileReport("not json"));
}

// ---------------------------------------------------------------------------
// The daemon's observability surface (real serve-worker children).

TEST(ServeObs, StatsOpReportsLatencyAndBatchManifestCarriesTraceId)
{
    setQuiet(true);
    TempDir dir("critics-obs-serve");

    stats::TraceEventWriter trace;
    serve::ServerOptions options;
    options.workerExe = CRITICS_CLI;
    options.cachePath = dir.str() + "/results.jsonl";
    options.trace = &trace;
    serve::Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    serve::ServeClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error))
        << error;

    serve::Request submit;
    submit.op = serve::Request::Op::Submit;
    submit.submit.batch = "obs";
    submit.submit.apps = "Acrobat";
    submit.submit.variants = "baseline,critic";
    submit.submit.insts = 20000;
    ASSERT_TRUE(client.sendLine(serve::renderRequest(submit)));
    const auto reply = client.readLine(30000);
    ASSERT_TRUE(reply.has_value());
    const auto replyDoc = json::parseJson(*reply);
    ASSERT_TRUE(replyDoc.has_value());
    ASSERT_TRUE(replyDoc->find("ok")->asBool().value_or(false))
        << *reply;
    const std::string jobId =
        replyDoc->find("job")->asString().value_or("");
    // The submit reply hands back the batch's trace id.
    const auto *traceField = replyDoc->find("trace");
    ASSERT_NE(traceField, nullptr);
    const std::string traceId =
        traceField->asString().value_or("");
    EXPECT_FALSE(traceId.empty());

    // Stream to completion.
    serve::Request wait;
    wait.op = serve::Request::Op::Wait;
    wait.job = jobId;
    ASSERT_TRUE(client.sendLine(serve::renderRequest(wait)));
    for (;;) {
        const auto line = client.readLine(120000);
        ASSERT_TRUE(line.has_value()) << "stream ended early";
        const auto doc = json::parseJson(*line);
        if (doc && doc->find("event") != nullptr &&
            doc->find("event")->asString().value_or("") == "done")
            break;
    }

    // stats op: job-latency percentiles over the two executed jobs.
    ASSERT_TRUE(client.sendLine("{\"op\":\"stats\"}"));
    const auto statsLine = client.readLine(5000);
    ASSERT_TRUE(statsLine.has_value());
    const auto stats = json::parseJson(*statsLine);
    ASSERT_TRUE(stats.has_value());
    const auto *serveStats = stats->find("serve");
    ASSERT_NE(serveStats, nullptr);
    const auto *latency = serveStats->find("jobLatency");
    ASSERT_NE(latency, nullptr) << *statsLine;
    EXPECT_EQ(latency->find("count")->asUint().value_or(0), 2u);
    const double p50 =
        latency->find("p50Us")->asDouble().value_or(0.0);
    const double p99 =
        latency->find("p99Us")->asDouble().value_or(0.0);
    EXPECT_GT(p50, 0.0);
    EXPECT_GE(p99, p50);
    const auto *queueWait = serveStats->find("queueWait");
    ASSERT_NE(queueWait, nullptr);
    EXPECT_EQ(queueWait->find("count")->asUint().value_or(0), 1u);
    // Every latency histogram carries the registry's one leaf list.
    for (const auto *h : {latency, queueWait}) {
        for (const char *leaf : {"meanUs", "maxUs", "p50Us", "p90Us",
                                 "p99Us"})
            EXPECT_NE(h->find(leaf), nullptr) << leaf;
    }

    ASSERT_TRUE(client.sendLine("{\"op\":\"shutdown\"}"));
    (void)client.readLine(5000);
    server.wait();

    // The merged trace holds the server-side request spans and the
    // per-job spans the workers' Runners recorded, stitched under a
    // worker pid and tagged with the batch's trace id.
    const auto traceDoc = json::parseJson(trace.toJson());
    ASSERT_TRUE(traceDoc.has_value());
    const auto *events = traceDoc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    unsigned jobSpans = 0, taggedSpans = 0;
    bool sawSubmit = false, sawBatch = false;
    for (const auto &e : events->elements) {
        const std::string name =
            e.find("name")->asString().value_or("");
        const std::string cat = e.find("cat") != nullptr
            ? e.find("cat")->asString().value_or("") : "";
        if (name == "submit")
            sawSubmit = true;
        if (name.rfind("batch ", 0) == 0)
            sawBatch = true;
        if (cat == "job") {
            ++jobSpans;
            EXPECT_NE(e.find("pid")->asUint().value_or(0), 0u) << name;
        }
        const auto *args = e.find("args");
        if (args != nullptr && args->find("trace") != nullptr &&
            args->find("trace")->asString().value_or("") == traceId)
            ++taggedSpans;
    }
    EXPECT_TRUE(sawSubmit);
    EXPECT_TRUE(sawBatch);
    EXPECT_EQ(jobSpans, 2u);
    EXPECT_GE(taggedSpans, 3u); // 2 job spans + the batch span

    // Satellite: the per-batch manifest, stamped with the trace id.
    const std::string manifestPath =
        dir.str() + "/manifests/obs." + jobId + ".json";
    runner::RunManifest manifest;
    ASSERT_TRUE(runner::RunManifest::read(manifestPath, manifest))
        << manifestPath;
    EXPECT_EQ(manifest.traceId, traceId);
    EXPECT_EQ(manifest.jobs.size(), 2u);
    // The daemon runs no Runner, so its manifest has no runnerStats
    // (not a block of zeros).
    {
        std::ifstream in(manifestPath);
        const std::string text((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
        const auto doc = json::parseJson(text);
        ASSERT_TRUE(doc.has_value());
        EXPECT_EQ(doc->find("runnerStats"), nullptr) << text;
    }
    for (const auto &job : manifest.jobs) {
        EXPECT_TRUE(job.ok);
        EXPECT_FALSE(job.fromCache);
        EXPECT_GT(job.wallSeconds, 0.0);
    }
}

} // namespace
