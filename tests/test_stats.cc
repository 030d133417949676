/**
 * @file
 * Unit tests for the hierarchical stat registry, the interval
 * time-series sampler, the Chrome trace-event writer and the snapshot
 * diff harness behind `critics_cli diff`.
 */

#include <gtest/gtest.h>

#include "stats/diff.hh"
#include "stats/interval.hh"
#include "stats/registry.hh"
#include "stats/trace_event.hh"
#include "support/json.hh"

#include <cmath>

using namespace critics;
using namespace critics::stats;

// ---------------------------------------------------------------------------
// StatRegistry

TEST(StatRegistry, RegistersAndLooksUpByDottedName)
{
    std::uint64_t misses = 7;
    double accuracy = 0.5;
    StatRegistry reg;
    reg.addCounter("mem.l1i.misses", misses, "i-cache misses");
    reg.addValue("cpu.efetchAccuracy", accuracy);

    ASSERT_EQ(reg.size(), 2u);
    const StatDef *def = reg.find("mem.l1i.misses");
    ASSERT_NE(def, nullptr);
    EXPECT_EQ(def->kind, StatKind::Counter);
    EXPECT_EQ(def->desc, "i-cache misses");
    EXPECT_DOUBLE_EQ(def->eval(), 7.0);
    EXPECT_EQ(reg.find("mem.l1i"), nullptr);
    EXPECT_EQ(reg.find("nope"), nullptr);

    // Stats are views: the component's field stays the source of truth.
    misses = 11;
    EXPECT_DOUBLE_EQ(def->eval(), 11.0);
}

TEST(StatRegistry, RejectsDuplicateAndPrefixConflicts)
{
    std::uint64_t v = 0;
    StatRegistry reg;
    reg.addCounter("a.b", v);
    EXPECT_THROW(reg.addCounter("a.b", v), std::logic_error);
    // A leaf may not also be a group prefix.
    EXPECT_THROW(reg.addCounter("a.b.c", v), std::logic_error);
    EXPECT_THROW(reg.addCounter("", v), std::logic_error);
}

TEST(StatRegistry, FormulaEvaluatesLazilyAndClampsNonFinite)
{
    std::uint64_t committed = 0, cycles = 0;
    StatRegistry reg;
    reg.addFormula("cpu.ipc", [&] {
        return static_cast<double>(committed) /
               static_cast<double>(cycles);
    });
    // 0/0 would be NaN — eval() clamps so exports stay valid JSON.
    EXPECT_DOUBLE_EQ(reg.find("cpu.ipc")->eval(), 0.0);
    committed = 300;
    cycles = 200;
    EXPECT_DOUBLE_EQ(reg.find("cpu.ipc")->eval(), 1.5);
}

TEST(StatRegistry, SnapshotFlattensVectorsAndDistributions)
{
    std::uint64_t fetch = 4;
    double execute = 2.5;

    StatRegistry reg;
    reg.addVector("cpu.stage",
                  {{"fetch", &fetch, nullptr},
                   {"execute", nullptr, &execute}});

    const auto snap = reg.snapshot();
    auto value = [&](const std::string &name) {
        for (const auto &[n, v] : snap) {
            if (n == name)
                return v;
        }
        ADD_FAILURE() << "missing " << name;
        return -1.0;
    };
    EXPECT_DOUBLE_EQ(value("cpu.stage.fetch"), 4.0);
    EXPECT_DOUBLE_EQ(value("cpu.stage.execute"), 2.5);
}

TEST(StatRegistry, LatencyLeavesAreNamedAlikeInSnapshotAndJson)
{
    LatencyHistogram wall;
    wall.add(100.0);
    wall.add(300.0);
    StatRegistry reg;
    reg.addLatency("runner.jobWall", wall);

    std::vector<std::string> snapped;
    for (const auto &[name, value] : reg.snapshot())
        snapped.push_back(name);
    const std::vector<std::string> leaves{"count", "meanUs", "maxUs",
                                          "p50Us", "p90Us", "p99Us"};
    std::vector<std::string> expected;
    for (const auto &leaf : leaves)
        expected.push_back("runner.jobWall." + leaf);
    EXPECT_EQ(snapped, expected);

    const auto doc = json::parseJson(reg.toJson());
    ASSERT_TRUE(doc.has_value());
    const auto *h = doc->find("runner")->find("jobWall");
    ASSERT_NE(h, nullptr);
    std::vector<std::string> written;
    for (const auto &member : h->members)
        written.push_back(member.first);
    EXPECT_EQ(written, leaves);
    EXPECT_EQ(h->find("count")->asUint().value_or(0), 2u);
    EXPECT_DOUBLE_EQ(h->find("maxUs")->asDouble().value_or(0.0), 300.0);
}

TEST(StatRegistry, ToJsonNestsGroupsAndParses)
{
    std::uint64_t hits = 3, misses = 1;
    StatRegistry reg;
    reg.addCounter("runner.cache.hits", hits);
    reg.addCounter("runner.cache.misses", misses);
    reg.addFormula("runner.cache.hitRate", [&] {
        return static_cast<double>(hits) /
               static_cast<double>(hits + misses);
    });

    const std::string out = reg.toJson();
    const auto doc = json::parseJson(out);
    ASSERT_TRUE(doc.has_value()) << out;
    const auto *runner = doc->find("runner");
    ASSERT_NE(runner, nullptr);
    const auto *cache = runner->find("cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->find("hits")->asUint().value_or(0), 3u);
    EXPECT_NEAR(cache->find("hitRate")->asDouble().value_or(0), 0.75,
                1e-12);
}

// ---------------------------------------------------------------------------
// IntervalSeries

TEST(IntervalSeries, SamplesCumulativeRowsMonotonically)
{
    std::uint64_t committed = 0, stalls = 0;
    StatRegistry reg;
    reg.addCounter("cpu.committed", committed);
    reg.addCounter("cpu.stalls", stalls);

    IntervalSeries series;
    for (std::uint64_t i = 1; i <= 4; ++i) {
        committed = i * 1000;
        stalls = i * 10;
        series.sample(reg, committed);
    }

    ASSERT_EQ(series.size(), 4u);
    ASSERT_EQ(series.names().size(), 2u);
    const auto col = series.column("cpu.stalls");
    ASSERT_EQ(col.size(), 4u);
    for (std::size_t i = 1; i < col.size(); ++i) {
        EXPECT_LT(series.rows()[i - 1].index, series.rows()[i].index);
        EXPECT_LE(col[i - 1], col[i]) << "cumulative rows must grow";
    }
    EXPECT_DOUBLE_EQ(series.at(series.rows().back(), "cpu.stalls"),
                     40.0);
}

TEST(IntervalSeries, RepeatedIndexOverwritesRow)
{
    std::uint64_t v = 1;
    StatRegistry reg;
    reg.addCounter("v", v);

    IntervalSeries series;
    series.sample(reg, 100);
    v = 2;
    series.sample(reg, 100); // forced row at the same position
    ASSERT_EQ(series.size(), 1u);
    EXPECT_DOUBLE_EQ(series.rows()[0].values[0], 2.0);
}

TEST(IntervalSeries, JsonlRowsParseIndividually)
{
    std::uint64_t a = 5;
    double b = 0.25;
    StatRegistry reg;
    reg.addCounter("grp.a", a);
    reg.addValue("grp.b", b);

    IntervalSeries series;
    series.sample(reg, 1000);
    a = 9;
    series.sample(reg, 2000);

    const std::string jsonl = series.toJsonl("app/baseline");
    std::size_t rows = 0, start = 0;
    while (start < jsonl.size()) {
        const std::size_t end = jsonl.find('\n', start);
        ASSERT_NE(end, std::string::npos);
        const auto doc = json::parseJson(jsonl.substr(start, end - start));
        ASSERT_TRUE(doc.has_value());
        EXPECT_EQ(doc->find("label")->asString().value_or(""),
                  "app/baseline");
        ASSERT_NE(doc->find("grp.a"), nullptr);
        ASSERT_NE(doc->find("committed"), nullptr);
        ++rows;
        start = end + 1;
    }
    EXPECT_EQ(rows, 2u);
}

// ---------------------------------------------------------------------------
// TraceEventWriter

TEST(TraceEvent, EmitsWellFormedChromeTraceJson)
{
    TraceEventWriter trace;
    trace.setProcessName(0, "cpu pipeline");
    trace.setThreadName(0, 1, "fetch");
    trace.complete("ldr", "IntAlu", 100, 5, 0, 1);
    trace.complete("add", "IntAlu", 105, 2, 0, 1, "dyn", 42.0);
    trace.complete("Acrobat/critic", "job", 110, 9, 7, 2, "trace",
                   "5af3-serve-1");

    const std::string out = trace.toJson();
    const auto doc = json::parseJson(out);
    ASSERT_TRUE(doc.has_value()) << out;
    const auto *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    EXPECT_EQ(events->elements.size(), 5u);
    EXPECT_EQ(trace.size(), 5u);

    unsigned complete = 0, meta = 0;
    for (const auto &event : events->elements) {
        const std::string phase =
            event.find("ph")->asString().value_or("");
        ASSERT_NE(event.find("name"), nullptr);
        if (phase == "X") {
            ++complete;
            EXPECT_NE(event.find("dur"), nullptr);
        } else {
            EXPECT_EQ(phase, "M");
            ++meta;
        }
    }
    EXPECT_EQ(complete, 3u);
    EXPECT_EQ(meta, 2u);
}

TEST(TraceEvent, CapsEventsAndCountsDropped)
{
    TraceEventWriter trace(4);
    for (int i = 0; i < 10; ++i)
        trace.complete("e", "cat", i, 1, 0, 0);
    EXPECT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace.dropped(), 6u);
    // Metadata bypasses the cap so the viewer still gets names.
    trace.setProcessName(0, "p");
    EXPECT_EQ(trace.size(), 5u);
    EXPECT_TRUE(json::parseJson(trace.toJson()).has_value());
}

// ---------------------------------------------------------------------------
// Snapshot diff (the critics_cli regression harness)

namespace
{

Snapshot
baseSnapshot()
{
    return {{"cpu.cycles", 100000.0},
            {"cpu.ipc", 1.5},
            {"mem.l1i.misses", 400.0}};
}

} // namespace

TEST(SnapshotDiff, IdenticalRunsReportNoRegressions)
{
    const auto diff = diffSnapshots(baseSnapshot(), baseSnapshot());
    EXPECT_FALSE(diff.hasRegressions());
    EXPECT_EQ(diff.regressions(), 0u);
    EXPECT_EQ(diff.deltas.size(), 3u);
}

TEST(SnapshotDiff, FlagsInjectedRegressionByName)
{
    auto after = baseSnapshot();
    after[0].second = 103000.0; // +3% cycles: beyond the 1% noise band
    const auto diff = diffSnapshots(baseSnapshot(), after);
    ASSERT_TRUE(diff.hasRegressions());
    ASSERT_EQ(diff.regressions(), 1u);
    const auto worst = diff.worst(1);
    ASSERT_EQ(worst.size(), 1u);
    EXPECT_EQ(worst[0].name, "cpu.cycles");
    EXPECT_NEAR(worst[0].relDelta, 3000.0 / 103000.0, 1e-12);
}

TEST(SnapshotDiff, PassesUnderNoiseThreshold)
{
    auto after = baseSnapshot();
    after[0].second *= 1.005;  // +0.5% — inside the 1% noise band
    after[1].second *= 0.997;  // improvements are also just noise
    const auto diff = diffSnapshots(baseSnapshot(), after);
    EXPECT_FALSE(diff.hasRegressions());
}

TEST(SnapshotDiff, DirectionAgnosticBeyondThreshold)
{
    auto after = baseSnapshot();
    after[1].second = 1.8; // +20% "improvement" still drifts
    const auto diff = diffSnapshots(baseSnapshot(), after);
    EXPECT_EQ(diff.regressions(), 1u);
    EXPECT_EQ(diff.worst(1)[0].name, "cpu.ipc");
}

TEST(SnapshotDiff, AbsoluteFloorIgnoresRoundingDust)
{
    Snapshot before{{"x", 0.0}};
    Snapshot after{{"x", 1e-12}}; // rel delta 1.0, abs delta tiny
    EXPECT_FALSE(diffSnapshots(before, after).hasRegressions());
}

TEST(SnapshotDiff, SchemaMismatchIsARegression)
{
    auto after = baseSnapshot();
    after.emplace_back("cpu.newStat", 1.0);
    auto before = baseSnapshot();
    before.emplace_back("cpu.oldStat", 2.0);
    const auto diff = diffSnapshots(before, after);
    EXPECT_EQ(diff.regressions(), 0u);
    EXPECT_TRUE(diff.hasRegressions());
    ASSERT_EQ(diff.onlyBefore.size(), 1u);
    EXPECT_EQ(diff.onlyBefore[0], "cpu.oldStat");
    ASSERT_EQ(diff.onlyAfter.size(), 1u);
    EXPECT_EQ(diff.onlyAfter[0], "cpu.newStat");
}

TEST(SnapshotDiff, NonFiniteValuesAlwaysRegress)
{
    Snapshot before{{"x", 1.0}};
    Snapshot after{{"x", std::nan("")}};
    EXPECT_TRUE(diffSnapshots(before, after).hasRegressions());
}

TEST(SnapshotDiff, CustomThresholdWidensNoiseBand)
{
    auto after = baseSnapshot();
    after[0].second = 103000.0; // +3%
    DiffOptions opt;
    opt.relThreshold = 0.05;
    EXPECT_FALSE(
        diffSnapshots(baseSnapshot(), after, opt).hasRegressions());
}
