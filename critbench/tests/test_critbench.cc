/**
 * @file
 * Tests of the benchmark itself: metric names and units are valid and
 * match BENCHMARK.json, the p90 sample-count rule holds, and the result
 * digest is deterministic on a tiny grid (and the traced replica of a
 * sweep reproduces the Runner's results bit for bit).
 *
 *   cmake --build .bench_build --target critbench_tests
 *   ctest --test-dir .bench_build --output-on-failure
 */

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <unistd.h>

#include <gtest/gtest.h>

#include "metrics.hh"
#include "sim/variants.hh"
#include "support/json.hh"
#include "workloads.hh"

namespace critbench
{
namespace
{

TEST(MetricNames, TablesAreValidAndUnique)
{
    std::set<std::string> seen;
    for (const auto *table : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricSpec &m : *table) {
            EXPECT_TRUE(validMetricName(m.name)) << m.name;
            EXPECT_TRUE(validUnit(m.unit)) << m.name << " " << m.unit;
            EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
        }
    }
}

TEST(MetricNames, RejectsMalformedNames)
{
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("_leading"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
    EXPECT_FALSE(validUnit("ms per op"));
    EXPECT_FALSE(validUnit(std::string(17, 's')));
    EXPECT_TRUE(validUnit("1/s"));
}

/** BENCHMARK.json names exactly the metrics the binary prints. */
TEST(MetricNames, MatchBenchmarkJson)
{
    std::ifstream in(CRITBENCH_JSON);
    ASSERT_TRUE(in) << CRITBENCH_JSON;
    std::stringstream text;
    text << in.rdbuf();
    const auto doc = critics::json::parseJson(text.str());
    ASSERT_TRUE(doc);
    auto check = [&](const char *key, const std::vector<MetricSpec> &table) {
        const auto *list = doc->find(key);
        ASSERT_NE(list, nullptr) << key;
        ASSERT_EQ(list->elements.size(), table.size()) << key;
        for (std::size_t i = 0; i < table.size(); ++i) {
            EXPECT_EQ(list->elements[i].find("name")->asString().value_or(""),
                      table[i].name);
            EXPECT_EQ(list->elements[i].find("unit")->asString().value_or(""),
                      table[i].unit);
        }
    };
    check("end_to_end", endToEndMetrics());
    check("per_layer", perLayerMetrics());
}

TEST(Percentiles, P90NeedsTenSamplesBeyondIt)
{
    EXPECT_EQ(samplesNeeded(0.9), 100u);
    EXPECT_EQ(samplesNeeded(0.5), 20u);
    std::vector<double> samples;
    for (int i = 1; i <= 99; ++i)
        samples.push_back(i);
    EXPECT_FALSE(quantile(samples, 0.9).has_value());
    samples.push_back(100);
    ASSERT_TRUE(quantile(samples, 0.9).has_value());
    EXPECT_EQ(*quantile(samples, 0.9), 90.0);
    EXPECT_EQ(median(samples), 50.5);
}

TEST(Percentiles, RateIsTheMedianWindowsRate)
{
    // Windows of 2 ops at 4 jobs per op: 8 jobs in 0.1 s, 0.2 s and a
    // slow 1.0 s; the trailing single op is dropped.
    const std::vector<double> opMs = {50, 50, 100, 100, 500, 500, 10};
    EXPECT_EQ(windowRates(opMs, 4.0, 2),
              (std::vector<double>{80.0, 40.0, 8.0}));
    EXPECT_EQ(medianRate(opMs, 4.0, 2), 40.0);
    // Fewer ops than a window: one window of all of them.
    EXPECT_EQ(medianRate({250.0, 250.0}, 1.0, 10), 4.0);
    EXPECT_EQ(medianRate({}, 1.0, 10), 0.0);
}

TEST(Report, PrintsExactlyTheExpectedMetrics)
{
    Report report;
    report.operation(true);
    report.metric("setup_s", 1.25);
    std::string out = report.render({{"setup_s", "s"}});
    EXPECT_NE(out.find("{\"correct\": true, \"attempted\": 1, \"failed\": 0"),
              std::string::npos);
    EXPECT_NE(out.find("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"),
              std::string::npos);
    // A metric the run did not measure makes it incorrect.
    out = report.render({{"setup_s", "s"}, {"jobs_per_s", "1/s"}});
    EXPECT_NE(out.find("\"correct\": false"), std::string::npos);
}

/** A tiny grid: two apps x the variants that exercise every pass. */
std::vector<critics::runner::JobSpec>
tinyGrid()
{
    critics::sim::ExperimentOptions options;
    options.traceInsts = 4000;
    return critics::runner::makeGrid(
        *critics::sim::tryParseApps("Acrobat,mcf"),
        *critics::sim::tryParseVariants(
            "baseline,critic,opp16+critic,compress,aluprio"),
        options);
}

std::string
scratchDir(const std::string &name)
{
    return std::string(CRITBENCH_TEST_DIR) + "/" +
           std::to_string(::getpid()) + "-" + name;
}

TEST(Digest, DeterministicOnATinyGrid)
{
    const auto grid = tinyGrid();
    const ColdSweep a = coldSweep(grid, scratchDir("a"));
    const ColdSweep b = coldSweep(grid, scratchDir("b"));
    ASSERT_TRUE(a.batch.allOk());
    ASSERT_TRUE(b.batch.allOk());
    const std::string digest = gridDigest(grid, resultsOf(a.batch));
    EXPECT_EQ(digest.size(), 16u);
    EXPECT_EQ(digest, gridDigest(grid, resultsOf(b.batch)));

    // The digest does not depend on the job order...
    auto reversed = grid;
    auto results = resultsOf(a.batch);
    std::reverse(reversed.begin(), reversed.end());
    std::reverse(results.begin(), results.end());
    EXPECT_EQ(digest, gridDigest(reversed, results));
    // ...but does see any changed result.
    results.front().cpu.cycles++;
    EXPECT_NE(digest, gridDigest(reversed, results));

    // The traced replica does the production work, bit for bit.
    const TracedSweep traced =
        tracedColdSweep(grid, scratchDir("t") + "/results.jsonl", nullptr);
    EXPECT_EQ(traced.lengthMismatches, 0u);
    EXPECT_EQ(digest, gridDigest(grid, traced.results));

    // A warm sweep answers the whole grid from the store.
    bool ok = false;
    const auto warm =
        warmSweep(grid, scratchDir("a") + "/results.jsonl", ok);
    EXPECT_TRUE(ok);
    EXPECT_EQ(digest, gridDigest(grid, warm));

    for (const char *name : {"a", "b", "t"})
        std::filesystem::remove_all(scratchDir(name));
}

TEST(Digest, SweepGridOrderDependsOnlyOnTheSeed)
{
    const auto a = sweepGrid(7, 1000);
    const auto b = sweepGrid(7, 1000);
    const auto c = sweepGrid(8, 1000);
    ASSERT_EQ(a.size(), 26u * 16u);
    std::vector<std::string> ha, hb, hc;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ha.push_back(a[i].hashHex());
        hb.push_back(b[i].hashHex());
        hc.push_back(c[i].hashHex());
    }
    EXPECT_EQ(ha, hb);
    EXPECT_NE(ha, hc);
    std::sort(ha.begin(), ha.end());
    std::sort(hc.begin(), hc.end());
    EXPECT_EQ(ha, hc); // same jobs, another order
}

} // namespace
} // namespace critbench
