/**
 * @file
 * The critics_cli binary end to end: `--help` names every app and
 * variant, and `run --trace-out` puts the Runner's spans on process 1
 * and, for a one-job batch that simulates, each instruction's
 * pipeline stages on process 0.
 */

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "sim/variants.hh"
#include "support/json.hh"
#include "workload/profile.hh"
#include "helpers.hh"

using namespace critics;
using critics::test::TempDir;

namespace
{

struct CliOutput
{
    int status = -1;
    std::string text; ///< stdout and stderr together
};

/** Run critics_cli with `args` (shell words) and wait for it. */
CliOutput
runCli(const std::string &args, const std::string &env = "")
{
    const std::string command =
        env + " '" + std::string(CRITICS_CLI) + "' " + args + " 2>&1";
    CliOutput out;
    FILE *pipe = ::popen(command.c_str(), "r");
    if (pipe == nullptr)
        return out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        out.text.append(buf, n);
    const int status = ::pclose(pipe);
    out.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return out;
}

/** Spans of one trace document, counted by process and category. */
struct TraceCounts
{
    std::size_t pipelineOnPid0 = 0;
    std::size_t pipelineElsewhere = 0;
    std::size_t runnerOnPid1 = 0; ///< every other span
    std::size_t runnerElsewhere = 0;
    std::string pid1Name;
};

TraceCounts
countTrace(const std::string &path)
{
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const auto doc = json::parseJson(text);
    TraceCounts counts;
    EXPECT_TRUE(doc.has_value()) << path;
    const json::JsonValue *events =
        doc ? doc->find("traceEvents") : nullptr;
    if (events == nullptr)
        return counts;
    for (const json::JsonValue &e : events->elements) {
        const auto phase = e.find("ph")->asString().value_or("");
        const auto pid = e.find("pid")->asUint().value_or(99);
        if (phase == "M") {
            if (pid == 1 && e.find("name")->asString() == "process_name")
                counts.pid1Name = e.find("args")
                                      ->find("name")
                                      ->asString()
                                      .value_or("");
            continue;
        }
        const json::JsonValue *cat = e.find("cat");
        if (cat != nullptr && cat->asString() == "pipeline")
            ++(pid == 0 ? counts.pipelineOnPid0 : counts.pipelineElsewhere);
        else
            ++(pid == 1 ? counts.runnerOnPid1 : counts.runnerElsewhere);
    }
    return counts;
}

} // namespace

TEST(Cli, HelpListsEveryAppAndVariant)
{
    const CliOutput out = runCli("--help");
    EXPECT_EQ(out.status, 0) << out.text;
    const std::size_t apps = out.text.find("\napps:");
    const std::size_t variants = out.text.find("\nvariants:");
    ASSERT_NE(apps, std::string::npos) << out.text;
    ASSERT_NE(variants, std::string::npos) << out.text;
    const std::string appList = out.text.substr(apps, variants - apps);
    for (const auto &profile : workload::allApps()) {
        EXPECT_NE(appList.find(" " + profile.name), std::string::npos)
            << profile.name;
    }
    const std::string variantList = out.text.substr(variants);
    for (const auto &name : sim::allVariantNames())
        EXPECT_NE(variantList.find(" " + name), std::string::npos) << name;
}

TEST(Cli, OneJobTraceHoldsPipelineSpansOnProcess0)
{
    TempDir dir("critics-cli-trace1");
    const std::string trace = dir.str() + "/trace.json";
    const CliOutput out =
        runCli("run --apps Acrobat --variants critic --insts 20000 "
               "--no-cache --batch one --trace-out '" + trace + "'",
               "CRITICS_CACHE_DIR='" + dir.str() + "/cache'");
    ASSERT_EQ(out.status, 0) << out.text;
    const TraceCounts counts = countTrace(trace);
    EXPECT_GT(counts.pipelineOnPid0, 0u);
    EXPECT_EQ(counts.pipelineElsewhere, 0u);
    EXPECT_GT(counts.runnerOnPid1, 0u);
    EXPECT_EQ(counts.runnerElsewhere, 0u);
    EXPECT_EQ(counts.pid1Name, "runner: one");
}

TEST(Cli, TwoJobTraceHoldsNoPipelineSpans)
{
    TempDir dir("critics-cli-trace2");
    const std::string trace = dir.str() + "/trace.json";
    const CliOutput out =
        runCli("run --apps Acrobat --variants baseline,critic "
               "--insts 20000 --no-cache --batch two --trace-out '" +
                   trace + "'",
               "CRITICS_CACHE_DIR='" + dir.str() + "/cache'");
    ASSERT_EQ(out.status, 0) << out.text;
    const TraceCounts counts = countTrace(trace);
    EXPECT_EQ(counts.pipelineOnPid0 + counts.pipelineElsewhere, 0u);
    EXPECT_GT(counts.runnerOnPid1, 0u);
    EXPECT_EQ(counts.runnerElsewhere, 0u);
}
