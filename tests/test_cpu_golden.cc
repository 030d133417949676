/**
 * @file
 * Golden simulator gate: the integer CpuStats of every job of the full
 * 26-app x 16-variant sweep at 10k instructions, compared against the
 * table recorded in tests/golden/cpu_sweep_10k.txt.
 *
 * Every other drift check compares two paths of one build; this one
 * compares against a fixed record, so any change to simulated
 * behaviour shows here.  Only integer fields are recorded, so the
 * table holds on every host.
 *
 * The golden is regenerated only by a change that means to alter
 * simulated behaviour.  On a mismatch the test writes the recomputed
 * table to cpu_sweep_10k.actual.txt in its working directory (the
 * test build directory under ctest); review the diff, then copy that
 * file over the golden in the same change.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runner/thread_pool.hh"
#include "sim/experiment.hh"
#include "sim/variants.hh"

using namespace critics;

namespace
{

constexpr const char *kGoldenName = "cpu_sweep_10k.txt";

/** One line per job: app, variant, then the integer stats. */
std::string
statsLine(const std::string &app, const std::string &variant,
          const cpu::CpuStats &s)
{
    std::ostringstream os;
    os << app << ' ' << variant;
    for (const std::uint64_t v :
         {s.cycles, s.committed, s.stallForIIcache, s.stallForIRedirect,
          s.stallForRd, s.decodeCdpBubbles, s.fetchWindows,
          s.fetchedBytes, s.condBranches, s.mispredicts,
          s.mem.icache.accesses, s.mem.icache.misses,
          s.mem.dcache.accesses, s.mem.dcache.misses,
          s.mem.l2.accesses, s.mem.l2.misses, s.mem.dram.reads}) {
        os << ' ' << v;
    }
    return os.str();
}

const char *const kHeader =
    "# Integer CpuStats of the full sweep at --insts 10000 "
    "(tests/test_cpu_golden.cc).\n"
    "# Regenerate only with a change that means to alter simulated "
    "behaviour.\n"
    "# app variant cycles committed stallForIIcache stallForIRedirect "
    "stallForRd decodeCdpBubbles fetchWindows fetchedBytes "
    "condBranches mispredicts icacheAccesses icacheMisses "
    "dcacheAccesses dcacheMisses l2Accesses l2Misses dramReads";

std::vector<std::string>
readLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) {
        if (!line.empty() && line[0] != '#')
            lines.push_back(line);
    }
    return lines;
}

} // namespace

TEST(CpuGolden, FullSweepMatchesRecordedStats)
{
    sim::ExperimentOptions options;
    options.traceInsts = 10000;

    const auto apps = sim::parseApps("all");
    const auto variants = sim::parseVariants("all");
    std::vector<std::string> actual(apps.size() * variants.size());
    runner::ThreadPool::shared().forEach(apps.size(), [&](std::size_t a) {
        sim::AppExperiment exp(apps[a], options);
        for (std::size_t v = 0; v < variants.size(); ++v) {
            actual[a * variants.size() + v] =
                statsLine(apps[a].name, variants[v].label,
                          exp.run(variants[v]).cpu);
        }
    });

    const auto golden =
        readLines(std::string(CRITICS_GOLDEN_DIR) + "/" + kGoldenName);
    EXPECT_EQ(golden.size(), actual.size());
    for (std::size_t i = 0; i < std::min(golden.size(), actual.size());
         ++i) {
        EXPECT_EQ(golden[i], actual[i]);
    }
    if (golden != actual) {
        std::ofstream out("cpu_sweep_10k.actual.txt");
        out << kHeader << '\n';
        for (const auto &line : actual)
            out << line << '\n';
        ADD_FAILURE() << "recomputed table written to "
                         "cpu_sweep_10k.actual.txt";
    }
}
