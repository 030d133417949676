/**
 * @file
 * Golden analysis gate: for every app at 10k instructions, the dynamic
 * IC partition extractChains produces (chain count and a digest of its
 * members and offsets), and for every distinct profile fraction of the
 * full variant list plus 1.0, what mineCritIcs makes of it (dynInsts,
 * segmentsSeen, chain count and a digest of every mined chain),
 * compared against the table recorded in tests/golden/analysis_10k.txt.
 *
 * CpuGolden and TransformGolden see the analysis only through the
 * chains the passes end up transforming; this gate pins the greedy
 * extraction's tie-breaks and the miner's trim and aggregation
 * directly, so a change that reorders one chain or shifts one fanout
 * sum shows here even when no selected chain moves.
 *
 * The golden is regenerated only by a change that means to alter what
 * the analysis produces.  On a mismatch the test writes the recomputed
 * table to analysis_10k.actual.txt in its working directory (the test
 * build directory under ctest); review the diff, then copy that file
 * over the golden in the same change.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iomanip>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "runner/thread_pool.hh"
#include "sim/experiment.hh"
#include "sim/variants.hh"
#include "helpers.hh"

using namespace critics;

namespace
{

constexpr const char *kGoldenName = "analysis_10k.txt";

const char *const kHeader =
    "# Offline analysis of every app at --insts 10000 "
    "(tests/test_analysis_golden.cc).\n"
    "# Regenerate only with a change that means to alter what the "
    "analysis produces.\n"
    "# chains app chainCount fnv1a64(members,offsets)\n"
    "# mined app fraction dynInsts segmentsSeen chainCount "
    "fnv1a64(per chain: len,uids,dynCount,avgFanout,memberFanout,"
    "memberConvertible,directlyConvertible)";

/** Shortest round-trip text of a fraction (0.72, not 0.7199...). */
std::string
fractionText(double fraction)
{
    char buf[32];
    const auto end = std::to_chars(buf, buf + sizeof buf, fraction).ptr;
    return std::string(buf, end);
}

std::string
hex(std::uint64_t value)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << value;
    return os.str();
}

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

TEST(AnalysisGolden, EveryAppMatchesRecordedChainsAndMining)
{
    sim::ExperimentOptions options;
    options.traceInsts = 10000;

    const auto apps = sim::parseApps("all");
    std::set<double> fractionSet = {1.0};
    for (const auto &v : sim::parseVariants("all")) {
        fractionSet.insert(
            v.profileFraction.value_or(options.profileFraction));
    }
    const std::vector<double> fractions(fractionSet.begin(),
                                        fractionSet.end());

    // One chains line plus one mined line per fraction, per app.
    const std::size_t perApp = 1 + fractions.size();
    std::vector<std::string> actual(apps.size() * perApp);
    runner::ThreadPool::shared().forEach(apps.size(), [&](std::size_t a) {
        sim::AppExperiment exp(apps[a], options);
        const std::string &app = apps[a].name;
        const auto &chains = exp.chains();
        actual[a * perApp] = "chains " + app + ' ' +
            std::to_string(chains.size()) + ' ' +
            hex(test::chainsDigest(chains));
        for (std::size_t f = 0; f < fractions.size(); ++f) {
            const auto &mined = exp.minedAt(fractions[f]);
            actual[a * perApp + 1 + f] = "mined " + app + ' ' +
                fractionText(fractions[f]) + ' ' +
                std::to_string(mined.dynInsts) + ' ' +
                std::to_string(mined.segmentsSeen) + ' ' +
                std::to_string(mined.chains.size()) + ' ' +
                hex(test::minedDigest(mined));
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
        std::ofstream out("analysis_10k.actual.txt");
        out << kHeader << '\n';
        for (const auto &line : actual)
            out << line << '\n';
        ADD_FAILURE() << "recomputed table written to "
                         "analysis_10k.actual.txt";
    }
}
