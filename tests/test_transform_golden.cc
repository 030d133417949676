/**
 * @file
 * Golden transform gate: for every app and every distinct transform of
 * the full variant list (one per transformMemoKey) at 10k instructions,
 * the pass counters, the size of the transformed binary and a digest
 * of its laid-out instructions, compared against the table recorded in
 * tests/golden/transform_10k.txt.
 *
 * CpuGolden sees a transform only through the simulated cycles it
 * causes; this gate pins the rewritten program itself, so a change to
 * the static-program representation (layout, uid index, copies) that
 * shifts one address or uid shows here even when timing does not.
 *
 * The golden is regenerated only by a change that means to alter what
 * the passes produce.  On a mismatch the test writes the recomputed
 * table to transform_10k.actual.txt in its working directory (the
 * test build directory under ctest); review the diff, then copy that
 * file over the golden in the same change.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "runner/thread_pool.hh"
#include "sim/experiment.hh"
#include "sim/variants.hh"
#include "verify/verify.hh"
#include "helpers.hh"

using namespace critics;
using critics::test::Fnv1a;

namespace
{

constexpr const char *kGoldenName = "transform_10k.txt";

/** One line per app x transform: app, the first variant label with
 *  this memo key, the 12 pass counters, instCount, textBytes, the
 *  Thumb16 count and the layout-order digest. */
std::string
transformLine(const std::string &app, const std::string &label,
              const sim::MaterializedTransform &m)
{
    const auto &p = m.pass;
    std::uint64_t thumb = 0;
    Fnv1a digest;
    for (const auto &fn : m.prog.funcs) {
        for (const auto &blk : fn.blocks) {
            for (const auto &si : blk.insts) {
                if (si.format == isa::Format::Thumb16)
                    ++thumb;
                digest.feed(si.uid);
                digest.feed(si.address);
                digest.feed(static_cast<std::uint8_t>(si.format));
                digest.feed(static_cast<std::uint8_t>(si.arch.op));
                digest.feed(si.arch.dst);
                digest.feed(si.arch.src1);
                digest.feed(si.arch.src2);
                digest.feed(si.cdpRun);
                digest.feed(static_cast<std::uint8_t>(si.flow));
            }
        }
    }
    std::ostringstream os;
    os << app << ' ' << label;
    for (const std::uint64_t v :
         {p.chainsAttempted, p.chainsTransformed, p.hoistFailures,
          p.localRenames, p.blockedRaw, p.blockedMem, p.blockedCtl,
          p.blockedRename, p.instsConverted, p.instsExpanded,
          p.cdpsInserted, p.switchBranchesInserted,
          static_cast<std::uint64_t>(m.prog.instCount()),
          static_cast<std::uint64_t>(m.prog.textBytes()), thumb}) {
        os << ' ' << v;
    }
    os << ' ' << std::hex << std::setw(16) << std::setfill('0')
       << digest.value();
    return os.str();
}

const char *const kHeader =
    "# Transformed programs of every app x distinct transform at "
    "--insts 10000 (tests/test_transform_golden.cc).\n"
    "# Regenerate only with a change that means to alter what the "
    "passes produce.\n"
    "# app variant chainsAttempted chainsTransformed hoistFailures "
    "localRenames blockedRaw blockedMem blockedCtl blockedRename "
    "instsConverted instsExpanded cdpsInserted switchBranchesInserted "
    "instCount textBytes thumb16 fnv1a64(uid,address,format,op,dst,"
    "src1,src2,cdpRun,flow)";

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

TEST(TransformGolden, EveryTransformMatchesRecordedProgram)
{
    sim::ExperimentOptions options;
    options.traceInsts = 10000;

    const auto apps = sim::parseApps("all");
    std::vector<sim::Variant> unique;
    std::set<sim::TransformKey> seen;
    for (const auto &v : sim::parseVariants("all")) {
        if (seen.insert(sim::transformMemoKey(v, options.profileFraction))
                .second) {
            unique.push_back(v);
        }
    }

    // Each pass is verified structurally through an audit, whatever
    // CRITICS_VERIFY says: the deeper tiers cost ~8x as much here and
    // are covered by the verify tests and the lint gate.
    std::vector<std::string> actual(apps.size() * unique.size());
    std::vector<std::size_t> errors(apps.size(), 0);
    runner::ThreadPool::shared().forEach(apps.size(), [&](std::size_t a) {
        sim::AppExperiment exp(apps[a], options);
        for (std::size_t v = 0; v < unique.size(); ++v) {
            verify::PassAudit audit;
            audit.level = verify::Level::Structural;
            actual[a * unique.size() + v] = transformLine(
                apps[a].name, unique[v].label,
                exp.materializeTransform(unique[v], &audit));
            errors[a] += audit.report.errors();
        }
    });
    for (std::size_t a = 0; a < apps.size(); ++a)
        EXPECT_EQ(errors[a], 0u) << apps[a].name;

    const auto golden =
        readLines(std::string(CRITICS_GOLDEN_DIR) + "/" + kGoldenName);
    EXPECT_EQ(golden.size(), actual.size());
    for (std::size_t i = 0; i < std::min(golden.size(), actual.size());
         ++i) {
        EXPECT_EQ(golden[i], actual[i]);
    }
    if (golden != actual) {
        std::ofstream out("transform_10k.actual.txt");
        out << kHeader << '\n';
        for (const auto &line : actual)
            out << line << '\n';
        ADD_FAILURE() << "recomputed table written to "
                         "transform_10k.actual.txt";
    }
}
