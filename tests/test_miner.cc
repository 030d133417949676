/**
 * @file
 * Tests for CritIC mining and selection: signature aggregation,
 * end-trimming, thresholding, length handling, convertibility and
 * non-overlap constraints, and the coverage CDF.  Golden hand-built
 * traces and a recorded chain-loop result pin the aggregation numbers.
 */

#include <algorithm>
#include <gtest/gtest.h>

#include "analysis/miner.hh"
#include "helpers.hh"
#include "program/emit.hh"
#include "program/walker.hh"

using namespace critics;
using namespace critics::test;
using analysis::CriticalityConfig;
using analysis::DynChains;
using analysis::MinedChain;
using analysis::MineResult;
using analysis::SelectOptions;

namespace
{

/** A single-block loop program containing one designed chain:
 *  C1 (uid 1) -> link (uid 2) -> C2 (uid 3) with enough consumers for
 *  both chain nodes to be high fanout. */
Program
chainLoopProgram()
{
    BasicBlock bb;
    bb.insts.push_back(inst(0, OpClass::IntAlu, 6)); // filler def
    bb.insts.push_back(inst(1, OpClass::IntAlu, 1));         // C1
    bb.insts.push_back(inst(2, OpClass::IntAlu, 2, 1));      // link
    bb.insts.push_back(inst(3, OpClass::IntAlu, 3, 2));      // C2
    std::uint32_t uid = 4;
    for (int c = 0; c < 12; ++c) // consumers of C1 and C2
        bb.insts.push_back(inst(uid++, OpClass::IntAlu,
                                static_cast<std::uint8_t>(8 + c % 3),
                                1, 3));
    StaticInst loop = inst(uid++, OpClass::Branch, isa::NoReg, 8);
    loop.flow = program::FlowKind::CondBranch;
    loop.targetBlock = 0;
    loop.takenBias = 1.0f;
    bb.insts.push_back(loop);
    return makeProgram({bb});
}

struct Mined
{
    Program prog;
    program::Trace trace;
    analysis::FanoutInfo fanout;
    analysis::DynChains chains;
    MineResult result;
};

Mined
mineChainLoop(double profileFraction = 1.0)
{
    Mined m;
    m.prog = chainLoopProgram();
    Rng rng(3);
    program::WalkLimits limits;
    limits.targetInsts = 6000;
    const auto path = program::walkProgram(m.prog, rng, limits);
    m.trace = program::emitTrace(m.prog, path);
    CriticalityConfig cfg;
    m.fanout = analysis::computeFanout(m.trace, cfg);
    m.chains = analysis::extractChains(m.trace, m.fanout, cfg);
    m.result = analysis::mineCritIcs(m.trace, m.prog, m.chains,
                                     m.fanout, cfg, profileFraction);
    return m;
}

/**
 * A hand-built mining input with fully known trim behavior:
 *
 *  - two executions of a 5-member dyn chain over uids 0..4 whose fanout
 *    pattern [0, 9, 9, 9, 0] forces the trim loop to shave both ends
 *    (avg 5.4 < 8, then 6.75 < 8, then 9 >= 8) down to uids [1,2,3];
 *  - one 2-member chain (uids 0 and 4, fanouts 3 and 3) that survives
 *    the >= 2 length floor, is aggregated, and is then dropped by the
 *    avg-fanout threshold.
 */
struct GoldenInput
{
    Program prog;
    program::Trace trace;
    analysis::FanoutInfo fanout;
    DynChains chains;
    CriticalityConfig cfg;
};

GoldenInput
goldenInput()
{
    GoldenInput g;
    BasicBlock bb;
    for (std::uint32_t k = 0; k < 5; ++k)
        bb.insts.push_back(
            inst(k, OpClass::IntAlu, static_cast<std::uint8_t>(k)));
    g.prog = makeProgram({bb});

    const std::uint16_t fanouts[] = {0, 9, 9, 9, 0};
    for (int rep = 0; rep < 2; ++rep) {
        for (std::uint32_t k = 0; k < 5; ++k) {
            g.trace.insts.push_back(
                dyn(k, 0x10000 + 4 * k, OpClass::IntAlu));
            g.fanout.fanout.push_back(fanouts[k]);
        }
    }
    g.trace.insts.push_back(dyn(0, 0x10000, OpClass::IntAlu));
    g.fanout.fanout.push_back(3);
    g.trace.insts.push_back(dyn(4, 0x10010, OpClass::IntAlu));
    g.fanout.fanout.push_back(3);
    g.fanout.critMask.assign(g.trace.size(), 0);

    g.chains.members = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
    g.chains.offsets = {0, 5, 10, 12};
    return g;
}

} // namespace

TEST(Miner, FindsTheDesignedChain)
{
    const auto m = mineChainLoop();
    ASSERT_FALSE(m.result.chains.empty());
    // The top chain by coverage must be (a superset of) 1 -> 2 -> 3.
    const auto &top = m.result.chains.front();
    ASSERT_GE(top.uids.size(), 3u);
    EXPECT_EQ(top.uids[0], 1u);
    EXPECT_EQ(top.uids[1], 2u);
    EXPECT_EQ(top.uids[2], 3u);
    EXPECT_GE(top.avgFanout, 8.0);
    EXPECT_GT(top.dynCount, 100u);
    EXPECT_TRUE(top.directlyConvertible);
    EXPECT_EQ(top.memberFanout.size(), top.uids.size());
    EXPECT_EQ(top.memberConvertible.size(), top.uids.size());
}

TEST(Miner, GoldenTrimAndAggregation)
{
    const auto g = goldenInput();
    const auto result = analysis::mineCritIcs(
        g.trace, g.prog, g.chains, g.fanout, g.cfg, 1.0);

    EXPECT_EQ(result.dynInsts, 12u);
    // Three segments survive the length floor: two trimmed copies of
    // uids [1,2,3] and the low-fanout pair [0,4].
    EXPECT_EQ(result.segmentsSeen, 3u);
    // The pair's avg fanout 3 < 8 drops it; one unique chain remains.
    ASSERT_EQ(result.chains.size(), 1u);
    const MinedChain &chain = result.chains.front();
    const std::vector<program::InstUid> uids = {1, 2, 3};
    EXPECT_EQ(chain.uids, uids);
    EXPECT_EQ(chain.dynCount, 2u);
    EXPECT_DOUBLE_EQ(chain.avgFanout, 9.0);
    const std::vector<double> member = {9.0, 9.0, 9.0};
    EXPECT_EQ(chain.memberFanout, member);
    const std::vector<std::uint8_t> conv = {1, 1, 1};
    EXPECT_EQ(chain.memberConvertible, conv);
    EXPECT_TRUE(chain.directlyConvertible);
    EXPECT_EQ(chain.coverage(), 6u);
}

TEST(Miner, ChainLoopMatchesRecordedResult)
{
    // The recorded aggregation of the designed loop: every segment
    // cut, trim decision and fanout sum feeds the digest.
    const auto m = mineChainLoop();
    EXPECT_EQ(m.result.dynInsts, 6001u);
    EXPECT_EQ(m.result.segmentsSeen, 706u);
    EXPECT_EQ(m.result.chains.size(), 1u);
    EXPECT_EQ(minedDigest(m.result), 0xdd7f19b2671807ccULL);
}

TEST(Miner, SharedLocTableMatchesPrivate)
{
    // Passing the AppExperiment-shared LocTable must not change
    // anything vs the miner building its own.
    auto m = mineChainLoop();
    CriticalityConfig cfg;
    const analysis::LocTable locs(m.prog);
    const auto shared = analysis::mineCritIcs(
        m.trace, m.prog, m.chains, m.fanout, cfg, 1.0, &locs);
    ASSERT_EQ(shared.chains.size(), m.result.chains.size());
    for (std::size_t i = 0; i < shared.chains.size(); ++i) {
        EXPECT_EQ(shared.chains[i].uids, m.result.chains[i].uids);
        EXPECT_EQ(shared.chains[i].dynCount,
                  m.result.chains[i].dynCount);
    }
}

TEST(Miner, ChainsSortedByCoverage)
{
    const auto m = mineChainLoop();
    for (std::size_t i = 1; i < m.result.chains.size(); ++i) {
        EXPECT_GE(m.result.chains[i - 1].coverage(),
                  m.result.chains[i].coverage());
    }
}

TEST(Miner, ProfileFractionLimitsCounts)
{
    const auto full = mineChainLoop(1.0);
    const auto half = mineChainLoop(0.5);
    ASSERT_FALSE(full.result.chains.empty());
    ASSERT_FALSE(half.result.chains.empty());
    EXPECT_LT(half.result.chains.front().dynCount,
              full.result.chains.front().dynCount);
}

TEST(Selection, PicksAndCoversNonOverlapping)
{
    const auto m = mineChainLoop();
    const auto sel = analysis::selectCritIcs(m.result, {});
    ASSERT_FALSE(sel.chains.empty());
    EXPECT_GT(sel.expectedCoverage, 0.0);
    std::unordered_set<program::InstUid> seen;
    for (const auto &chain : sel.chains) {
        for (const auto uid : chain) {
            EXPECT_TRUE(seen.insert(uid).second)
                << "uid " << uid << " selected twice";
        }
    }
}

TEST(Selection, MaxLenTruncatesToBestWindow)
{
    const auto m = mineChainLoop();
    SelectOptions opt;
    opt.maxLen = 2;
    const auto sel = analysis::selectCritIcs(m.result, opt);
    for (const auto &chain : sel.chains)
        EXPECT_LE(chain.size(), 2u);
}

TEST(Selection, ExactLenFiltersStrictly)
{
    const auto m = mineChainLoop();
    SelectOptions opt;
    opt.exactLen = 3;
    const auto sel = analysis::selectCritIcs(m.result, opt);
    for (const auto &chain : sel.chains)
        EXPECT_EQ(chain.size(), 3u);
}

TEST(Selection, ConvertibilityFilter)
{
    auto m = mineChainLoop();
    // Poison every mined chain's convertibility — the whole-chain bit
    // and the per-member bits the windowed test consults.
    for (auto &chain : m.result.chains) {
        chain.directlyConvertible = false;
        std::fill(chain.memberConvertible.begin(),
                  chain.memberConvertible.end(),
                  static_cast<std::uint8_t>(0));
    }
    SelectOptions strict;
    strict.requireConvertible = true;
    EXPECT_TRUE(analysis::selectCritIcs(m.result, strict).chains.empty());
    SelectOptions ideal;
    ideal.ideal = true;
    EXPECT_FALSE(analysis::selectCritIcs(m.result, ideal).chains.empty());
}

TEST(Selection, ConvertibilityTestsTheSelectedWindow)
{
    // A chain whose ends are not Thumb-convertible but whose best
    // maxLen=2 window is: the window must pass the filter (the old code
    // tested the whole chain and skipped it).
    MineResult mined;
    mined.dynInsts = 100;
    MinedChain chain;
    chain.uids = {1, 2, 3, 4};
    chain.dynCount = 10;
    chain.avgFanout = 5.0;
    chain.memberFanout = {1.0, 9.0, 9.0, 1.0};
    chain.memberConvertible = {0, 1, 1, 0};
    chain.directlyConvertible = false;
    mined.chains.push_back(chain);

    SelectOptions two;
    two.maxLen = 2;
    const auto sel = analysis::selectCritIcs(mined, two);
    ASSERT_EQ(sel.chains.size(), 1u);
    const std::vector<program::InstUid> window = {2, 3};
    EXPECT_EQ(sel.chains.front(), window);
    EXPECT_DOUBLE_EQ(sel.expectedCoverage, 0.2);

    // maxLen=3 ties 1+9+9 vs 9+9+1; the first window wins and includes
    // the non-convertible uid 1, so the chain is (correctly) skipped.
    SelectOptions three;
    three.maxLen = 3;
    EXPECT_TRUE(analysis::selectCritIcs(mined, three).chains.empty());
}

TEST(Selection, MaxChainsCap)
{
    const auto m = mineChainLoop();
    SelectOptions opt;
    opt.maxChains = 1;
    EXPECT_LE(analysis::selectCritIcs(m.result, opt).chains.size(), 1u);
}

TEST(CoverageCdf, MonotoneNormalized)
{
    const auto m = mineChainLoop();
    const auto cdf = analysis::coverageCdf(m.result);
    ASSERT_FALSE(cdf.all.empty());
    for (std::size_t i = 1; i < cdf.all.size(); ++i) {
        EXPECT_GE(cdf.all[i].x, cdf.all[i - 1].x);
        EXPECT_GE(cdf.all[i].fraction, cdf.all[i - 1].fraction);
    }
    EXPECT_LE(cdf.all.back().fraction, 1.0 + 1e-9);
    EXPECT_GE(cdf.convertibleChainFraction, 0.0);
    EXPECT_LE(cdf.convertibleChainFraction, 1.0);
}

TEST(CoverageCdf, DecimationKeepsTheTerminalPoint)
{
    // For every series length the decimated curve must end at the true
    // terminal point (rank = #chains, fraction = total coverage): the
    // old 63 * stride index could truncate to size - 2.
    for (std::size_t n = 65; n <= 400; ++n) {
        MineResult mined;
        mined.dynInsts = 2 * n;
        for (std::size_t i = 0; i < n; ++i) {
            MinedChain chain;
            chain.uids = {static_cast<program::InstUid>(2 * i),
                          static_cast<program::InstUid>(2 * i + 1)};
            chain.dynCount = 1;
            chain.avgFanout = 9.0;
            chain.directlyConvertible = true;
            mined.chains.push_back(std::move(chain));
        }
        const auto cdf = analysis::coverageCdf(mined);
        ASSERT_EQ(cdf.all.size(), 64u) << "n=" << n;
        EXPECT_DOUBLE_EQ(cdf.all.front().x, 1.0) << "n=" << n;
        EXPECT_DOUBLE_EQ(cdf.all.back().x, static_cast<double>(n))
            << "n=" << n;
        EXPECT_NEAR(cdf.all.back().fraction, 1.0, 1e-12) << "n=" << n;
    }
}
