/**
 * @file
 * Criticality-analysis tests: fanout computation, IC extraction on
 * hand-built DFGs (including the paper's Fig. 2 example), chain
 * statistics and the PC-indexed criticality table.  Golden partitions
 * of the Fig. 2 trace and of a scrambled dependence soup pin every
 * greedy tie-break and lookahead decision.
 */

#include <gtest/gtest.h>

#include "analysis/criticality.hh"
#include "helpers.hh"

using namespace critics;
using namespace critics::test;
using analysis::CriticalityConfig;
using analysis::DynChains;

namespace
{

/** Fig. 2-style trace: I0 feeds I1..I10; I10 feeds I11..I20; I20 feeds
 *  I22 (via nothing) — a chain of high-fanout nodes with a low-fanout
 *  link. */
program::Trace
fig2Trace()
{
    program::Trace t;
    auto add = [&](program::DynIdx dep0, program::DynIdx dep1) {
        const auto i = static_cast<std::uint32_t>(t.size());
        t.insts.push_back(dyn(i, 0x10000 + 4 * i, OpClass::IntAlu,
                              dep0, dep1));
    };
    add(program::NoDep, program::NoDep);   // I0
    for (int k = 1; k <= 10; ++k)          // I1..I10 read I0
        add(0, program::NoDep);
    for (int k = 11; k <= 20; ++k)         // I11..I20 read I10
        add(10, program::NoDep);
    add(1, 11);                            // I21 reads I1 and I11
    add(20, program::NoDep);               // I22 reads I20
    for (int k = 0; k < 9; ++k)            // I23.. read I22
        add(22, program::NoDep);
    return t;
}

/** A deterministic pseudo-random dependence trace for the recorded
 *  partition checks (no Rng dependence; a plain LCG is plenty). */
program::Trace
scrambledTrace(std::size_t n)
{
    program::Trace t;
    std::uint64_t state = 0x2545F4914F6CDD1DULL;
    auto next = [&]() {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<std::uint32_t>(state >> 33);
    };
    for (std::size_t i = 0; i < n; ++i) {
        program::DynIdx dep0 = program::NoDep;
        program::DynIdx dep1 = program::NoDep;
        if (i > 0 && next() % 4 != 0)
            dep0 = static_cast<program::DynIdx>(next() % i);
        if (i > 0 && next() % 3 == 0)
            dep1 = static_cast<program::DynIdx>(next() % i);
        t.insts.push_back(dyn(static_cast<std::uint32_t>(i % 97),
                              0x10000 + 4 * static_cast<std::uint32_t>(i),
                              OpClass::IntAlu, dep0, dep1));
    }
    return t;
}

} // namespace

TEST(Fanout, CountsDirectConsumers)
{
    const auto trace = fig2Trace();
    CriticalityConfig cfg;
    const auto info = analysis::computeFanout(trace, cfg);
    EXPECT_EQ(info.fanout[0], 10);
    EXPECT_EQ(info.fanout[10], 10);
    EXPECT_EQ(info.fanout[1], 1);  // read by I21
    EXPECT_EQ(info.fanout[20], 1); // read by I22
    EXPECT_EQ(info.fanout[22], 9);
    EXPECT_TRUE(info.critMask[0]);
    EXPECT_TRUE(info.critMask[10]);
    EXPECT_FALSE(info.critMask[20]);
    EXPECT_GT(info.critFraction(), 0.0);
}

TEST(Fanout, WindowLimitsCounting)
{
    // Consumer far beyond the window must not count.
    program::Trace t;
    t.insts.push_back(dyn(0, 0x10000, OpClass::IntAlu));
    for (int i = 1; i < 300; ++i)
        t.insts.push_back(dyn(i, 0x10000 + 4 * i, OpClass::IntAlu));
    t.insts.push_back(dyn(300, 0x10000 + 1200, OpClass::IntAlu, 0));
    CriticalityConfig cfg;
    cfg.window = 128;
    const auto info = analysis::computeFanout(t, cfg);
    EXPECT_EQ(info.fanout[0], 0);
    cfg.window = 1024;
    const auto wide = analysis::computeFanout(t, cfg);
    EXPECT_EQ(wide.fanout[0], 1);
}

TEST(Fanout, DupDepCountsOnce)
{
    // dep0 == dep1 is one consumer, not two.
    program::Trace t;
    t.insts.push_back(dyn(0, 0x10000, OpClass::IntAlu));
    t.insts.push_back(dyn(1, 0x10004, OpClass::IntAlu, 0, 0));
    CriticalityConfig cfg;
    const auto info = analysis::computeFanout(t, cfg);
    EXPECT_EQ(info.fanout[0], 1);
}

TEST(Fanout, DupDepSaturatesAtCap)
{
    // 0x10001 dup-dep consumers of I0 inside one huge window: the
    // counter must saturate at 0xFFFF and stay there.  (The old
    // increment-both-then-compensate scheme suppressed the increments
    // at the cap but still fired the decrement, leaving 0xFFFE.)
    const std::size_t consumers = 0x10001;
    program::Trace t;
    t.insts.reserve(consumers + 1);
    t.insts.push_back(dyn(0, 0x10000, OpClass::IntAlu));
    for (std::size_t i = 0; i < consumers; ++i) {
        t.insts.push_back(dyn(static_cast<std::uint32_t>(1 + i),
                              0x10004, OpClass::IntAlu, 0, 0));
    }
    CriticalityConfig cfg;
    cfg.window = 1u << 20;
    const auto info = analysis::computeFanout(t, cfg);
    EXPECT_EQ(info.fanout[0], 0xFFFF);
}

TEST(Fanout, SingleDepSaturatesAtCap)
{
    const std::size_t consumers = 0x10001;
    program::Trace t;
    t.insts.reserve(consumers + 1);
    t.insts.push_back(dyn(0, 0x10000, OpClass::IntAlu));
    for (std::size_t i = 0; i < consumers; ++i) {
        t.insts.push_back(dyn(static_cast<std::uint32_t>(1 + i),
                              0x10004, OpClass::IntAlu, 0));
    }
    CriticalityConfig cfg;
    cfg.window = 1u << 20;
    const auto info = analysis::computeFanout(t, cfg);
    EXPECT_EQ(info.fanout[0], 0xFFFF);
}

TEST(Chains, ExtractsTheCriticalChain)
{
    const auto trace = fig2Trace();
    CriticalityConfig cfg;
    const auto info = analysis::computeFanout(trace, cfg);
    const auto chains = analysis::extractChains(trace, info, cfg);

    // Every instruction appears in exactly one chain.
    std::vector<int> seen(trace.size(), 0);
    for (const DynChains::ChainRef chain : chains)
        for (const auto idx : chain)
            ++seen[idx];
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(seen[i], 1) << "dyn " << i;

    // The chain from I0 must run through I10 (the best future critical)
    // and continue via I20 to I22.
    ASSERT_GT(chains.size(), 0u);
    DynChains::ChainRef chain0 = chains[0];
    for (const DynChains::ChainRef chain : chains)
        if (chain.front() == 0)
            chain0 = chain;
    ASSERT_GE(chain0.size(), 4u);
    EXPECT_EQ(chain0[0], 0);
    EXPECT_EQ(chain0[1], 10);
    EXPECT_EQ(chain0[2], 20);
    EXPECT_EQ(chain0[3], 22);
}

TEST(Chains, GoldenFig2Partition)
{
    // The full pinned partition of the Fig. 2 trace: one five-member
    // chain (I0 -> I10 -> I20 -> I22 -> I23, the greedy head eats the
    // first of I22's tied consumers) and 27 singletons in start order.
    const auto trace = fig2Trace();
    CriticalityConfig cfg;
    const auto info = analysis::computeFanout(trace, cfg);
    const auto chains = analysis::extractChains(trace, info, cfg);

    ASSERT_EQ(chains.size(), 28u);
    const std::vector<program::DynIdx> lead = {0, 10, 20, 22, 23};
    ASSERT_EQ(chains[0].size(), lead.size());
    for (std::size_t k = 0; k < lead.size(); ++k)
        EXPECT_EQ(chains[0][k], lead[k]) << "member " << k;

    const std::vector<program::DynIdx> singles = {
        1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16, 17, 18,
        19, 21, 24, 25, 26, 27, 28, 29, 30, 31};
    ASSERT_EQ(chains.size(), singles.size() + 1);
    for (std::size_t c = 0; c < singles.size(); ++c) {
        ASSERT_EQ(chains[c + 1].size(), 1u) << "chain " << c + 1;
        EXPECT_EQ(chains[c + 1][0], singles[c]);
    }
}

TEST(Chains, MembersAreSelfContained)
{
    const auto trace = fig2Trace();
    CriticalityConfig cfg;
    const auto info = analysis::computeFanout(trace, cfg);
    const auto chains = analysis::extractChains(trace, info, cfg);
    // I21 has two in-window producers and must never be a chain
    // extension (only a head).
    for (const DynChains::ChainRef chain : chains) {
        for (std::size_t k = 1; k < chain.size(); ++k)
            EXPECT_NE(chain[k], 21);
    }
}

TEST(Chains, ScrambledTraceMatchesRecordedPartition)
{
    // A dependence soup exercises every greedy tie-break and lookahead
    // path; the recorded chain count and members/offsets digest pin
    // the partition byte for byte.
    struct Expected
    {
        std::size_t n;
        std::size_t chains;
        std::uint64_t digest;
    };
    for (const Expected &e : {Expected{64, 41, 0xa0a0a3e3272293e0ULL},
                              Expected{1000, 824, 0x61c51cbdfde6429eULL},
                              Expected{5000, 4702, 0x2412c61c7cffb1c3ULL}}) {
        const auto trace = scrambledTrace(e.n);
        CriticalityConfig cfg;
        cfg.window = 64;
        const auto info = analysis::computeFanout(trace, cfg);
        const auto chains = analysis::extractChains(trace, info, cfg);
        EXPECT_EQ(chains.size(), e.chains) << "n=" << e.n;
        EXPECT_EQ(chainsDigest(chains), e.digest) << "n=" << e.n;
    }
}

TEST(Chains, GapHistogram)
{
    const auto trace = fig2Trace();
    CriticalityConfig cfg;
    const auto info = analysis::computeFanout(trace, cfg);
    const auto chains = analysis::extractChains(trace, info, cfg);
    const auto stats = analysis::chainStatistics(chains, info);

    // The I0 -> I10 -> I20 -> I22 chain has gaps 0 (I0 to I10) and 1
    // (I10 -(I20)-> I22).
    EXPECT_GT(stats.critGap.at(0), 0.0);
    EXPECT_GT(stats.critGap.at(1), 0.0);
    EXPECT_GT(stats.multiMemberChains, 0u);
    EXPECT_GT(stats.icLength.maxBucket(), 2);
    EXPECT_GE(stats.noDependentCritFrac, 0.0);
    EXPECT_LE(stats.noDependentCritFrac, 1.0);
}

TEST(CriticalSet, SelectsBiasedStatics)
{
    // uid 1 always critical, uid 2 never.
    program::Trace t;
    for (int rep = 0; rep < 50; ++rep) {
        const auto base = static_cast<program::DynIdx>(t.size());
        t.insts.push_back(dyn(1, 0x10000, OpClass::IntAlu));
        for (int c = 0; c < 9; ++c)
            t.insts.push_back(
                dyn(2, 0x10004 + 4 * c, OpClass::IntAlu, base));
    }
    CriticalityConfig cfg;
    const auto info = analysis::computeFanout(t, cfg);
    const auto set = analysis::buildCriticalSet(t, info);
    EXPECT_TRUE(set.count(1));
    EXPECT_FALSE(set.count(2));
}

class FanoutThreshold : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FanoutThreshold, MonotoneCritFraction)
{
    const auto trace = fig2Trace();
    CriticalityConfig lo;
    lo.fanoutThreshold = 2;
    CriticalityConfig hi;
    hi.fanoutThreshold = GetParam();
    const auto fLo = analysis::computeFanout(trace, lo);
    const auto fHi = analysis::computeFanout(trace, hi);
    EXPECT_GE(fLo.critFraction(), fHi.critFraction());
}

INSTANTIATE_TEST_SUITE_P(Thresholds, FanoutThreshold,
                         ::testing::Values(4u, 8u, 12u, 16u));
