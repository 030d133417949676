/**
 * @file
 * Property-style sweeps across the ISA and the simulator configuration
 * space: exhaustive encode/decode round-trips, and monotonicity /
 * conservation invariants of the pipeline under many configurations.
 */

#include <gtest/gtest.h>

#include "cpu/cpu.hh"
#include "helpers.hh"
#include "isa/isa.hh"
#include "support/rng.hh"

using namespace critics;
using namespace critics::test;

// ---- Exhaustive encoding round-trips ----------------------------------------

TEST(EncodingSweep, AllArm32ShapesRoundTrip)
{
    // Every op class x dst x src1 x src2 presence/extreme combination.
    std::size_t checked = 0;
    for (unsigned op = 0; op < isa::NumOpClasses; ++op) {
        if (static_cast<isa::OpClass>(op) == isa::OpClass::Cdp)
            continue; // encoded via encodeCdp
        for (const std::uint8_t dst : {isa::NoReg, std::uint8_t(0),
                                       std::uint8_t(7),
                                       std::uint8_t(15)}) {
            for (const std::uint8_t s1 : {isa::NoReg, std::uint8_t(0),
                                          std::uint8_t(15)}) {
                for (const std::uint8_t s2 :
                     {isa::NoReg, std::uint8_t(3), std::uint8_t(14)}) {
                    for (const bool pred : {false, true}) {
                        isa::OperandInfo info;
                        info.op = static_cast<isa::OpClass>(op);
                        info.dst = dst;
                        info.src1 = s1;
                        info.src2 = s2;
                        info.predicated = pred;
                        info.imm = static_cast<std::uint8_t>(
                            checked & 0xFF);
                        const auto d =
                            isa::decodeArm32(isa::encodeArm32(info));
                        ASSERT_EQ(d.op, info.op);
                        ASSERT_EQ(d.dst, info.dst);
                        ASSERT_EQ(d.src1, info.src1);
                        ASSERT_EQ(d.src2, info.src2);
                        ASSERT_EQ(d.predicated, info.predicated);
                        ASSERT_EQ(d.imm, info.imm);
                        ++checked;
                    }
                }
            }
        }
    }
    EXPECT_GT(checked, 500u);
}

TEST(EncodingSweep, AllConvertibleThumbShapesRoundTrip)
{
    std::size_t checked = 0;
    for (unsigned op = 0; op < isa::NumOpClasses; ++op) {
        const auto cls = static_cast<isa::OpClass>(op);
        if (cls == isa::OpClass::Cdp || !isa::hasThumbEncoding(cls))
            continue;
        for (std::uint8_t dst = 0; dst <= isa::ThumbMaxDstReg; ++dst) {
            for (std::uint8_t s1 = 0; s1 <= isa::ThumbMaxSrcReg;
                 s1 += 3) {
                for (const std::uint8_t s2 :
                     {isa::NoReg, std::uint8_t(0), std::uint8_t(7)}) {
                    isa::OperandInfo info;
                    info.op = cls;
                    info.dst = dst;
                    info.src1 = s1;
                    info.src2 = s2;
                    ASSERT_TRUE(isa::thumbConvertible(info));
                    const auto d =
                        isa::decodeThumb16(isa::encodeThumb16(info));
                    ASSERT_EQ(d.op, info.op);
                    ASSERT_EQ(d.dst, info.dst);
                    ASSERT_EQ(d.src1, info.src1);
                    ASSERT_EQ(d.src2, info.src2);
                    ++checked;
                }
            }
        }
    }
    EXPECT_GT(checked, 300u);
}

TEST(EncodingSweep, DirectConvertibleImpliesConvertible)
{
    Rng rng(77);
    for (int i = 0; i < 5000; ++i) {
        isa::OperandInfo info;
        info.op = static_cast<isa::OpClass>(
            rng.below(isa::NumOpClasses));
        info.dst = static_cast<std::uint8_t>(rng.below(17));
        if (info.dst == 16)
            info.dst = isa::NoReg;
        info.src1 = static_cast<std::uint8_t>(rng.below(17));
        if (info.src1 == 16)
            info.src1 = isa::NoReg;
        info.src2 = static_cast<std::uint8_t>(rng.below(17));
        if (info.src2 == 16)
            info.src2 = isa::NoReg;
        info.predicated = rng.chance(0.3);
        info.imm = static_cast<std::uint8_t>(rng.below(256));
        if (isa::thumbDirectlyConvertible(info)) {
            EXPECT_TRUE(isa::thumbConvertible(info));
        }
    }
}

// ---- Pipeline configuration sweeps ------------------------------------------

namespace
{

struct ConfigPoint
{
    unsigned rob;
    unsigned fetchQ;
    unsigned issue;
};

} // namespace

class PipelineConfigSweep
    : public ::testing::TestWithParam<ConfigPoint>
{
};

TEST_P(PipelineConfigSweep, ConservationAndBounds)
{
    const auto point = GetParam();
    cpu::CpuConfig cfg;
    cfg.robSize = point.rob;
    cfg.fetchQueueSize = point.fetchQ;
    cfg.issueWidth = point.issue;

    program::Trace trace;
    Rng rng(13);
    for (int i = 0; i < 12000; ++i) {
        auto d = dyn(i % 200, 0x10000 + 4 * (i % 200), OpClass::IntAlu);
        if (rng.chance(0.3) && i > 0)
            d.dep0 = i - 1;
        if (rng.chance(0.1)) {
            d.op = OpClass::Load;
            d.memAddr = 0x40000000 + 64 * (i % 64);
        }
        trace.insts.push_back(d);
    }
    bpu::PerfectPredictor bp;
    const auto stats =
        cpu::runTrace(trace, cfg, mem::MemConfig{}, bp);

    // Conservation: everything commits exactly once.
    EXPECT_EQ(stats.committed, trace.size());
    EXPECT_EQ(stats.all.insts, trace.size());
    // Bounds: IPC can never exceed the narrowest width.
    EXPECT_LE(stats.ipc(),
              std::min<double>(point.issue, 4.0) + 1e-9);
    // Stall cycles can never exceed total cycles.
    EXPECT_LE(stats.stallForIIcache + stats.stallForIRedirect +
                  stats.stallForRd,
              stats.cycles);
    // Stage residencies are non-negative.
    EXPECT_GE(stats.all.fetch, 0.0);
    EXPECT_GE(stats.all.issueWait, 0.0);
    EXPECT_GE(stats.all.commitWait, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PipelineConfigSweep,
    ::testing::Values(ConfigPoint{32, 8, 2}, ConfigPoint{64, 16, 4},
                      ConfigPoint{128, 32, 4}, ConfigPoint{128, 32, 8},
                      ConfigPoint{256, 64, 4}, ConfigPoint{16, 4, 1}));

TEST(PipelineMonotonicity, BiggerRobNeverSlower)
{
    const auto trace = serialChainTrace(8000);
    std::uint64_t prev = ~0ull;
    for (const unsigned rob : {16u, 32u, 64u, 128u}) {
        cpu::CpuConfig cfg;
        cfg.robSize = rob;
        bpu::PerfectPredictor bp;
        const auto stats =
            cpu::runTrace(trace, cfg, mem::MemConfig{}, bp);
        EXPECT_LE(stats.cycles, prev) << "rob " << rob;
        prev = stats.cycles;
    }
}

TEST(PipelineMonotonicity, LowerMissLatencyNeverSlower)
{
    program::Trace trace;
    for (int i = 0; i < 6000; ++i) {
        auto d = dyn(i % 100, 0x10000 + 4 * (i % 100), OpClass::Load);
        d.memAddr = 0x50000000u + 4096u * static_cast<std::uint32_t>(i);
        trace.insts.push_back(d);
    }
    mem::MemConfig slow;
    mem::MemConfig fast;
    fast.dram.tCl = fast.dram.tRcd = fast.dram.tRp = 8;
    fast.l2.hitLatency = 4;
    cpu::CpuConfig cfg;
    bpu::PerfectPredictor b1, b2;
    const auto slowStats = cpu::runTrace(trace, cfg, slow, b1);
    const auto fastStats = cpu::runTrace(trace, cfg, fast, b2);
    EXPECT_LE(fastStats.cycles, slowStats.cycles);
}
