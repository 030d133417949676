/**
 * @file
 * Compiler-pass tests: the CritIC transform (hoisting + conversion +
 * switch emission) and the OPP16/Compress passes, including the key
 * semantic-preservation invariant — a rewritten program must execute
 * the same work with the same dataflow when the same control path is
 * replayed.
 */

#include <gtest/gtest.h>

#include <map>

#include "analysis/criticality.hh"
#include "analysis/miner.hh"
#include "compiler/passes.hh"
#include "helpers.hh"
#include "program/emit.hh"
#include "program/walker.hh"
#include "workload/synth.hh"

using namespace critics;
using namespace critics::test;
using compiler::CritIcPassOptions;
using compiler::SwitchMode;
using isa::Format;

namespace
{

/** Block with a spread-out chain 1 -> 3 -> 5 amid independent fillers. */
Program
spreadChainProgram()
{
    BasicBlock bb;
    bb.insts.push_back(inst(0, OpClass::IntAlu, 6));
    bb.insts.push_back(inst(1, OpClass::IntAlu, 1));    // C1
    bb.insts.push_back(inst(2, OpClass::IntAlu, 8, 1)); // consumer
    bb.insts.push_back(inst(3, OpClass::IntAlu, 2, 1)); // link
    bb.insts.push_back(inst(4, OpClass::IntAlu, 9, 1)); // consumer
    bb.insts.push_back(inst(5, OpClass::IntAlu, 3, 2)); // C2
    bb.insts.push_back(inst(6, OpClass::IntAlu, 10, 3));
    return makeProgram({bb});
}

std::vector<std::vector<program::InstUid>>
theChain()
{
    return {{1u, 3u, 5u}};
}

std::vector<program::InstUid>
blockUidOrder(const Program &prog)
{
    std::vector<program::InstUid> uids;
    for (const auto &si : prog.funcs[0].blocks[0].insts)
        uids.push_back(si.uid);
    return uids;
}

} // namespace

TEST(CritIcPass, HoistsChainContiguousAndConverts)
{
    Program prog = spreadChainProgram();
    CritIcPassOptions opt;
    opt.switchMode = SwitchMode::Cdp;
    const auto stats =
        compiler::applyCritIcPass(prog, theChain(), opt);
    EXPECT_EQ(stats.chainsTransformed, 1u);
    EXPECT_EQ(stats.instsConverted, 3u);
    EXPECT_EQ(stats.cdpsInserted, 1u);
    EXPECT_EQ(stats.hoistFailures, 0u);

    // Find the CDP; the three members must follow it immediately, all
    // in 16-bit format.
    const auto &insts = prog.funcs[0].blocks[0].insts;
    int cdpIdx = -1;
    for (std::size_t i = 0; i < insts.size(); ++i)
        if (insts[i].isCdp())
            cdpIdx = static_cast<int>(i);
    ASSERT_GE(cdpIdx, 0);
    EXPECT_EQ(insts[cdpIdx].cdpRun, 3);
    ASSERT_LT(cdpIdx + 3, static_cast<int>(insts.size()));
    EXPECT_EQ(insts[cdpIdx + 1].uid, 1u);
    EXPECT_EQ(insts[cdpIdx + 2].uid, 3u);
    EXPECT_EQ(insts[cdpIdx + 3].uid, 5u);
    for (int k = 1; k <= 3; ++k)
        EXPECT_EQ(insts[cdpIdx + k].format, Format::Thumb16);
}

TEST(CritIcPass, GroupHoistMovesChainEarly)
{
    Program prog = spreadChainProgram();
    CritIcPassOptions opt;
    opt.switchMode = SwitchMode::None;
    compiler::applyCritIcPass(prog, theChain(), opt);
    // Nothing blocks the packed chain from crossing uid 0 (independent),
    // so the chain head lands at the block start.
    const auto order = blockUidOrder(prog);
    EXPECT_EQ(order[0], 1u);
    EXPECT_EQ(order[1], 3u);
    EXPECT_EQ(order[2], 5u);
}

TEST(CritIcPass, HoistOnlyKeepsArmFormat)
{
    Program prog = spreadChainProgram();
    CritIcPassOptions opt;
    opt.convertToThumb = false;
    opt.switchMode = SwitchMode::None;
    const auto stats = compiler::applyCritIcPass(prog, theChain(), opt);
    EXPECT_EQ(stats.chainsTransformed, 1u);
    EXPECT_EQ(stats.instsConverted, 0u);
    for (const auto &si : prog.funcs[0].blocks[0].insts)
        EXPECT_EQ(si.format, Format::Arm32);
}

TEST(CritIcPass, BranchPairMode)
{
    Program prog = spreadChainProgram();
    CritIcPassOptions opt;
    opt.switchMode = SwitchMode::BranchPair;
    const auto stats = compiler::applyCritIcPass(prog, theChain(), opt);
    EXPECT_EQ(stats.switchBranchesInserted, 2u);
    EXPECT_EQ(stats.cdpsInserted, 0u);
    const auto &insts = prog.funcs[0].blocks[0].insts;
    // 32-bit branch before, 16-bit branch after the run.
    int firstBr = -1;
    for (std::size_t i = 0; i < insts.size(); ++i) {
        if (insts[i].arch.op == OpClass::Branch &&
            insts[i].flow == program::FlowKind::FallThrough) {
            firstBr = static_cast<int>(i);
            break;
        }
    }
    ASSERT_GE(firstBr, 0);
    EXPECT_EQ(insts[firstBr].format, Format::Arm32);
    EXPECT_EQ(insts[firstBr + 4].arch.op, OpClass::Branch);
    EXPECT_EQ(insts[firstBr + 4].format, Format::Thumb16);
}

TEST(CritIcPass, AllOrNothingConvertibility)
{
    Program prog = spreadChainProgram();
    // Predicate the link: the whole chain must stay 32-bit.
    prog.instByUid(3).arch.predicated = true;
    CritIcPassOptions opt;
    const auto stats = compiler::applyCritIcPass(prog, theChain(), opt);
    EXPECT_EQ(stats.instsConverted, 0u);
    EXPECT_EQ(stats.cdpsInserted, 0u);
    for (const auto &si : prog.funcs[0].blocks[0].insts)
        EXPECT_EQ(si.format, Format::Arm32);

    // ...unless forceConvert (the CritIC.Ideal hypothetical).
    Program prog2 = spreadChainProgram();
    prog2.instByUid(3).arch.predicated = true;
    CritIcPassOptions ideal;
    ideal.forceConvert = true;
    const auto istats =
        compiler::applyCritIcPass(prog2, theChain(), ideal);
    EXPECT_EQ(istats.instsConverted, 3u);
}

TEST(CritIcPass, LongChainsChainMultipleCdps)
{
    // 12-member serial chain, all directly convertible.
    BasicBlock bb;
    std::uint8_t reg = 0;
    bb.insts.push_back(inst(0, OpClass::IntAlu, 0));
    for (std::uint32_t k = 1; k < 12; ++k) {
        const auto next = static_cast<std::uint8_t>(k % 7);
        bb.insts.push_back(inst(k, OpClass::IntAlu, next, reg));
        reg = next;
    }
    Program prog = makeProgram({bb});
    std::vector<std::vector<program::InstUid>> chains(1);
    for (std::uint32_t k = 0; k < 12; ++k)
        chains[0].push_back(k);
    CritIcPassOptions opt;
    opt.forceConvert = true;
    const auto stats = compiler::applyCritIcPass(prog, chains, opt);
    // 12 = 9 + 3: two CDPs.
    EXPECT_EQ(stats.cdpsInserted, 2u);
    EXPECT_EQ(stats.instsConverted, 12u);
}

TEST(Opp16, ConvertsOnlyDirectRunsOfMinLength)
{
    BasicBlock bb;
    // run of 4 direct-convertible
    for (std::uint32_t k = 0; k < 4; ++k)
        bb.insts.push_back(inst(k, OpClass::IntAlu,
                                static_cast<std::uint8_t>(k % 7)));
    // a blocker (predicated)
    auto blocker = inst(4, OpClass::IntAlu, 5);
    blocker.arch.predicated = true;
    bb.insts.push_back(blocker);
    // run of only 2: below minRun
    bb.insts.push_back(inst(5, OpClass::IntAlu, 1));
    bb.insts.push_back(inst(6, OpClass::IntAlu, 2));
    Program prog = makeProgram({bb});

    const auto stats = compiler::applyOpp16Pass(prog, 3);
    EXPECT_EQ(stats.instsConverted, 4u);
    EXPECT_EQ(stats.instsExpanded, 0u);
    EXPECT_EQ(stats.cdpsInserted, 1u);
    EXPECT_EQ(prog.instByUid(4).format, Format::Arm32);
    EXPECT_EQ(prog.instByUid(5).format, Format::Arm32);
    EXPECT_EQ(prog.instByUid(0).format, Format::Thumb16);
}

TEST(Opp16, SkipsExistingThumbAndCdp)
{
    Program prog = spreadChainProgram();
    compiler::applyCritIcPass(prog, theChain(), CritIcPassOptions{});
    const auto before = prog.thumbFraction();
    const auto stats = compiler::applyOpp16Pass(prog, 2);
    // Converted instructions were never double-converted.
    EXPECT_GE(prog.thumbFraction(), before);
    for (const auto &si : prog.funcs[0].blocks[0].insts) {
        if (si.isCdp()) {
            EXPECT_EQ(si.format, Format::Thumb16);
        }
    }
    (void)stats;
}

TEST(Compress, ConvertsShorterRunsThanOpp16)
{
    workload::AppProfile profile = workload::mobileApps()[0];
    profile.numFunctions = 150;
    profile.dispatchTargets = 24;
    Program p1 = workload::synthesize(profile);
    Program p2 = workload::synthesize(profile);
    const auto opp = compiler::applyOpp16Pass(p1);
    const auto comp = compiler::applyCompressPass(p2);
    EXPECT_GT(comp.instsConverted, opp.instsConverted);
    EXPECT_EQ(comp.instsExpanded, 0u);
}

TEST(Passes, SemanticsPreservedUnderReplay)
{
    // The acid test: transform a synthesized program, replay the same
    // control path, and verify every dynamic instruction's producers
    // are the same *static* instructions as in the baseline.
    workload::AppProfile profile = workload::mobileApps()[0];
    profile.numFunctions = 150;
    profile.dispatchTargets = 24;
    Program prog = workload::synthesize(profile);
    Rng rng(7);
    program::WalkLimits limits;
    limits.targetInsts = 30000;
    const auto path = program::walkProgram(prog, rng, limits);
    const auto base = program::emitTrace(prog, path);

    // Baseline producer-uid map per dynamic occurrence.
    auto producerMap = [](const program::Trace &t) {
        std::map<std::pair<std::uint32_t, std::uint32_t>,
                 std::pair<std::int64_t, std::int64_t>> m;
        std::map<std::uint32_t, std::uint32_t> occ;
        for (const auto &d : t.insts) {
            if (d.op == isa::OpClass::Cdp)
                continue;
            const auto key = std::make_pair(d.staticUid,
                                            occ[d.staticUid]++);
            const std::int64_t p0 = d.dep0 == program::NoDep
                ? -1 : t.insts[d.dep0].staticUid;
            const std::int64_t p1 = d.dep1 == program::NoDep
                ? -1 : t.insts[d.dep1].staticUid;
            m[key] = {p0, p1};
        }
        return m;
    };
    const auto baseMap = producerMap(base);

    // Apply the full CritIC transform with real mined chains.
    analysis::CriticalityConfig cfg;
    const auto fanout = analysis::computeFanout(base, cfg);
    const auto chains = analysis::extractChains(base, fanout, cfg);
    const auto mined =
        analysis::mineCritIcs(base, prog, chains, fanout, cfg, 1.0);
    const auto sel = analysis::selectCritIcs(mined, {});
    CritIcPassOptions opt;
    const auto stats = compiler::applyCritIcPass(prog, sel.chains, opt);
    ASSERT_GT(stats.chainsTransformed, 0u);

    const auto after = program::emitTrace(prog, path);
    const auto afterMap = producerMap(after);
    ASSERT_EQ(baseMap.size(), afterMap.size());

    // Local renaming may change *which uid* produces a value only if
    // the pass rewrote registers; dataflow equivalence means: for every
    // dynamic occurrence, the producers' uids match, except that a
    // renamed def keeps the same position in the block. We assert full
    // uid equality, which holds because renaming rewrites consumers to
    // follow the same producer.
    std::size_t mismatches = 0;
    for (const auto &[key, producers] : baseMap) {
        const auto it = afterMap.find(key);
        ASSERT_NE(it, afterMap.end());
        if (it->second != producers)
            ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u);
}
