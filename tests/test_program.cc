/**
 * @file
 * Tests for the static program representation: layout/alignment
 * invariants, the uid index, and the block-level DFG utilities.
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "helpers.hh"
#include "program/dfg.hh"
#include "runner/thread_pool.hh"
#include "sim/experiment.hh"
#include "sim/variants.hh"
#include "verify/verify.hh"

using namespace critics;
using namespace critics::test;
using isa::Format;

TEST(Layout, SequentialAddressesAndAlignment)
{
    BasicBlock bb;
    bb.insts = {inst(0, OpClass::IntAlu, 0),
                inst(1, OpClass::IntAlu, 1, 0),
                inst(2, OpClass::IntAlu, 2, 1)};
    bb.insts[1].format = Format::Thumb16;
    Program prog = makeProgram({bb});

    const auto &insts = prog.funcs[0].blocks[0].insts;
    EXPECT_EQ(insts[0].address % 4, 0u);
    EXPECT_EQ(insts[1].address, insts[0].address + 4);
    // The 32-bit instruction after a lone thumb is padded to 4 bytes.
    EXPECT_EQ(insts[2].address % 4, 0u);
    EXPECT_EQ(insts[2].address, insts[1].address + 2 + 2);
    EXPECT_EQ(prog.textBytes(), 12u);
}

TEST(Layout, CdpIsWordAligned)
{
    BasicBlock bb;
    bb.insts = {inst(0, OpClass::IntAlu, 0)};
    bb.insts[0].format = Format::Thumb16; // leaves address at offset 2
    StaticInst cdp = inst(1, OpClass::Cdp, isa::NoReg);
    cdp.format = Format::Thumb16;
    cdp.cdpRun = 2;
    bb.insts.push_back(cdp);
    Program prog = makeProgram({bb});
    EXPECT_EQ(prog.funcs[0].blocks[0].insts[1].address % 4, 0u);
}

TEST(Layout, UidIndexLocatesEverything)
{
    BasicBlock b0, b1;
    b0.insts = {inst(10, OpClass::IntAlu, 0), inst(11, OpClass::Load, 1)};
    b1.insts = {inst(12, OpClass::Store, isa::NoReg, 1)};
    Program prog = makeProgram({b0, b1});

    EXPECT_EQ(prog.instCount(), 3u);
    const auto &loc = prog.locate(12);
    EXPECT_EQ(loc.block, 1u);
    EXPECT_EQ(loc.index, 0u);
    EXPECT_EQ(prog.instByUid(11).arch.op, OpClass::Load);
    EXPECT_TRUE(prog.contains(10));
    EXPECT_FALSE(prog.contains(999));
    EXPECT_THROW(prog.locate(999), std::logic_error);
}

TEST(Layout, DuplicateUidPanics)
{
    BasicBlock bb;
    bb.insts = {inst(5, OpClass::IntAlu, 0), inst(5, OpClass::IntAlu, 1)};
    Program prog;
    prog.memRegions = {{0, 64, 0}};
    program::Function fn;
    fn.blocks.push_back(bb);
    prog.funcs.push_back(fn);
    EXPECT_THROW(prog.layout(), std::logic_error);
}

namespace
{

/** Run `fn`, expect a panic, and return its message. */
template <typename Fn>
std::string
panicMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const std::logic_error &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected a panic";
    return {};
}

/** A program whose two functions hold the given uids (unlaid out). */
Program
twoFunctionProgram(program::InstUid a, program::InstUid b)
{
    Program prog;
    prog.memRegions = {{0, 64, 0}};
    for (const program::InstUid uid : {a, b}) {
        program::Function fn;
        BasicBlock bb;
        bb.insts = {inst(uid, OpClass::IntAlu, 0)};
        fn.blocks.push_back(bb);
        prog.funcs.push_back(fn);
    }
    return prog;
}

} // namespace

TEST(Layout, DenseIndexPanicsNameTheirCause)
{
    // A duplicate far above every other uid, split across functions.
    Program dup = twoFunctionProgram(1'000'000, 1'000'000);
    EXPECT_NE(panicMessage([&] { dup.layout(); }).find("duplicate uid"),
              std::string::npos);

    Program noUid = twoFunctionProgram(3, program::NoUid);
    EXPECT_NE(panicMessage([&] { noUid.layout(); })
                  .find("instruction without uid"),
              std::string::npos);

    Program prog = twoFunctionProgram(3, 7);
    prog.layout();
    for (const program::InstUid uid : {0u, 4u, 8u, 1'000'000u,
                                       program::NoUid}) {
        EXPECT_NE(panicMessage([&] { prog.locate(uid); })
                      .find("unknown uid"),
                  std::string::npos)
            << uid;
    }
}

TEST(Layout, ContainsIsFalseForAbsentUids)
{
    BasicBlock bb;
    bb.insts = {inst(2, OpClass::IntAlu, 0), inst(5, OpClass::IntAlu, 1),
                inst(9, OpClass::IntAlu, 2)};
    Program prog = makeProgram({bb});
    EXPECT_TRUE(prog.contains(2));
    EXPECT_TRUE(prog.contains(9));
    EXPECT_FALSE(prog.contains(program::NoUid));
    EXPECT_FALSE(prog.contains(3));  // a hole below the largest uid
    EXPECT_FALSE(prog.contains(10)); // past the largest uid
    EXPECT_FALSE(prog.contains(1'000'000));

    // Removing an instruction drops its uid at the next layout(), and
    // the uid stays reserved: allocUid() never hands it out again.
    prog.funcs[0].blocks[0].insts.pop_back();
    prog.layout();
    EXPECT_FALSE(prog.contains(9));
    EXPECT_THROW(prog.locate(9), std::logic_error);
    EXPECT_EQ(prog.locate(5).index, 1u);
    EXPECT_GT(prog.allocUid(), 9u);

    // A copy carries the index with it.
    const Program copy = prog;
    EXPECT_TRUE(copy.contains(5));
    EXPECT_FALSE(copy.contains(9));
    EXPECT_EQ(copy.locate(5).index, 1u);
}

TEST(Layout, LocateFindsEveryInstructionOfEveryTransform)
{
    sim::ExperimentOptions options;
    options.traceInsts = 2000;
    const auto apps = sim::parseApps("all");
    std::vector<sim::Variant> transforms;
    std::set<sim::TransformKey> seen;
    for (const auto &v : sim::parseVariants("all")) {
        if (seen.insert(sim::transformMemoKey(v, options.profileFraction))
                .second) {
            transforms.push_back(v);
        }
    }

    // Count misplaced uids per app (gtest assertions stay on this
    // thread).  Passes verify structurally only: what is under test is
    // the index, and the deeper tiers would cost ~8x as much.
    std::vector<std::size_t> misplaced(apps.size(), 0);
    std::vector<std::size_t> checked(apps.size(), 0);
    std::vector<std::size_t> errors(apps.size(), 0);
    runner::ThreadPool::shared().forEach(apps.size(), [&](std::size_t a) {
        sim::AppExperiment exp(apps[a], options);
        for (const auto &variant : transforms) {
            verify::PassAudit audit;
            audit.level = verify::Level::Structural;
            const Program prog =
                exp.materializeTransform(variant, &audit).prog;
            errors[a] += audit.report.errors();
            for (std::uint32_t f = 0; f < prog.funcs.size(); ++f) {
                const auto &blocks = prog.funcs[f].blocks;
                for (std::uint32_t b = 0; b < blocks.size(); ++b) {
                    const auto &insts = blocks[b].insts;
                    for (std::uint32_t i = 0; i < insts.size(); ++i) {
                        ++checked[a];
                        if (!prog.contains(insts[i].uid)) {
                            ++misplaced[a];
                            continue;
                        }
                        const auto &loc = prog.locate(insts[i].uid);
                        if (loc.func != f || loc.block != b ||
                            loc.index != i)
                            ++misplaced[a];
                    }
                }
            }
        }
    });
    for (std::size_t a = 0; a < apps.size(); ++a) {
        EXPECT_EQ(misplaced[a], 0u) << apps[a].name;
        EXPECT_EQ(errors[a], 0u) << apps[a].name;
        EXPECT_GT(checked[a], 0u) << apps[a].name;
    }
}

TEST(Layout, AllocUidNeverCollides)
{
    BasicBlock bb;
    bb.insts = {inst(100, OpClass::IntAlu, 0)};
    Program prog = makeProgram({bb});
    EXPECT_GT(prog.allocUid(), 100u);
}

TEST(Layout, ThumbFraction)
{
    BasicBlock bb;
    bb.insts = {inst(0, OpClass::IntAlu, 0), inst(1, OpClass::IntAlu, 1)};
    bb.insts[0].format = Format::Thumb16;
    Program prog = makeProgram({bb});
    EXPECT_DOUBLE_EQ(prog.thumbFraction(), 0.5);
}

// ---- Block DFG -----------------------------------------------------------

TEST(BlockDfg, ProducersAndConsumers)
{
    BasicBlock bb;
    bb.insts = {inst(0, OpClass::IntAlu, 1),          // r1 =
                inst(1, OpClass::IntAlu, 2, 1),       // r2 = f(r1)
                inst(2, OpClass::IntAlu, 3, 1, 2),    // r3 = f(r1, r2)
                inst(3, OpClass::IntAlu, 1)};         // r1 = (redef)
    program::BlockDfg dfg(bb);
    EXPECT_EQ(dfg.producers(1)[0], 0);
    EXPECT_EQ(dfg.producers(2)[0], 0);
    EXPECT_EQ(dfg.producers(2)[1], 1);
    EXPECT_EQ(dfg.producers(3)[0], -1);
    ASSERT_EQ(dfg.consumers(0).size(), 2u);
    EXPECT_TRUE(dfg.dependsOn(2, 0));
    EXPECT_TRUE(dfg.dependsOn(2, 1));
    EXPECT_FALSE(dfg.dependsOn(3, 0));
    EXPECT_FALSE(dfg.dependsOn(0, 2));
}

TEST(BlockDfg, TransitiveDependence)
{
    BasicBlock bb;
    bb.insts = {inst(0, OpClass::IntAlu, 1),
                inst(1, OpClass::IntAlu, 2, 1),
                inst(2, OpClass::IntAlu, 3, 2),
                inst(3, OpClass::IntAlu, 4, 3)};
    program::BlockDfg dfg(bb);
    EXPECT_TRUE(dfg.dependsOn(3, 0));
}

TEST(CanSwap, RegisterHazards)
{
    const auto def1 = inst(0, OpClass::IntAlu, 1);
    const auto use1 = inst(1, OpClass::IntAlu, 2, 1);
    const auto def1b = inst(2, OpClass::IntAlu, 1, 3);
    const auto indep = inst(3, OpClass::IntAlu, 4, 5);

    EXPECT_FALSE(program::canSwap(def1, use1));  // RAW
    EXPECT_FALSE(program::canSwap(use1, def1b)); // WAR
    EXPECT_FALSE(program::canSwap(def1, def1b)); // WAW
    EXPECT_TRUE(program::canSwap(def1, indep));
}

TEST(CanSwap, ControlAndCdpNeverMove)
{
    const auto branch = inst(0, OpClass::Branch, isa::NoReg, 8);
    auto cdp = inst(1, OpClass::Cdp, isa::NoReg);
    const auto alu = inst(2, OpClass::IntAlu, 1, 2);
    EXPECT_FALSE(program::canSwap(branch, alu));
    EXPECT_FALSE(program::canSwap(alu, branch));
    EXPECT_FALSE(program::canSwap(cdp, alu));
}

TEST(CanSwap, MemoryAliasClasses)
{
    auto load = inst(0, OpClass::Load, 1);
    auto store = inst(1, OpClass::Store, isa::NoReg, 2);
    load.memRegionId = store.memRegionId = 0;
    load.aliasClass = 3;
    store.aliasClass = 3;
    EXPECT_FALSE(program::canSwap(load, store)); // may alias
    store.aliasClass = 4;
    EXPECT_TRUE(program::canSwap(load, store)); // provably disjoint
    store.aliasClass = 0xFF;
    EXPECT_FALSE(program::canSwap(load, store)); // unknown aliasing
    // load/load always reorderable
    auto load2 = inst(2, OpClass::Load, 3);
    load2.memRegionId = 0;
    load2.aliasClass = 3;
    EXPECT_TRUE(program::canSwap(load, load2));
}

TEST(HoistUpTo, MovesPastIndependentStopsAtHazard)
{
    BasicBlock bb;
    bb.insts = {inst(0, OpClass::IntAlu, 1),       // def r1
                inst(1, OpClass::IntAlu, 5, 6),    // independent
                inst(2, OpClass::IntAlu, 6, 7),    // writes r6 (WAR w/ 1)
                inst(3, OpClass::IntAlu, 2, 1)};   // chain member
    // Hoist index 3 toward index 0: must pass 2 and 1 (legal w.r.t. the
    // mover) and land right after 0.
    const auto landed = program::hoistUpTo(bb, 3, 0);
    EXPECT_EQ(landed, 1u);
    EXPECT_EQ(bb.insts[1].uid, 3u);
    EXPECT_EQ(bb.insts[0].uid, 0u);
}

TEST(HoistUpTo, BlockedByRaw)
{
    BasicBlock bb;
    bb.insts = {inst(0, OpClass::IntAlu, 1),
                inst(1, OpClass::IntAlu, 2),
                inst(2, OpClass::IntAlu, 3, 2)}; // reads r2 from idx 1
    const auto landed = program::hoistUpTo(bb, 2, 0);
    EXPECT_EQ(landed, 2u); // cannot cross its producer
}
