/**
 * @file
 * Tests for the walker and trace emitter: path validity, emission
 * dataflow, address determinism and control-path invariance under
 * program rewrites.
 */

#include <gtest/gtest.h>

#include "helpers.hh"
#include "program/dfg.hh"
#include "program/emit.hh"
#include "program/walker.hh"
#include "workload/synth.hh"

using namespace critics;
using namespace critics::test;
using program::ControlPath;
using program::FlowKind;
using program::Trace;

namespace
{

/** Two-function program: fn0 loops { call fn1 }, fn1 has a conditional
 *  skip and returns. */
Program
callProgram()
{
    Program prog;
    prog.memRegions = {{0x40000000u, 4096, 0}};

    program::Function fn0;
    fn0.name = "loop";
    BasicBlock b0;
    b0.insts = {inst(0, OpClass::IntAlu, 0)};
    StaticInst call = inst(1, OpClass::Call, isa::NoReg);
    call.flow = FlowKind::CallFn;
    call.targetFunc = 1;
    b0.insts.push_back(call);
    BasicBlock b1;
    b1.insts = {inst(2, OpClass::IntAlu, 1)};
    StaticInst jump = inst(3, OpClass::Branch, isa::NoReg);
    jump.flow = FlowKind::Jump;
    jump.targetBlock = 0;
    b1.insts.push_back(jump);
    fn0.blocks = {b0, b1};

    program::Function fn1;
    fn1.name = "callee";
    BasicBlock c0;
    c0.insts = {inst(4, OpClass::IntAlu, 2)};
    StaticInst br = inst(5, OpClass::Branch, isa::NoReg, 2);
    br.flow = FlowKind::CondBranch;
    br.targetBlock = 2;
    br.takenBias = 0.5f;
    c0.insts.push_back(br);
    BasicBlock c1;
    c1.insts = {inst(6, OpClass::IntAlu, 3, 2)};
    BasicBlock c2;
    c2.insts = {inst(7, OpClass::IntAlu, 4, 2)};
    StaticInst ret = inst(8, OpClass::Return, isa::NoReg);
    ret.flow = FlowKind::Ret;
    c2.insts.push_back(ret);
    fn1.blocks = {c0, c1, c2};

    prog.funcs = {fn0, fn1};
    prog.layout();
    return prog;
}

} // namespace

TEST(Walker, ProducesValidVisits)
{
    Program prog = callProgram();
    Rng rng(7);
    program::WalkLimits limits;
    limits.targetInsts = 500;
    const ControlPath path = program::walkProgram(prog, rng, limits);
    ASSERT_FALSE(path.visits.empty());
    for (const auto &visit : path.visits) {
        ASSERT_LT(visit.func, prog.funcs.size());
        ASSERT_LT(visit.block, prog.funcs[visit.func].blocks.size());
    }
}

TEST(Walker, Deterministic)
{
    Program prog = callProgram();
    program::WalkLimits limits;
    limits.targetInsts = 400;
    Rng r1(9), r2(9);
    const auto p1 = program::walkProgram(prog, r1, limits);
    const auto p2 = program::walkProgram(prog, r2, limits);
    ASSERT_EQ(p1.visits.size(), p2.visits.size());
    EXPECT_EQ(p1.branchOutcomes, p2.branchOutcomes);
}

TEST(Walker, OutcomeCountMatchesCondBranchExecutions)
{
    Program prog = callProgram();
    Rng rng(3);
    program::WalkLimits limits;
    limits.targetInsts = 600;
    const auto path = program::walkProgram(prog, rng, limits);
    std::size_t condExecs = 0;
    for (const auto &visit : path.visits) {
        const auto &bb = prog.funcs[visit.func].blocks[visit.block];
        if (!bb.insts.empty() &&
            bb.insts.back().flow == FlowKind::CondBranch) {
            ++condExecs;
        }
    }
    EXPECT_EQ(condExecs, path.branchOutcomes.size());
}

TEST(Walker, CallAndReturnSequence)
{
    Program prog = callProgram();
    Rng rng(5);
    program::WalkLimits limits;
    limits.targetInsts = 200;
    const auto path = program::walkProgram(prog, rng, limits);
    // After visiting fn0/b0 (the call block), the next visit must be
    // fn1/b0; after fn1's return block comes fn0/b1.
    for (std::size_t i = 0; i + 1 < path.visits.size(); ++i) {
        const auto &cur = path.visits[i];
        const auto &next = path.visits[i + 1];
        if (cur.func == 0 && cur.block == 0) {
            EXPECT_EQ(next.func, 1u);
            EXPECT_EQ(next.block, 0u);
        }
        if (cur.func == 1 && cur.block == 2) {
            EXPECT_EQ(next.func, 0u);
            EXPECT_EQ(next.block, 1u);
        }
    }
}

TEST(Emit, AddressesMatchLayoutAndDepsAreTrue)
{
    Program prog = callProgram();
    Rng rng(11);
    program::WalkLimits limits;
    limits.targetInsts = 500;
    const auto path = program::walkProgram(prog, rng, limits);
    const Trace trace = program::emitTrace(prog, path);

    ASSERT_FALSE(trace.insts.empty());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto &d = trace.insts[i];
        EXPECT_EQ(d.address, prog.instByUid(d.staticUid).address);
        for (const auto dep : {d.dep0, d.dep1}) {
            if (dep == program::NoDep)
                continue;
            ASSERT_GE(dep, 0);
            ASSERT_LT(dep, static_cast<program::DynIdx>(i));
            // The producer must write a register this inst reads.
            const auto &p = prog.instByUid(trace.insts[dep].staticUid);
            const auto &c = prog.instByUid(d.staticUid);
            EXPECT_TRUE(p.arch.dst == c.arch.src1 ||
                        p.arch.dst == c.arch.src2);
        }
    }
}

TEST(Emit, ControlTargetsPointToNextVisit)
{
    Program prog = callProgram();
    Rng rng(13);
    program::WalkLimits limits;
    limits.targetInsts = 300;
    const auto path = program::walkProgram(prog, rng, limits);
    const Trace trace = program::emitTrace(prog, path);
    for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
        const auto &d = trace.insts[i];
        if (d.isControl() && d.taken()) {
            EXPECT_EQ(d.branchTarget, trace.insts[i + 1].address);
        }
    }
}

TEST(Emit, DataAddressesStableAcrossReEmission)
{
    Program prog = callProgram();
    // add a load so there is a data stream
    StaticInst load = inst(9, OpClass::Load, 5);
    load.memPattern = program::MemPattern::HotRegion;
    load.memRegionId = 0;
    load.aliasClass = 2;
    prog.funcs[1].blocks[0].insts.insert(
        prog.funcs[1].blocks[0].insts.begin(), load);
    prog.layout();

    Rng rng(17);
    program::WalkLimits limits;
    limits.targetInsts = 400;
    const auto path = program::walkProgram(prog, rng, limits);
    const Trace t1 = program::emitTrace(prog, path);
    const Trace t2 = program::emitTrace(prog, path);
    ASSERT_EQ(t1.size(), t2.size());
    for (std::size_t i = 0; i < t1.size(); ++i)
        EXPECT_EQ(t1.insts[i].memAddr, t2.insts[i].memAddr);
}

TEST(Emit, LoopCarriedDependenceCrossesIterations)
{
    // fn0: block with acc = f(acc) in a loop.
    Program prog;
    prog.memRegions = {{0x40000000u, 4096, 0}};
    program::Function fn;
    BasicBlock body;
    body.insts = {inst(0, OpClass::IntAlu, 7, 7)}; // acc = f(acc)
    StaticInst loop = inst(1, OpClass::Branch, isa::NoReg, 8);
    loop.flow = FlowKind::CondBranch;
    loop.targetBlock = 0;
    loop.takenBias = 1.0f;
    body.insts.push_back(loop);
    fn.blocks = {body};
    prog.funcs = {fn};
    prog.layout();

    Rng rng(23);
    program::WalkLimits limits;
    limits.targetInsts = 40;
    const auto path = program::walkProgram(prog, rng, limits);
    const Trace trace = program::emitTrace(prog, path);
    // Every second acc-op depends on the previous iteration's acc-op.
    int carried = 0;
    for (std::size_t i = 2; i < trace.size(); i += 2) {
        if (trace.insts[i].dep0 ==
            static_cast<program::DynIdx>(i - 2)) {
            ++carried;
        }
    }
    EXPECT_GT(carried, 10);
}

TEST(Emit, SameWorkAfterReorderingWithinBlocks)
{
    // Reordering independent instructions inside a block must preserve
    // the multiset of executed uids (the control path is unchanged).
    workload::AppProfile profile = workload::mobileApps()[0];
    profile.numFunctions = 120;
    profile.dispatchTargets = 24;
    Program prog = workload::synthesize(profile);
    Rng rng(31);
    program::WalkLimits limits;
    limits.targetInsts = 20000;
    const auto path = program::walkProgram(prog, rng, limits);
    const Trace before = program::emitTrace(prog, path);

    // Swap the first two independent instructions of some block.
    bool swapped = false;
    for (auto &fn : prog.funcs) {
        for (auto &block : fn.blocks) {
            if (block.insts.size() >= 2 &&
                program::canSwap(block.insts[0], block.insts[1])) {
                std::swap(block.insts[0], block.insts[1]);
                swapped = true;
                break;
            }
        }
        if (swapped)
            break;
    }
    ASSERT_TRUE(swapped);
    prog.layout();
    const Trace after = program::emitTrace(prog, path);
    ASSERT_EQ(before.size(), after.size());

    std::vector<std::uint32_t> u1, u2;
    for (const auto &d : before.insts)
        u1.push_back(d.staticUid);
    for (const auto &d : after.insts)
        u2.push_back(d.staticUid);
    std::sort(u1.begin(), u1.end());
    std::sort(u2.begin(), u2.end());
    EXPECT_EQ(u1, u2);
}
