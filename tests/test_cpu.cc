/**
 * @file
 * Pipeline-model tests: throughput bounds, dependence serialization,
 * functional-unit structural hazards, stall attribution, warmup
 * accounting, branch redirects, format handling and the hardware
 * mechanism hooks.  The PipelineExact tests pin the exact results of
 * small traces that reach the issue queue's edge cases (ready times
 * beyond the timing wheel, a held unpipelined divide, prioritized
 * issue), the interval rows and the trace spans; a change to any of
 * them is a change of simulated behaviour.
 */

#include <gtest/gtest.h>

#include <regex>

#include "cpu/cpu.hh"
#include "helpers.hh"
#include "stats/interval.hh"
#include "stats/trace_event.hh"
#include "support/rng.hh"

using namespace critics;
using namespace critics::test;
using cpu::CpuConfig;
using cpu::CpuStats;

namespace
{

CpuStats
run(const program::Trace &trace, CpuConfig cfg = CpuConfig{},
    mem::MemConfig memCfg = mem::MemConfig{})
{
    bpu::PerfectPredictor bp;
    return cpu::runTrace(trace, cfg, memCfg, bp);
}

/** The integer results the exact-value tests pin: cycle and commit
 *  counts, stall counters, the integer-valued stage residencies and
 *  the data-side misses. */
std::vector<std::uint64_t>
pinned(const CpuStats &s)
{
    auto u = [](double v) { return static_cast<std::uint64_t>(v); };
    return {s.cycles,           s.committed,
            s.stallForIIcache,  s.stallForIRedirect,
            s.stallForRd,       u(s.all.decode),
            u(s.all.issueWait), u(s.all.execute),
            u(s.all.commitWait), u(s.crit.issueWait),
            u(s.crit.execute),  s.mem.dcache.misses,
            s.mem.dram.reads};
}

/** A load that misses to DRAM, followed by `consumers` ALU ops that
 *  depend on it in a chain; one such group per `groups`. */
program::Trace
missChainTrace(int groups, int consumers)
{
    program::Trace trace;
    for (int g = 0; g < groups; ++g) {
        const auto base = static_cast<program::DynIdx>(trace.insts.size());
        auto load = dyn(0, 0x10000, OpClass::Load);
        load.memAddr = 0x50000000u + 8192u * static_cast<std::uint32_t>(g);
        trace.insts.push_back(load);
        for (int c = 1; c <= consumers; ++c) {
            trace.insts.push_back(
                dyn(static_cast<std::uint32_t>(c),
                    0x10000 + 4u * static_cast<std::uint32_t>(c),
                    OpClass::IntAlu, base + c - 1));
        }
    }
    return trace;
}

} // namespace

TEST(Pipeline, CommitsEverything)
{
    const auto trace = independentAluTrace(5000);
    const auto stats = run(trace);
    EXPECT_EQ(stats.committed, trace.size());
    EXPECT_GT(stats.cycles, 0u);
}

TEST(Pipeline, IpcNeverExceedsCommitWidth)
{
    const auto stats = run(independentAluTrace(20000));
    EXPECT_LE(stats.ipc(), 4.0 + 1e-9);
}

TEST(Pipeline, ArmCodeIsFetchBandwidthLimited)
{
    // 8-byte front end: 32-bit code cannot exceed 2 IPC.
    const auto stats = run(independentAluTrace(20000));
    EXPECT_LE(stats.ipc(), 2.0 + 1e-9);
    EXPECT_GT(stats.ipc(), 1.6);
}

TEST(Pipeline, ThumbCodeDoublesFrontendRate)
{
    program::Trace thumb;
    for (int i = 0; i < 20000; ++i) {
        thumb.insts.push_back(dyn(i % 256, 0x10000 + 2 * (i % 256),
                                  OpClass::IntAlu, program::NoDep,
                                  program::NoDep, 2));
    }
    // Give the back end headroom so only the front end limits.
    CpuConfig cfg;
    cfg.intAluUnits = 6;
    const auto armIpc = run(independentAluTrace(20000), cfg).ipc();
    const auto thumbIpc = run(thumb, cfg).ipc();
    EXPECT_GT(thumbIpc, armIpc * 1.5);
}

TEST(Pipeline, SerialChainRunsAtOneIpc)
{
    const auto stats = run(serialChainTrace(10000));
    EXPECT_NEAR(stats.ipc(), 1.0, 0.1);
}

TEST(Pipeline, DivStallsStructurally)
{
    // Unpipelined divides on the single mul/div unit bound throughput
    // at 1/latency.
    program::Trace divs;
    for (int i = 0; i < 2000; ++i)
        divs.insts.push_back(dyn(i % 64, 0x10000 + 4 * (i % 64),
                                 OpClass::IntDiv));
    const auto stats = run(divs);
    EXPECT_LT(stats.ipc(), 1.0 / (isa::execLatency(OpClass::IntDiv) - 2));
}

TEST(Pipeline, MulsArePipelined)
{
    program::Trace muls;
    for (int i = 0; i < 4000; ++i)
        muls.insts.push_back(dyn(i % 64, 0x10000 + 4 * (i % 64),
                                 OpClass::IntMult));
    // One mul/div unit, pipelined: ~1 per cycle.
    EXPECT_NEAR(run(muls).ipc(), 1.0, 0.1);
}

TEST(Pipeline, LoadsLimitedByMemPorts)
{
    program::Trace loads;
    for (int i = 0; i < 4000; ++i) {
        auto d = dyn(i % 64, 0x10000 + 4 * (i % 64), OpClass::Load);
        d.memAddr = 0x40000000 + 64 * (i % 16); // hot, always L1
        loads.insts.push_back(d);
    }
    // 2 ports but the front end supplies only 2/cycle anyway.
    EXPECT_LE(run(loads).ipc(), 2.0 + 1e-9);
}

TEST(Pipeline, ColdLoadsStallBackend)
{
    program::Trace loads;
    for (int i = 0; i < 3000; ++i) {
        auto d = dyn(static_cast<std::uint32_t>(i),
                     0x10000 + 4 * (i % 64), OpClass::Load);
        d.memAddr = 0x50000000u + 4096u * static_cast<std::uint32_t>(i);
        if (i > 0)
            d.dep0 = i - 1; // dependent chain of misses
        loads.insts.push_back(d);
    }
    const auto stats = run(loads);
    EXPECT_LT(stats.ipc(), 0.1);
}

TEST(Pipeline, MispredictsBlockFetch)
{
    // Unpredictable conditional branches with a real predictor.
    program::Trace trace;
    Rng rng(5);
    for (int i = 0; i < 8000; ++i) {
        auto d = dyn(i % 128, 0x10000 + 4 * (i % 128), OpClass::IntAlu);
        if (i % 8 == 7) {
            d.op = OpClass::Branch;
            d.setCond(true);
            d.setTaken(rng.chance(0.5));
            d.branchTarget = 0x10000 + 4 * ((i + 1) % 128);
        }
        trace.insts.push_back(d);
    }
    CpuConfig cfg;
    mem::MemConfig memCfg;
    bpu::TwoLevelPredictor real;
    const auto realStats = cpu::runTrace(trace, cfg, memCfg, real);
    bpu::PerfectPredictor perfect;
    const auto perfectStats = cpu::runTrace(trace, cfg, memCfg, perfect);
    EXPECT_GT(realStats.mispredicts, 100u);
    EXPECT_GT(realStats.stallForIRedirect, 1000u);
    EXPECT_LT(perfectStats.cycles, realStats.cycles);
    EXPECT_EQ(perfectStats.mispredicts, 0u);
}

TEST(Pipeline, TakenBranchesBreakFetchGroups)
{
    // Tight loop of taken branches: every instruction ends its group.
    program::Trace trace;
    for (int i = 0; i < 4000; ++i) {
        auto d = dyn(0, 0x10000, OpClass::Branch);
        d.setTaken(true);
        d.branchTarget = 0x10000;
        trace.insts.push_back(d);
    }
    const auto stats = run(trace);
    EXPECT_LT(stats.ipc(), 1.1);
}

TEST(Pipeline, IcacheMissesAttributedToStallForI)
{
    // March through far more code than the i-cache holds.
    program::Trace trace;
    for (int i = 0; i < 60000; ++i)
        trace.insts.push_back(dyn(static_cast<std::uint32_t>(i),
                                  0x10000 + 4u * static_cast<std::uint32_t>(i),
                                  OpClass::IntAlu));
    const auto stats = run(trace);
    EXPECT_GT(stats.stallForIIcache, stats.cycles / 20);
    EXPECT_GT(stats.mem.icache.misses, 1000u);
}

TEST(Pipeline, StallRdWhenBackendClogged)
{
    // Serial chain of multiplies: the window fills, the fetch queue
    // backs up, and F.StallForR+D dominates.
    program::Trace trace;
    for (int i = 0; i < 8000; ++i) {
        auto d = dyn(i % 128, 0x10000 + 4 * (i % 128), OpClass::IntMult);
        if (i > 0)
            d.dep0 = i - 1;
        trace.insts.push_back(d);
    }
    const auto stats = run(trace);
    EXPECT_GT(stats.fracStallForRd(), 0.3);
    EXPECT_LT(stats.fracStallForI(), 0.05);
}

TEST(Pipeline, StageBreakdownSumsToResidency)
{
    const auto trace = serialChainTrace(4000);
    const auto stats = run(trace);
    const auto &b = stats.all;
    EXPECT_EQ(b.insts, trace.size());
    EXPECT_GT(b.total(), 0.0);
    // Execute time of a 1-cycle ALU chain is exactly 1 per instruction.
    EXPECT_NEAR(b.execute / static_cast<double>(b.insts), 1.0, 1e-9);
}

TEST(Pipeline, CritMaskSelectsSubset)
{
    const auto trace = independentAluTrace(4000);
    std::vector<std::uint8_t> mask(trace.size(), 0);
    for (std::size_t i = 0; i < mask.size(); i += 10)
        mask[i] = 1;
    CpuConfig cfg;
    mem::MemConfig memCfg;
    bpu::PerfectPredictor bp;
    const auto stats = cpu::runTrace(trace, cfg, memCfg, bp, &mask);
    EXPECT_EQ(stats.crit.insts, trace.size() / 10);
    EXPECT_LT(stats.crit.total(), stats.all.total());
}

TEST(Pipeline, WarmupExcludesColdStart)
{
    // Code footprint bigger than L1 but revisited: warm IPC beats cold.
    program::Trace trace;
    const std::size_t loop = 20000; // 80KB of code
    for (int rep = 0; rep < 4; ++rep)
        for (std::size_t i = 0; i < loop; ++i)
            trace.insts.push_back(dyn(
                static_cast<std::uint32_t>(i),
                static_cast<std::uint32_t>(0x10000 + 4 * i),
                OpClass::IntAlu));
    CpuConfig cold;
    const auto coldStats = run(trace, cold);
    CpuConfig warm;
    warm.warmupCommits = loop;
    const auto warmStats = run(trace, warm);
    EXPECT_EQ(warmStats.committed, trace.size() - loop);
    EXPECT_LT(warmStats.cycles, coldStats.cycles);
    EXPECT_LE(warmStats.mem.icache.misses, coldStats.mem.icache.misses);
}

TEST(Pipeline, CdpRetiresWithoutRobEntry)
{
    program::Trace trace;
    for (int i = 0; i < 3000; ++i) {
        if (i % 6 == 0) {
            auto c = dyn(i % 60, 0x10000 + 2 * (i % 60), OpClass::Cdp,
                         program::NoDep, program::NoDep, 2);
            c.cdpRun = 5;
            trace.insts.push_back(c);
        } else {
            trace.insts.push_back(dyn(i % 60, 0x10000 + 2 * (i % 60),
                                      OpClass::IntAlu, program::NoDep,
                                      program::NoDep, 2));
        }
    }
    const auto stats = run(trace);
    EXPECT_EQ(stats.committed, trace.size());
    EXPECT_GT(stats.decodeCdpBubbles, 0u);
    // CDPs never reach the breakdown (they retire at decode).
    EXPECT_EQ(stats.all.insts, trace.size() - trace.size() / 6);
}

TEST(Pipeline, DoubleFrontendHelpsWideCode)
{
    const auto trace = independentAluTrace(20000);
    CpuConfig base;
    const auto baseStats = run(trace, base);
    CpuConfig wide;
    wide.doubleFrontend();
    wide.intAluUnits = 6;
    const auto wideStats = run(trace, wide);
    EXPECT_LT(wideStats.cycles, baseStats.cycles);
    EXPECT_GT(wideStats.ipc(), 2.5);
}

TEST(Pipeline, CriticalLoadPrefetchHidesMissLatency)
{
    // Loads that miss badly, marked critical; prefetch-at-fetch should
    // cut cycles.
    // Latency-bound (not bandwidth-bound): a miss every 25
    // instructions whose consumer chain gates progress.
    program::Trace trace;
    std::unordered_set<program::InstUid> critSet;
    for (int i = 0; i < 10000; ++i) {
        if (i % 25 == 0) {
            auto d = dyn(7, 0x10000 + 4 * (i % 200), OpClass::Load);
            d.memAddr =
                0x50000000u + 4096u * static_cast<std::uint32_t>(i);
            trace.insts.push_back(d);
        } else {
            auto d = dyn(i % 200, 0x10000 + 4 * (i % 200),
                         OpClass::IntAlu);
            if (i % 25 >= 1 && i % 25 <= 8)
                d.dep0 = i - 1; // dependent chain behind the load
            trace.insts.push_back(d);
        }
    }
    critSet.insert(7);
    CpuConfig cfg;
    mem::MemConfig memCfg;
    bpu::PerfectPredictor bp1, bp2;
    const auto off = cpu::runTrace(trace, cfg, memCfg, bp1);
    cfg.criticalLoadPrefetch = true;
    const auto on =
        cpu::runTrace(trace, cfg, memCfg, bp2, nullptr, &critSet);
    // The direct mechanism: loads complete faster (their execute-stage
    // residency shrinks).  Whole-app cycles are exercised by the
    // Fig. 1a bench at realistic memory utilization.
    EXPECT_LT(on.all.execute, off.all.execute);
    EXPECT_GT(on.mem.dcache.prefetchHits, 20u);
}

TEST(Pipeline, RejectsBadInput)
{
    program::Trace empty;
    CpuConfig cfg;
    mem::MemConfig memCfg;
    bpu::PerfectPredictor bp;
    EXPECT_THROW(cpu::runTrace(empty, cfg, memCfg, bp),
                 std::logic_error);

    const auto trace = independentAluTrace(16);
    std::vector<std::uint8_t> badMask(3, 0);
    EXPECT_THROW(cpu::runTrace(trace, cfg, memCfg, bp, &badMask),
                 std::logic_error);

    // An instruction that depends on a CDP never issues: CDPs retire at
    // decode and produce no result.  The deadlock must be reported as
    // soon as no stage can progress, not at the cycle limit.
    auto cdpDep = independentAluTrace(64);
    cdpDep.insts[10].op = OpClass::Cdp;
    cdpDep.insts[20].dep0 = 10;
    try {
        cpu::runTrace(cdpDep, cfg, memCfg, bp);
        ADD_FAILURE() << "deadlocked trace ran to completion";
    } catch (const std::logic_error &e) {
        const std::string what = e.what();
        std::smatch m;
        ASSERT_TRUE(std::regex_search(
            what, m, std::regex("pipeline deadlock at cycle ([0-9]+)")))
            << what;
        EXPECT_LT(std::stoull(m[1].str()), 1000u) << what;
    }
}

TEST(PipelineExact, ReadyBeyondWheelHorizon)
{
    // DRAM so slow that load results land thousands of cycles ahead,
    // past any short-horizon bookkeeping of future ready times.
    mem::MemConfig slow;
    slow.dram.tCl = slow.dram.tRcd = slow.dram.tRp = 1500;
    slow.dram.controllerOverhead = 2000;
    const auto stats = run(missChainTrace(12, 6), CpuConfig{}, slow);
    EXPECT_EQ(pinned(stats),
              (std::vector<std::uint64_t>{16077, 84, 5020, 0, 0, 168,
                                          577788, 96344, 0, 0, 0, 12,
                                          13}));
}

TEST(PipelineExact, UnpipelinedDivideHoldsItsUnit)
{
    // Two independent divides and a multiply share the one mul/div
    // unit behind a missing load: the second divide and the multiply
    // sit eligible while the first divide holds the unit, and the
    // pipeline is otherwise idle for long stretches.
    program::Trace trace;
    for (int g = 0; g < 40; ++g) {
        const auto base = static_cast<program::DynIdx>(trace.insts.size());
        auto load = dyn(0, 0x10000, OpClass::Load);
        load.memAddr = 0x50000000u + 8192u * static_cast<std::uint32_t>(g);
        trace.insts.push_back(load);
        trace.insts.push_back(dyn(1, 0x10004, OpClass::IntDiv, base));
        trace.insts.push_back(dyn(2, 0x10008, OpClass::IntDiv, base));
        trace.insts.push_back(dyn(3, 0x1000c, OpClass::IntMult));
        trace.insts.push_back(
            dyn(4, 0x10010, OpClass::IntAlu, base + 1, base + 2));
    }
    EXPECT_EQ(pinned(run(trace)),
              (std::vector<std::uint64_t>{1194, 200, 92, 0, 76, 8239,
                                          66068, 8385, 21054, 0, 0, 40,
                                          41}));
}

TEST(PipelineExact, PriorityIssueOrder)
{
    // One ALU and one memory port: eligible critical instructions (the
    // load, uid 3, and the ALU op uid 5) issue ahead of older
    // non-critical ones under either prioritization toggle, and in
    // program order without one.
    program::Trace trace;
    for (int i = 0; i < 3000; ++i) {
        const auto k = static_cast<std::uint32_t>(i % 8);
        auto d = dyn(k, 0x10000 + 4 * k,
                     k == 3 ? OpClass::Load : OpClass::IntAlu);
        if (k == 3)
            d.memAddr = 0x40000000u + 64u * static_cast<std::uint32_t>(
                                                i % 512);
        if (k == 5 || k == 6)
            d.dep0 = i - 2;
        trace.insts.push_back(d);
    }
    std::unordered_set<program::InstUid> critSet{3, 5};
    std::vector<std::uint8_t> mask(trace.size(), 0);
    for (std::size_t i = 0; i < trace.size(); ++i)
        mask[i] = critSet.count(trace.insts[i].staticUid) ? 1 : 0;

    std::vector<std::vector<std::uint64_t>> got;
    for (int mode = 0; mode < 3; ++mode) {
        CpuConfig cfg;
        cfg.intAluUnits = 1;
        cfg.memPorts = 1;
        cfg.aluPrioritization = mode == 1;
        cfg.backendPrio = mode == 2;
        bpu::PerfectPredictor bp;
        got.push_back(pinned(cpu::runTrace(trace, cfg, mem::MemConfig{},
                                           bp, &mask, &critSet)));
    }
    EXPECT_EQ(got[0], (std::vector<std::uint64_t>{
                          3128, 3000, 92, 0, 575, 68443, 232159, 16372,
                          120977, 44345, 14122, 64, 66}));
    const std::vector<std::uint64_t> prioritized{
        3128, 3000, 92, 0, 832, 68818, 203665, 16372, 151632, 14122,
        14122, 64, 66};
    EXPECT_EQ(got[1], prioritized);
    EXPECT_EQ(got[2], prioritized);
}

TEST(PipelineExact, IntervalRows)
{
    // Periodic rows, the forced warmup row (1234 is off the 500 grid)
    // and the forced final row, each with its cumulative raw values.
    CpuConfig cfg;
    cfg.warmupCommits = 1234;
    cfg.statsInterval = 500;
    stats::IntervalSeries series;
    cfg.intervals = &series;
    run(missChainTrace(300, 9), cfg);

    std::vector<std::vector<std::uint64_t>> rows;
    for (const auto &row : series.rows()) {
        std::vector<std::uint64_t> r{row.index};
        for (const char *name :
             {"cpu.cycles", "cpu.committed", "cpu.fetch.stallForI.icache",
              "cpu.fetch.stallForI.redirect", "cpu.fetch.stallForRd",
              "cpu.fetch.windows", "mem.l1d.misses", "mem.dram.reads"}) {
            r.push_back(static_cast<std::uint64_t>(series.at(row, name)));
        }
        rows.push_back(r);
    }
    // index, cycles, committed, stallForI icache/redirect, stallForRd,
    // fetch windows, L1d misses, DRAM reads.
    EXPECT_EQ(rows, (std::vector<std::vector<std::uint64_t>>{
                        {502, 702, 502, 92, 0, 94, 517, 63, 64},
                        {1002, 1186, 1002, 92, 0, 154, 941, 113, 114},
                        {1234, 1414, 1234, 92, 0, 184, 1139, 137, 138},
                        {1502, 1675, 1502, 92, 0, 217, 1367, 163, 164},
                        {2000, 2159, 2000, 92, 0, 277, 1791, 213, 214},
                        {2502, 2652, 2502, 92, 0, 344, 2217, 263, 264},
                        {3000, 3136, 3000, 92, 0, 384, 2485, 300, 301}}));
}

TEST(PipelineExact, TraceSinkSpans)
{
    // A cold start (i-cache miss), a load miss and its consumers: every
    // span's track, start and length.
    CpuConfig cfg;
    stats::TraceEventWriter sink;
    cfg.traceSink = &sink;
    run(missChainTrace(2, 3), cfg);

    const std::string json = sink.toJson();
    const std::regex span("\"ts\":([0-9]+),\"dur\":([0-9]+),"
                          "\"pid\":0,\"tid\":([0-9]+)");
    std::string spans;
    for (std::sregex_iterator it(json.begin(), json.end(), span), end;
         it != end; ++it) {
        spans += (*it)[3].str() + ":" + (*it)[1].str() + "+" +
                 (*it)[2].str() + " ";
    }
    // tid 1..5: fetch, decode, issueWait, execute, commitWait.
    EXPECT_EQ(spans,
              "1:92+1 2:93+2 3:95+1 4:96+120 "
              "1:92+1 2:93+2 3:95+121 4:216+1 "
              "1:93+1 2:94+2 3:96+121 4:217+1 "
              "1:93+1 2:94+2 3:96+122 4:218+1 "
              "1:94+1 2:95+2 3:97+1 4:98+126 "
              "1:94+1 2:95+2 3:97+127 4:224+1 "
              "1:95+1 2:96+2 3:98+127 4:225+1 "
              "1:95+1 2:96+2 3:98+128 4:226+1 ");
}

class PipelineWidths : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PipelineWidths, MoreAlusNeverSlower)
{
    program::Trace mixed;
    Rng rng(3);
    for (int i = 0; i < 8000; ++i) {
        auto d = dyn(i % 128, 0x10000 + 4 * (i % 128), OpClass::IntAlu);
        if (i % 3 == 0 && i > 0)
            d.dep0 = i - 1;
        mixed.insts.push_back(d);
    }
    CpuConfig narrow;
    narrow.intAluUnits = 1;
    CpuConfig wide;
    wide.intAluUnits = GetParam();
    EXPECT_LE(run(mixed, wide).cycles, run(mixed, narrow).cycles);
}

INSTANTIATE_TEST_SUITE_P(AluCounts, PipelineWidths,
                         ::testing::Values(2u, 3u, 4u, 6u));
