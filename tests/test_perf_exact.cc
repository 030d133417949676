/**
 * @file
 * Regression tests for the simulator hot paths: the transformed-trace
 * memo must make reruns bit-identical, before and after
 * dropTransforms() empties it, the memo key must distinguish
 * every binary-changing variant field, and the emit-time thumb
 * counters must agree with a full rescan.  (The pre-overhaul legacy
 * paths and their CRITICS_PACKED_TRACE=off escape hatch were removed
 * after one release; the drift sweep that compared the two lives on as
 * the CI cache-drift job.)
 */

#include <gtest/gtest.h>

#include "obs/obs.hh"
#include "sim/experiment.hh"

using namespace critics;
using sim::AppExperiment;
using sim::ExperimentOptions;
using sim::Transform;
using sim::TransformKey;
using sim::Variant;

namespace
{

ExperimentOptions
smallOptions()
{
    ExperimentOptions opt;
    opt.traceInsts = 40000;
    opt.warmupFraction = 0.25;
    return opt;
}

workload::AppProfile
smallApp(const std::string &name)
{
    auto profile = workload::findApp(name);
    profile.numFunctions = std::min(profile.numFunctions, 120u);
    profile.dispatchTargets = std::min(profile.dispatchTargets, 24u);
    return profile;
}

void
expectSameStage(const cpu::StageBreakdown &a,
                const cpu::StageBreakdown &b)
{
    EXPECT_EQ(a.fetch, b.fetch);
    EXPECT_EQ(a.decode, b.decode);
    EXPECT_EQ(a.issueWait, b.issueWait);
    EXPECT_EQ(a.execute, b.execute);
    EXPECT_EQ(a.commitWait, b.commitWait);
    EXPECT_EQ(a.insts, b.insts);
}

void
expectSameCache(const mem::CacheStats &a, const mem::CacheStats &b)
{
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.prefetchFills, b.prefetchFills);
    EXPECT_EQ(a.prefetchHits, b.prefetchHits);
}

/** Every CpuStats field, doubles compared for exact equality: serving
 *  a run from the memo must change no arithmetic, only its cost. */
void
expectSameStats(const cpu::CpuStats &a, const cpu::CpuStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.stallForIIcache, b.stallForIIcache);
    EXPECT_EQ(a.stallForIRedirect, b.stallForIRedirect);
    EXPECT_EQ(a.stallForRd, b.stallForRd);
    EXPECT_EQ(a.decodeCdpBubbles, b.decodeCdpBubbles);
    EXPECT_EQ(a.fetchedBytes, b.fetchedBytes);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.fetchWindows, b.fetchWindows);
    EXPECT_EQ(a.efetchAccuracy, b.efetchAccuracy);
    expectSameStage(a.all, b.all);
    expectSameStage(a.crit, b.crit);
    expectSameCache(a.mem.icache, b.mem.icache);
    expectSameCache(a.mem.dcache, b.mem.dcache);
    expectSameCache(a.mem.l2, b.mem.l2);
    EXPECT_EQ(a.mem.dram.reads, b.mem.dram.reads);
    EXPECT_EQ(a.mem.dram.rowHits, b.mem.dram.rowHits);
    EXPECT_EQ(a.mem.dram.rowConflicts, b.mem.dram.rowConflicts);
    EXPECT_EQ(a.mem.dram.activates, b.mem.dram.activates);
    EXPECT_EQ(a.mem.dram.totalLatency, b.mem.dram.totalLatency);
    EXPECT_EQ(a.mem.stride.trains, b.mem.stride.trains);
    EXPECT_EQ(a.mem.stride.issued, b.mem.stride.issued);
    EXPECT_EQ(a.mem.storeAccesses, b.mem.storeAccesses);
}

void
expectSamePass(const compiler::PassStats &a, const compiler::PassStats &b)
{
    EXPECT_EQ(a.chainsAttempted, b.chainsAttempted);
    EXPECT_EQ(a.chainsTransformed, b.chainsTransformed);
    EXPECT_EQ(a.hoistFailures, b.hoistFailures);
    EXPECT_EQ(a.localRenames, b.localRenames);
    EXPECT_EQ(a.blockedRaw, b.blockedRaw);
    EXPECT_EQ(a.blockedMem, b.blockedMem);
    EXPECT_EQ(a.blockedCtl, b.blockedCtl);
    EXPECT_EQ(a.blockedRename, b.blockedRename);
    EXPECT_EQ(a.instsConverted, b.instsConverted);
    EXPECT_EQ(a.instsExpanded, b.instsExpanded);
    EXPECT_EQ(a.cdpsInserted, b.cdpsInserted);
    EXPECT_EQ(a.switchBranchesInserted, b.switchBranchesInserted);
}

/** Run `variant` on `exp`, counting the transform spans it records. */
sim::RunResult
runCountingTransforms(AppExperiment &exp, const Variant &variant,
                      std::size_t *transforms)
{
    *transforms = 0;
    obs::setSpanSink([transforms](const obs::SpanRecord &span) {
        if (span.name == "transform")
            ++*transforms;
    });
    auto result = exp.run(variant);
    obs::setSpanSink(nullptr);
    return result;
}

} // namespace

TEST(PackedTrace, MemoizedRerunIsIdentical)
{
    // The second run of a transformed variant is served from the memo;
    // it must match the first (freshly built) run exactly.
    AppExperiment exp(smallApp("Angrybirds"), smallOptions());
    Variant v;
    v.label = "critic";
    v.transform = Transform::CritIc;
    const auto first = exp.run(v);
    const auto second = exp.run(v);
    expectSameStats(first.cpu, second.cpu);
    EXPECT_EQ(first.dynThumbFraction, second.dynThumbFraction);
}

TEST(PackedTrace, RerunAfterDropTransformsIsIdentical)
{
    // dropTransforms() forgets the memoized trace, so the rerun builds
    // it afresh (a new transform span) and must match the first run.
    AppExperiment exp(smallApp("Angrybirds"), smallOptions());
    Variant v;
    v.label = "opp16+critic";
    v.transform = Transform::Opp16PlusCritIc;
    std::size_t built = 0;
    const auto first = runCountingTransforms(exp, v, &built);
    EXPECT_GT(built, 0u);
    std::size_t transforms = 0;
    runCountingTransforms(exp, v, &transforms);
    EXPECT_EQ(transforms, 0u); // served from the memo

    exp.dropTransforms();
    const auto second = runCountingTransforms(exp, v, &transforms);
    EXPECT_EQ(transforms, built);
    expectSameStats(first.cpu, second.cpu);
    expectSamePass(first.pass, second.pass);
    EXPECT_EQ(first.selectionCoverage, second.selectionCoverage);
    EXPECT_EQ(first.staticThumbFraction, second.staticThumbFraction);
    EXPECT_EQ(first.dynThumbFraction, second.dynThumbFraction);
}

TEST(TransformMemoKey, DistinguishesEveryBinaryChangingField)
{
    const double fraction = 0.72;
    const Variant base;
    const TransformKey baseKey = sim::transformMemoKey(base, fraction);

    // Every field that changes the transformed binary must change the
    // key.
    Variant v = base;
    v.transform = Transform::CritIc;
    EXPECT_NE(sim::transformMemoKey(v, fraction), baseKey);

    Variant sw = v;
    sw.switchMode = compiler::SwitchMode::BranchPair;
    EXPECT_NE(sim::transformMemoKey(sw, fraction),
              sim::transformMemoKey(v, fraction));

    Variant len = v;
    len.maxChainLen = 7;
    EXPECT_NE(sim::transformMemoKey(len, fraction),
              sim::transformMemoKey(v, fraction));

    Variant exact = v;
    exact.exactChainLen = 3;
    EXPECT_NE(sim::transformMemoKey(exact, fraction),
              sim::transformMemoKey(v, fraction));

    Variant frac = v;
    frac.profileFraction = 0.7205;
    EXPECT_NE(sim::transformMemoKey(frac, fraction),
              sim::transformMemoKey(v, fraction));

    // Closer than the old 1e-3 rounding granularity: still distinct.
    Variant fracNear = v;
    fracNear.profileFraction = 0.72049999;
    EXPECT_NE(sim::transformMemoKey(fracNear, fraction),
              sim::transformMemoKey(frac, fraction));

    // Hardware-only knobs share the transformed trace.
    Variant hw = v;
    hw.perfectBranch = true;
    hw.efetch = true;
    hw.icache4x = true;
    hw.doubleFrontend = true;
    hw.aluPrio = true;
    hw.backendPrio = true;
    hw.criticalLoadPrefetch = true;
    EXPECT_EQ(sim::transformMemoKey(hw, fraction),
              sim::transformMemoKey(v, fraction));

    // An explicit override equal to the default is the same key: the
    // effective fraction is what the miner sees.
    Variant same = v;
    same.profileFraction = fraction;
    EXPECT_EQ(sim::transformMemoKey(same, fraction),
              sim::transformMemoKey(v, fraction));
}

TEST(MinedAtKey, SubMilliFractionsAreDistinct)
{
    // The old int(fraction*1000+0.5) key collapsed these two; with the
    // bit-pattern key each fraction mines its own result.
    AppExperiment exp(smallApp("Acrobat"), smallOptions());
    const auto &a = exp.minedAt(0.5000);
    const auto &b = exp.minedAt(0.50004);
    EXPECT_NE(&a, &b);
    // Same bit pattern still hits the cache.
    EXPECT_EQ(&a, &exp.minedAt(0.5000));
}

TEST(DynInst, PackedFlags)
{
    program::DynInst d;
    EXPECT_FALSE(d.taken());
    EXPECT_FALSE(d.isCond());
    d.setTaken(true);
    EXPECT_TRUE(d.taken());
    EXPECT_FALSE(d.isCond());
    d.setCond(true);
    EXPECT_TRUE(d.taken());
    EXPECT_TRUE(d.isCond());
    d.setTaken(false);
    EXPECT_FALSE(d.taken());
    EXPECT_TRUE(d.isCond());
}

TEST(Trace, EmitFillsThumbCounts)
{
    AppExperiment exp(smallApp("Acrobat"), smallOptions());
    const program::Trace &t = exp.baseTrace();
    ASSERT_GT(t.dynCount, 0u);
    // Cross-check the emit-time counters against a rescan.
    std::uint64_t dyn = 0, thumb = 0;
    for (const auto &d : t.insts) {
        if (d.op == isa::OpClass::Cdp)
            continue;
        ++dyn;
        if (d.sizeBytes == 2)
            ++thumb;
    }
    EXPECT_EQ(t.dynCount, dyn);
    EXPECT_EQ(t.thumbDynCount, thumb);
}
