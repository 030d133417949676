/**
 * @file
 * End-to-end tests of the experiment facade and the energy model.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"

using namespace critics;
using sim::AppExperiment;
using sim::ExperimentOptions;
using sim::Transform;
using sim::Variant;

namespace
{

ExperimentOptions
smallOptions()
{
    ExperimentOptions opt;
    opt.traceInsts = 60000;
    opt.warmupFraction = 0.25;
    return opt;
}

workload::AppProfile
smallApp(const std::string &name)
{
    auto profile = workload::findApp(name);
    profile.numFunctions = std::min(profile.numFunctions, 140u);
    profile.dispatchTargets = std::min(profile.dispatchTargets, 24u);
    return profile;
}

} // namespace

TEST(Experiment, BaselineDeterministic)
{
    AppExperiment a(smallApp("Acrobat"), smallOptions());
    AppExperiment b(smallApp("Acrobat"), smallOptions());
    EXPECT_EQ(a.baseline().cpu.cycles, b.baseline().cpu.cycles);
    EXPECT_EQ(a.baseTrace().size(), b.baseTrace().size());
}

TEST(Experiment, BaselineVariantIsIdentity)
{
    AppExperiment exp(smallApp("Acrobat"), smallOptions());
    const auto again = exp.run(Variant{});
    EXPECT_EQ(again.cpu.cycles, exp.baseline().cpu.cycles);
    EXPECT_DOUBLE_EQ(exp.speedup(again), 1.0);
}

TEST(Experiment, ProfileArtifactsConsistent)
{
    AppExperiment exp(smallApp("Office"), smallOptions());
    const auto &fanout = exp.fanout();
    EXPECT_EQ(fanout.fanout.size(), exp.baseTrace().size());
    EXPECT_GT(fanout.critFraction(), 0.0);
    EXPECT_LT(fanout.critFraction(), 0.5);

    const auto &mined = exp.mined();
    EXPECT_GT(mined.chains.size(), 0u);
    EXPECT_FALSE(exp.criticalSet().empty());
    const auto &stats = exp.chainStats();
    EXPECT_GT(stats.multiMemberChains, 0u);
}

class TransformVariant : public ::testing::TestWithParam<Transform>
{
};

TEST_P(TransformVariant, RunsAndStaysSane)
{
    AppExperiment exp(smallApp("Facebook"), smallOptions());
    Variant v;
    v.transform = GetParam();
    const auto result = exp.run(v);
    EXPECT_GT(result.cpu.cycles, 0u);
    EXPECT_GT(result.cpu.committed, 0u);
    // Any transform must stay within sane bounds of baseline.
    const double speedup = exp.speedup(result);
    EXPECT_GT(speedup, 0.7);
    EXPECT_LT(speedup, 1.5);
    if (GetParam() == Transform::CritIc ||
        GetParam() == Transform::Opp16 ||
        GetParam() == Transform::Compress ||
        GetParam() == Transform::Opp16PlusCritIc) {
        EXPECT_GT(result.dynThumbFraction, 0.0);
    }
    if (GetParam() == Transform::Hoist) {
        EXPECT_DOUBLE_EQ(result.dynThumbFraction, 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllTransforms, TransformVariant,
    ::testing::Values(Transform::Hoist, Transform::CritIc,
                      Transform::CritIcIdeal, Transform::Opp16,
                      Transform::Compress, Transform::Opp16PlusCritIc));

TEST(Experiment, HardwareVariantsRun)
{
    AppExperiment exp(smallApp("Email"), smallOptions());
    for (const bool knob : {true}) {
        Variant v;
        v.perfectBranch = knob;
        EXPECT_GT(exp.run(v).cpu.cycles, 0u);
        Variant v2;
        v2.icache4x = true;
        v2.efetch = true;
        v2.doubleFrontend = true;
        const auto all = exp.run(v2);
        EXPECT_GT(all.cpu.cycles, 0u);
        // More hardware must not slow the machine down appreciably.
        EXPECT_GE(exp.speedup(all), 0.95);
    }
}

TEST(Experiment, ExactLenSelectsOnlyThatLength)
{
    AppExperiment exp(smallApp("Acrobat"), smallOptions());
    Variant v;
    v.transform = Transform::CritIc;
    v.exactChainLen = 3;
    const auto result = exp.run(v);
    if (result.pass.chainsTransformed > 0) {
        EXPECT_EQ(result.pass.instsConverted % 3, 0u);
    }
}

TEST(Experiment, ProfileFractionMonotoneCoverage)
{
    AppExperiment exp(smallApp("Acrobat"), smallOptions());
    Variant lo;
    lo.transform = Transform::CritIc;
    lo.profileFraction = 0.2;
    Variant hi;
    hi.transform = Transform::CritIc;
    hi.profileFraction = 1.0;
    const auto rLo = exp.run(lo);
    const auto rHi = exp.run(hi);
    EXPECT_GE(rHi.selectionCoverage, rLo.selectionCoverage);
}

TEST(Experiment, TableIDescription)
{
    const auto text = sim::describeBaselineConfig();
    EXPECT_NE(text.find("128-entry ROB"), std::string::npos);
    EXPECT_NE(text.find("LPDDR3"), std::string::npos);
    EXPECT_NE(text.find("2MB L2"), std::string::npos);
}

// ---- Energy model ----------------------------------------------------------

TEST(Energy, ComponentsPositiveAndSum)
{
    AppExperiment exp(smallApp("Music"), smallOptions());
    const auto &e = exp.baseline().energy;
    EXPECT_GT(e.cpuCore, 0.0);
    EXPECT_GT(e.icache, 0.0);
    EXPECT_GT(e.dcache, 0.0);
    EXPECT_GT(e.socRest, 0.0);
    EXPECT_NEAR(e.total(),
                e.cpuCore + e.icache + e.dcache + e.l2 + e.dram +
                    e.socRest,
                1e-9);
    EXPECT_LT(e.cpu(), e.total());
}

TEST(Energy, ScalesWithActivity)
{
    cpu::CpuStats small;
    small.cycles = 1000;
    small.committed = 1000;
    small.fetchedBytes = 4000;
    small.mem.icache.accesses = 500;
    cpu::CpuStats big = small;
    big.cycles *= 2;
    big.committed *= 2;
    big.fetchedBytes *= 2;
    big.mem.icache.accesses *= 2;
    const auto eSmall = energy::computeEnergy(small);
    const auto eBig = energy::computeEnergy(big);
    EXPECT_NEAR(eBig.total(), 2.0 * eSmall.total(), 1e-6);
}

TEST(Energy, FewerIcacheAccessesSaveEnergy)
{
    cpu::CpuStats a;
    a.cycles = 1000;
    a.committed = 1000;
    a.mem.icache.accesses = 1000;
    cpu::CpuStats b = a;
    b.mem.icache.accesses = 600; // the paper's 40% fewer accesses
    EXPECT_LT(energy::computeEnergy(b).icache,
              energy::computeEnergy(a).icache);
    EXPECT_LT(energy::computeEnergy(b).total(),
              energy::computeEnergy(a).total());
}
