/**
 * @file
 * Workload-synthesis tests: every registered profile must produce a
 * structurally valid program whose statistics follow the profile.
 */

#include <gtest/gtest.h>

#include "program/emit.hh"
#include "program/walker.hh"
#include "workload/profile.hh"
#include "workload/synth.hh"

using namespace critics;
using namespace critics::workload;
using program::FlowKind;

TEST(Profiles, RegistrySizes)
{
    EXPECT_EQ(mobileApps().size(), 10u);  // Table II
    EXPECT_EQ(specIntApps().size(), 8u);
    EXPECT_EQ(specFloatApps().size(), 8u);
    EXPECT_EQ(allApps().size(), 26u);
}

TEST(Profiles, LookupByName)
{
    EXPECT_EQ(findApp("Acrobat").suite, Suite::Mobile);
    EXPECT_EQ(findApp("mcf").suite, Suite::SpecInt);
    EXPECT_EQ(findApp("lbm").suite, Suite::SpecFloat);
    EXPECT_THROW(findApp("NotAnApp"), std::runtime_error);
}

TEST(Profiles, TableIIMetadata)
{
    for (const auto &app : mobileApps()) {
        EXPECT_FALSE(app.activity.empty()) << app.name;
        EXPECT_FALSE(app.domain.empty()) << app.name;
    }
}

class SynthesizedProgram
    : public ::testing::TestWithParam<const char *>
{
  protected:
    AppProfile profile_ = findApp(GetParam());
};

TEST_P(SynthesizedProgram, StructurallyValid)
{
    // Shrink for test speed while keeping structure.
    profile_.numFunctions = std::min(profile_.numFunctions, 120u);
    profile_.dispatchTargets =
        std::min(profile_.dispatchTargets, 24u);
    const auto prog = synthesize(profile_);

    ASSERT_EQ(prog.funcs.size(), profile_.numFunctions);
    ASSERT_EQ(prog.memRegions.size(), 3u);
    ASSERT_FALSE(prog.indirectTables.empty());

    for (std::size_t f = 0; f < prog.funcs.size(); ++f) {
        const auto &fn = prog.funcs[f];
        ASSERT_FALSE(fn.blocks.empty()) << fn.name;
        for (const auto &block : fn.blocks) {
            ASSERT_FALSE(block.insts.empty());
            for (std::size_t i = 0; i < block.insts.size(); ++i) {
                const auto &si = block.insts[i];
                // Control transfers only terminate blocks.
                if (i + 1 < block.insts.size()) {
                    EXPECT_FALSE(si.isControl());
                }
                if (si.flow == FlowKind::CondBranch ||
                    si.flow == FlowKind::Jump) {
                    EXPECT_LT(si.targetBlock, fn.blocks.size());
                }
                if (si.flow == FlowKind::CallFn &&
                    si.indirectTable == program::NoTable) {
                    EXPECT_LT(si.targetFunc, prog.funcs.size());
                    EXPECT_NE(si.targetFunc, f); // layered, no recursion
                }
                if (si.isLoad() || si.isStore()) {
                    EXPECT_NE(si.memPattern, program::MemPattern::None);
                    EXPECT_LT(si.memRegionId, prog.memRegions.size());
                }
            }
        }
    }
}

TEST_P(SynthesizedProgram, DataflowTemporariesNotLiveAcrossBlocks)
{
    // The workload ABI the renaming pass relies on: temporaries r0..r6
    // are always written before read within a block.
    profile_.numFunctions = std::min(profile_.numFunctions, 120u);
    profile_.dispatchTargets =
        std::min(profile_.dispatchTargets, 24u);
    const auto prog = synthesize(profile_);
    for (const auto &fn : prog.funcs) {
        for (const auto &block : fn.blocks) {
            std::uint16_t written = 0;
            for (const auto &si : block.insts) {
                for (const auto src : {si.arch.src1, si.arch.src2}) {
                    if (src != isa::NoReg && src <= 6) {
                        EXPECT_TRUE(written & (1u << src))
                            << fn.name << " reads r" << int(src)
                            << " before any def (uid " << si.uid << ")";
                    }
                }
                if (si.arch.dst != isa::NoReg && si.arch.dst <= 6)
                    written |= static_cast<std::uint16_t>(
                        1u << si.arch.dst);
            }
        }
    }
}

TEST_P(SynthesizedProgram, Deterministic)
{
    profile_.numFunctions = std::min(profile_.numFunctions, 80u);
    profile_.dispatchTargets =
        std::min(profile_.dispatchTargets, 16u);
    const auto p1 = synthesize(profile_);
    const auto p2 = synthesize(profile_);
    ASSERT_EQ(p1.instCount(), p2.instCount());
    ASSERT_EQ(p1.textBytes(), p2.textBytes());
}

INSTANTIATE_TEST_SUITE_P(Apps, SynthesizedProgram,
                         ::testing::Values("Acrobat", "Browser", "Music",
                                           "Youtube", "mcf", "gcc",
                                           "lbm", "namd"));

TEST(SuiteCharacter, MobileCodeBaseLargerThanSpec)
{
    // Mobile apps carry a larger code base; the i-cache pressure gap
    // is even larger dynamically because the mobile walk is flat while
    // SPEC loops (covered by the Fig. 3 bench).
    const auto mobile = synthesize(findApp("Facebook"));
    const auto spec = synthesize(findApp("hmmer"));
    EXPECT_GT(mobile.textBytes(), spec.textBytes());
}

TEST(SuiteCharacter, FloatSuiteHasFpMix)
{
    const auto prog = synthesize(findApp("namd"));
    std::size_t fp = 0, total = 0;
    for (const auto &fn : prog.funcs) {
        for (const auto &block : fn.blocks) {
            for (const auto &si : block.insts) {
                ++total;
                const auto op = si.arch.op;
                if (op == isa::OpClass::FloatAdd ||
                    op == isa::OpClass::FloatMul ||
                    op == isa::OpClass::FloatDiv) {
                    ++fp;
                }
            }
        }
    }
    EXPECT_GT(static_cast<double>(fp) / static_cast<double>(total),
              0.08);
}
