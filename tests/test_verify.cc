/**
 * @file
 * The IR verifier and lint framework (src/verify/): seeded-mutation
 * tests (corrupt exactly one invariant, expect exactly one dotted
 * diagnostic code), differential dataflow checks, pass post-condition
 * bracketing, audit advisories, report plumbing and JSON export.
 */

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include <gtest/gtest.h>

#include "compiler/passes.hh"
#include "helpers.hh"
#include "sim/experiment.hh"
#include "stats/registry.hh"
#include "support/json.hh"
#include "verify/verify.hh"
#include "workload/profile.hh"
#include "workload/synth.hh"

using namespace critics;
using critics::test::inst;
using critics::test::makeProgram;
using program::BasicBlock;
using program::FlowKind;
using program::Program;
using program::StaticInst;
using isa::Format;
using isa::OpClass;

namespace
{

/** A small well-formed single-block program: r0..r3 ALU dataflow, a
 *  load/store pair, and a Jump terminator. */
Program
cleanProgram()
{
    BasicBlock bb;
    bb.insts.push_back(inst(0, OpClass::IntAlu, 0));
    bb.insts.push_back(inst(1, OpClass::IntAlu, 1, 0));
    bb.insts.push_back(inst(2, OpClass::Load, 2, 1));
    bb.insts.push_back(inst(3, OpClass::IntAlu, 3, 2, 1));
    bb.insts.push_back(inst(4, OpClass::Store, isa::NoReg, 3));
    StaticInst jump = inst(5, OpClass::Branch, isa::NoReg);
    jump.flow = FlowKind::Jump;
    jump.targetBlock = 0;
    bb.insts.push_back(jump);
    return makeProgram({bb});
}

/** Structural findings of one (possibly corrupted) program. */
verify::Report
structuralReport(const Program &prog,
                 const verify::StructuralOptions &opt = {})
{
    verify::Report report;
    verify::verifyStructure(prog, report, opt);
    return report;
}

/** The block every test mutates. */
std::vector<StaticInst> &
insts(Program &prog)
{
    return prog.funcs[0].blocks[0].insts;
}

} // namespace

TEST(VerifyStructural, CleanProgramIsClean)
{
    const auto report = structuralReport(cleanProgram());
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.errors(), 0u);
    EXPECT_EQ(report.warnings(), 0u);
}

TEST(VerifyStructural, SynthesizedWorkloadIsClean)
{
    workload::AppProfile profile = workload::findApp("Acrobat");
    const Program prog = workload::synthesize(profile);
    const auto report = structuralReport(prog);
    EXPECT_TRUE(report.clean()) << report.render();
    EXPECT_EQ(report.warnings(), 0u) << report.render();
}

// ---------------------------------------------------------------------------
// Seeded mutations: one corrupted invariant -> one exact dotted code.

TEST(VerifyMutation, DuplicateUid)
{
    Program prog = cleanProgram();
    insts(prog)[1].uid = 0;
    const auto report = structuralReport(prog);
    EXPECT_EQ(report.countOf("verify.struct.uid-dup"), 1u);
}

TEST(VerifyMutation, DuplicateUidAcrossFunctionsFarAbove)
{
    // The two copies sit in different functions, and the uid is far
    // above every other one: still exactly one finding, at the second
    // copy.
    Program prog = cleanProgram();
    program::Function fn;
    BasicBlock bb;
    bb.insts.push_back(inst(6, OpClass::IntAlu, 0));
    fn.blocks.push_back(bb);
    prog.funcs.push_back(fn);
    insts(prog)[2].uid = 1'000'000;
    prog.funcs[1].blocks[0].insts[0].uid = 1'000'000;

    const auto report = structuralReport(prog);
    EXPECT_EQ(report.countOf("verify.struct.uid-dup"), 1u);
    EXPECT_EQ(report.errors(), 1u) << report.render();
    ASSERT_EQ(report.diags().size(), 1u);
    EXPECT_EQ(report.diags()[0].func, 1u);
    EXPECT_EQ(report.diags()[0].message,
              "uid 1000000 appears more than once");
}

TEST(VerifyMutation, MissingUid)
{
    Program prog = cleanProgram();
    insts(prog)[2].uid = program::NoUid;
    const auto report = structuralReport(prog);
    EXPECT_EQ(report.countOf("verify.struct.uid-missing"), 1u);
}

TEST(VerifyMutation, FlowMidBlock)
{
    Program prog = cleanProgram();
    insts(prog)[1].arch.op = OpClass::Branch;
    insts(prog)[1].flow = FlowKind::Jump;
    insts(prog)[1].targetBlock = 0;
    const auto report = structuralReport(prog);
    EXPECT_EQ(report.countOf("verify.struct.flow-mid-block"), 1u);
}

TEST(VerifyMutation, FlowOpMismatch)
{
    Program prog = cleanProgram();
    insts(prog).back().arch.op = OpClass::IntAlu;
    const auto report = structuralReport(prog);
    EXPECT_EQ(report.countOf("verify.struct.flow-op-mismatch"), 1u);
}

TEST(VerifyMutation, TargetBlockOutOfRange)
{
    Program prog = cleanProgram();
    insts(prog).back().targetBlock = 57;
    const auto report = structuralReport(prog);
    EXPECT_EQ(report.countOf("verify.struct.target-block-range"), 1u);
}

TEST(VerifyMutation, TargetFuncOutOfRange)
{
    Program prog = cleanProgram();
    auto &tail = insts(prog).back();
    tail.arch.op = OpClass::Call;
    tail.flow = FlowKind::CallFn;
    tail.targetFunc = 99;
    const auto report = structuralReport(prog);
    EXPECT_EQ(report.countOf("verify.struct.target-func-range"), 1u);
}

TEST(VerifyMutation, IndirectTableOutOfRange)
{
    Program prog = cleanProgram();
    auto &tail = insts(prog).back();
    tail.arch.op = OpClass::Call;
    tail.flow = FlowKind::CallFn;
    tail.indirectTable = 3; // no tables registered
    const auto report = structuralReport(prog);
    EXPECT_EQ(report.countOf("verify.struct.indirect-table-range"), 1u);
}

TEST(VerifyMutation, RegisterOutOfRange)
{
    Program prog = cleanProgram();
    insts(prog)[1].arch.src1 = isa::NumArchRegs; // r16: one past the file
    const auto report = structuralReport(prog);
    EXPECT_EQ(report.countOf("verify.struct.reg-range"), 1u);
}

TEST(VerifyMutation, ThumbPredicated)
{
    Program prog = cleanProgram();
    insts(prog)[1].format = Format::Thumb16;
    insts(prog)[1].arch.predicated = true;
    const auto report = structuralReport(prog);
    EXPECT_EQ(report.countOf("verify.struct.thumb-predicated"), 1u);
    EXPECT_FALSE(report.clean());

    // CritIC.Ideal deliberately ignores encodability: same finding,
    // downgraded to an advisory.
    verify::StructuralOptions ideal;
    ideal.idealThumb = true;
    const auto relaxed = structuralReport(prog, ideal);
    EXPECT_EQ(relaxed.countOf("verify.struct.thumb-predicated"), 1u);
    EXPECT_TRUE(relaxed.clean());
}

TEST(VerifyMutation, ThumbRegisterOutOfRange)
{
    Program prog = cleanProgram();
    insts(prog)[1].format = Format::Thumb16;
    insts(prog)[1].arch.dst = isa::ThumbMaxDstReg + 1;
    const auto report = structuralReport(prog);
    EXPECT_EQ(report.countOf("verify.struct.thumb-reg-range"), 1u);
}

TEST(VerifyMutation, ThumbOpWithoutEncoding)
{
    Program prog = cleanProgram();
    insts(prog)[1].format = Format::Thumb16;
    insts(prog)[1].arch.op = OpClass::IntDiv;
    const auto report = structuralReport(prog);
    EXPECT_EQ(report.countOf("verify.struct.thumb-op"), 1u);
}

TEST(VerifyMutation, CdpRunOutOfRange)
{
    Program prog = cleanProgram();
    auto &si = insts(prog)[0];
    si.arch.op = OpClass::Cdp;
    si.arch.dst = isa::NoReg;
    si.format = Format::Thumb16;
    si.cdpRun = static_cast<std::uint8_t>(isa::MaxCdpRun + 1);
    const auto report = structuralReport(prog);
    EXPECT_EQ(report.countOf("verify.struct.cdp-run-range"), 1u);
}

TEST(VerifyMutation, CdpRunOnNonCdp)
{
    Program prog = cleanProgram();
    insts(prog)[1].cdpRun = 3;
    const auto report = structuralReport(prog);
    EXPECT_EQ(report.countOf("verify.struct.cdp-run-range"), 1u);
}

TEST(VerifyMutation, CdpOverrun)
{
    Program prog = cleanProgram();
    auto &si = insts(prog)[4]; // second-to-last: run of 9 dangles
    si.arch.op = OpClass::Cdp;
    si.arch.src1 = isa::NoReg;
    si.memPattern = program::MemPattern::None;
    si.format = Format::Thumb16;
    si.cdpRun = 9;
    const auto report = structuralReport(prog);
    EXPECT_EQ(report.countOf("verify.struct.cdp-overrun"), 1u);
}

TEST(VerifyMutation, CdpNestedAndCoversArm)
{
    // cdp(run 3) covering [alu16, cdp, alu32]: one nested switch, one
    // 32-bit instruction inside a 16-bit run.
    BasicBlock bb;
    StaticInst cdp0 = inst(0, OpClass::Cdp, isa::NoReg);
    cdp0.format = Format::Thumb16;
    cdp0.cdpRun = 3;
    bb.insts.push_back(cdp0);
    StaticInst alu = inst(1, OpClass::IntAlu, 0);
    alu.format = Format::Thumb16;
    bb.insts.push_back(alu);
    StaticInst cdp1 = inst(2, OpClass::Cdp, isa::NoReg);
    cdp1.format = Format::Thumb16;
    cdp1.cdpRun = 1;
    bb.insts.push_back(cdp1);
    bb.insts.push_back(inst(3, OpClass::IntAlu, 1, 0)); // Arm32
    bb.insts.push_back(inst(4, OpClass::IntAlu, 2, 1));
    Program prog = makeProgram({bb});
    const auto report = structuralReport(prog);
    EXPECT_EQ(report.countOf("verify.struct.cdp-nested"), 1u);
    EXPECT_EQ(report.countOf("verify.struct.cdp-covers-arm"), 1u);
}

TEST(VerifyMutation, SwitchBranchUnpaired)
{
    Program prog = cleanProgram();
    // A lone Arm32 switch opener (Branch + FallThrough) mid-block.
    auto &si = insts(prog)[1];
    si.arch.op = OpClass::Branch;
    si.arch.dst = isa::NoReg;
    si.arch.src1 = isa::NoReg;
    const auto report = structuralReport(prog);
    EXPECT_EQ(report.countOf("verify.struct.switch-unpaired"), 1u);
}

TEST(VerifyMutation, SwitchRegionCoversArm)
{
    BasicBlock bb;
    StaticInst open = inst(0, OpClass::Branch, isa::NoReg);
    bb.insts.push_back(open); // Arm32 opener
    bb.insts.push_back(inst(1, OpClass::IntAlu, 0)); // Arm32 inside!
    StaticInst close = inst(2, OpClass::Branch, isa::NoReg);
    close.format = Format::Thumb16;
    bb.insts.push_back(close);
    Program prog = makeProgram({bb});
    const auto report = structuralReport(prog);
    EXPECT_EQ(report.countOf("verify.struct.switch-covers-arm"), 1u);
    EXPECT_EQ(report.countOf("verify.struct.switch-unpaired"), 0u);
}

TEST(VerifyMutation, MemMetaOnNonMemory)
{
    Program prog = cleanProgram();
    insts(prog)[1].memPattern = program::MemPattern::Stride;
    const auto report = structuralReport(prog);
    EXPECT_EQ(report.countOf("verify.struct.mem-meta"), 1u);
    EXPECT_FALSE(report.clean());
}

TEST(VerifyMutation, MemMetaMissingIsWarning)
{
    Program prog = cleanProgram();
    insts(prog)[2].memPattern = program::MemPattern::None;
    const auto report = structuralReport(prog);
    EXPECT_EQ(report.countOf("verify.struct.mem-meta"), 1u);
    EXPECT_TRUE(report.clean()); // warning, not error
    EXPECT_EQ(report.warnings(), 1u);
}

TEST(VerifyMutation, MemRegionOutOfRange)
{
    Program prog = cleanProgram();
    insts(prog)[2].memRegionId = 200;
    const auto report = structuralReport(prog);
    EXPECT_EQ(report.countOf("verify.struct.mem-region-range"), 1u);
}

// ---------------------------------------------------------------------------
// Differential dataflow.

TEST(VerifyDataflow, IdenticalProgramIsClean)
{
    Program prog = cleanProgram();
    verify::DataflowSnapshot pre;
    pre.capture(prog);
    verify::Report report;
    verify::verifyDataflow(pre, prog, report);
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.errors() + report.warnings() + report.advice(), 0u);
}

TEST(VerifyDataflow, UidVanished)
{
    Program prog = cleanProgram();
    verify::DataflowSnapshot pre;
    pre.capture(prog);
    insts(prog).erase(insts(prog).begin() + 3);
    verify::Report report;
    verify::verifyDataflow(pre, prog, report);
    EXPECT_EQ(report.countOf("verify.dataflow.uid-vanished"), 1u);
}

TEST(VerifyDataflow, UidMovedAcrossBlocks)
{
    BasicBlock a, b;
    a.insts.push_back(inst(0, OpClass::IntAlu, 0));
    a.insts.push_back(inst(1, OpClass::IntAlu, 1, 0));
    b.insts.push_back(inst(2, OpClass::IntAlu, 2));
    Program prog = makeProgram({a, b});
    verify::DataflowSnapshot pre;
    pre.capture(prog);
    auto &blocks = prog.funcs[0].blocks;
    blocks[1].insts.push_back(blocks[0].insts.back());
    blocks[0].insts.pop_back();
    verify::Report report;
    verify::verifyDataflow(pre, prog, report);
    EXPECT_EQ(report.countOf("verify.dataflow.uid-moved"), 1u);
}

TEST(VerifyDataflow, UseBeforeDef)
{
    // [def r1, use r1] reordered to [use r1, def r1]: the use now
    // reads the live-in value.
    BasicBlock bb;
    bb.insts.push_back(inst(0, OpClass::IntAlu, 1));
    bb.insts.push_back(inst(1, OpClass::IntAlu, 2, 1));
    Program prog = makeProgram({bb});
    verify::DataflowSnapshot pre;
    pre.capture(prog);
    std::swap(insts(prog)[0], insts(prog)[1]);
    verify::Report report;
    verify::verifyDataflow(pre, prog, report);
    EXPECT_EQ(report.countOf("verify.dataflow.use-before-def"), 1u);
}

TEST(VerifyDataflow, RawBrokenByRedefSwap)
{
    // [def r1 (uid 0), def r1 (uid 1), use r1]: swapping the two defs
    // silently changes which value the use reads.
    BasicBlock bb;
    bb.insts.push_back(inst(0, OpClass::IntAlu, 1));
    bb.insts.push_back(inst(1, OpClass::IntAlu, 1, 2));
    bb.insts.push_back(inst(2, OpClass::IntAlu, 3, 1));
    Program prog = makeProgram({bb});
    verify::DataflowSnapshot pre;
    pre.capture(prog);
    std::swap(insts(prog)[0], insts(prog)[1]);
    verify::Report report;
    verify::verifyDataflow(pre, prog, report);
    EXPECT_EQ(report.countOf("verify.dataflow.raw-broken"), 1u);
}

TEST(VerifyDataflow, MovExpansionResolvesTransitively)
{
    // The OPP16 expansion shape: an inserted mov forwards uid 0's
    // value, and the consumer reads it through the mov.  The
    // differential check must trace through the inserted uid and stay
    // clean.
    BasicBlock bb;
    bb.insts.push_back(inst(0, OpClass::IntAlu, 1));
    bb.insts.push_back(inst(1, OpClass::IntAlu, 3, 1, 2));
    Program prog = makeProgram({bb});
    verify::DataflowSnapshot pre;
    pre.capture(prog);

    StaticInst mov = inst(100, OpClass::IntAlu, 3, 1);
    mov.format = Format::Thumb16;
    auto &body = insts(prog);
    body.insert(body.begin() + 1, mov);
    body[2].arch.src1 = 3; // consumer now reads through the mov

    verify::Report report;
    verify::verifyDataflow(pre, prog, report);
    EXPECT_TRUE(report.clean()) << report.render();
}

TEST(VerifyDataflow, ChainSplitDetected)
{
    BasicBlock bb;
    bb.insts.push_back(inst(0, OpClass::IntAlu, 0));
    bb.insts.push_back(inst(1, OpClass::IntAlu, 1)); // interloper
    bb.insts.push_back(inst(2, OpClass::IntAlu, 2, 0));
    Program prog = makeProgram({bb});
    verify::Report report;
    verify::verifyChainsContiguous(prog, {{0, 2}}, report);
    EXPECT_EQ(report.countOf("verify.dataflow.chain-split"), 1u);

    // A CDP interleaved between members is the transform's own switch
    // and does not split the chain.
    BasicBlock ok;
    ok.insts.push_back(inst(0, OpClass::IntAlu, 0));
    StaticInst cdp = inst(1, OpClass::Cdp, isa::NoReg);
    cdp.format = Format::Thumb16;
    cdp.cdpRun = 1;
    ok.insts.push_back(cdp);
    ok.insts.push_back(inst(2, OpClass::IntAlu, 2, 0));
    ok.insts.back().format = Format::Thumb16;
    Program prog2 = makeProgram({ok});
    verify::Report report2;
    verify::verifyChainsContiguous(prog2, {{0, 2}}, report2);
    EXPECT_TRUE(report2.clean()) << report2.render();
}

// ---------------------------------------------------------------------------
// Advisory lints.

TEST(VerifyLint, DeadSwitchAndUnconvertedRun)
{
    BasicBlock bb;
    StaticInst cdp = inst(0, OpClass::Cdp, isa::NoReg);
    cdp.format = Format::Thumb16;
    cdp.cdpRun = 1; // switch word costs more than it saves
    bb.insts.push_back(cdp);
    StaticInst covered = inst(1, OpClass::IntAlu, 0);
    covered.format = Format::Thumb16;
    bb.insts.push_back(covered);
    // Three directly convertible 32-bit instructions in a row.
    bb.insts.push_back(inst(2, OpClass::IntAlu, 1));
    bb.insts.push_back(inst(3, OpClass::IntAlu, 1, 1));
    bb.insts.push_back(inst(4, OpClass::IntAlu, 1, 1));
    Program prog = makeProgram({bb});
    verify::Report report;
    verify::lintAdvisories(prog, report, 3);
    EXPECT_EQ(report.countOf("verify.lint.dead-switch"), 1u);
    EXPECT_EQ(report.countOf("verify.lint.unconverted-run"), 1u);
    EXPECT_TRUE(report.clean());
}

// ---------------------------------------------------------------------------
// Pass post-conditions and audits.

TEST(VerifyPass, PassBracketsPanicOnCorruptOutput)
{
    // A PassVerifier without an audit escalates error findings to a
    // panic naming the pass.
    Program prog = cleanProgram();
    verify::PassVerifier v("test-pass", prog);
    insts(prog)[1].uid = 0; // corrupt: duplicate uid
    EXPECT_THROW(v.finish(prog), std::logic_error);
}

TEST(VerifyPass, AuditCollectsInsteadOfPanicking)
{
    Program prog = cleanProgram();
    verify::PassAudit audit;
    verify::PassVerifier v("test-pass", prog, &audit);
    insts(prog)[1].uid = 0;
    EXPECT_NO_THROW(v.finish(prog));
    EXPECT_EQ(audit.report.countOf("verify.struct.uid-dup"), 1u);
}

TEST(VerifyPass, CriticPassExplainsSkips)
{
    // A chain whose second member carries an immediate payload is not
    // directly convertible: with an audit attached, the pass says so.
    BasicBlock bb;
    bb.insts.push_back(inst(0, OpClass::IntAlu, 0));
    bb.insts.push_back(inst(1, OpClass::IntAlu, 1, 0));
    bb.insts.push_back(inst(2, OpClass::IntAlu, 2, 1));
    bb.insts[2].arch.imm = 42; // no immediate field in 16-bit format
    Program prog = makeProgram({bb});

    verify::PassAudit audit;
    compiler::CritIcPassOptions opt;
    const auto stats = compiler::applyCritIcPass(
        prog, {{0, 1, 2}}, opt, &audit);
    EXPECT_EQ(stats.instsConverted, 0u);
    EXPECT_EQ(audit.report.countOf("verify.pass.unconvertible"), 1u);
    EXPECT_TRUE(audit.report.clean()) << audit.report.render();
}

TEST(VerifyPass, StaleChainReported)
{
    Program prog = cleanProgram();
    verify::PassAudit audit;
    compiler::CritIcPassOptions opt;
    compiler::applyCritIcPass(prog, {{77, 78}}, opt, &audit);
    EXPECT_GE(audit.report.countOf("verify.pass.chain-stale"), 1u);
    EXPECT_TRUE(audit.report.clean());
}

TEST(VerifyPass, TransformedVariantsAuditClean)
{
    // End-to-end: every software transform over a synthesized app
    // passes the full audit (structural + dataflow + contiguity).
    workload::AppProfile profile = workload::findApp("Acrobat");
    sim::ExperimentOptions options;
    options.traceInsts = 30000;
    sim::AppExperiment exp(profile, options);

    for (const sim::Transform t :
         {sim::Transform::Hoist, sim::Transform::CritIc,
          sim::Transform::CritIcIdeal, sim::Transform::Opp16,
          sim::Transform::Compress, sim::Transform::Opp16PlusCritIc}) {
        sim::Variant variant;
        variant.transform = t;
        verify::PassAudit audit;
        Program prog = exp.baseProgram();
        exp.applyTransform(prog, variant, nullptr, &audit);
        EXPECT_TRUE(audit.report.clean())
            << "transform " << static_cast<int>(t) << ":\n"
            << audit.report.render();
        EXPECT_EQ(audit.report.warnings(), 0u);
    }
}

// ---------------------------------------------------------------------------
// Levels, counters, report plumbing.

TEST(VerifyLevel, EnvParsing)
{
    const char *saved = std::getenv("CRITICS_VERIFY");
    const std::string restore = saved ? saved : "";

    ::setenv("CRITICS_VERIFY", "off", 1);
    EXPECT_EQ(verify::levelFromEnv(), verify::Level::Off);
    ::setenv("CRITICS_VERIFY", "structural", 1);
    EXPECT_EQ(verify::levelFromEnv(), verify::Level::Structural);
    ::setenv("CRITICS_VERIFY", "global", 1);
    EXPECT_EQ(verify::levelFromEnv(), verify::Level::Global);
    ::unsetenv("CRITICS_VERIFY");
    EXPECT_EQ(verify::levelFromEnv(), verify::Level::Structural);
    ::setenv("CRITICS_VERIFY", "", 1);
    EXPECT_EQ(verify::levelFromEnv(), verify::Level::Structural);
    // Exactly those three names: the retired `full` level, the old
    // numeric and short aliases and typos are fatal, never a silent
    // fallback.
    for (const char *bad : {"full", "2", "0", "3", "struct", "bogus"}) {
        ::setenv("CRITICS_VERIFY", bad, 1);
        EXPECT_THROW(verify::levelFromEnv(), std::runtime_error) << bad;
    }

    if (saved)
        ::setenv("CRITICS_VERIFY", restore.c_str(), 1);
    else
        ::unsetenv("CRITICS_VERIFY");
}

TEST(VerifyCounters, PassesBumpProcessCounters)
{
    const auto structBefore = verify::counters().structuralChecks.load();
    Program prog = cleanProgram();
    compiler::applyOpp16Pass(prog);
    EXPECT_GT(verify::counters().structuralChecks.load(), structBefore);
}

TEST(VerifyCounters, RegisterStatsExposesFormulas)
{
    stats::StatRegistry reg;
    verify::registerStats(reg);
    const auto snapshot = reg.snapshot();
    std::vector<std::string> names;
    for (const auto &[name, value] : snapshot) {
        (void)value;
        names.push_back(name);
    }
    for (const char *want :
         {"verify.structChecks", "verify.globalChecks", "verify.errors",
          "verify.warnings", "verify.advisories"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), want),
                  names.end())
            << "missing " << want;
    }
}

TEST(VerifyReport, CapsStoredDiagnosticsButCountsAll)
{
    verify::Report report;
    for (int i = 0; i < 200; ++i)
        report.report(verify::Severity::Advice, "verify.lint.test",
                      "advisory " + std::to_string(i));
    EXPECT_EQ(report.countOf("verify.lint.test"), 200u);
    EXPECT_EQ(report.advice(), 200u);
    EXPECT_LE(report.diags().size(), verify::Report::MaxStoredPerCode);
}

TEST(VerifyReport, JsonRoundTrips)
{
    Program prog = cleanProgram();
    insts(prog)[1].uid = 0;
    insts(prog)[2].memRegionId = 200;
    const auto report = structuralReport(prog);

    json::JsonWriter w;
    w.beginObject();
    report.writeJson(w);
    w.endObject();
    const auto doc = json::parseJson(w.str());
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("errors")->asUint().value_or(0), 2u);
    const json::JsonValue *codes = doc->find("codes");
    ASSERT_NE(codes, nullptr);
    EXPECT_NE(codes->find("verify.struct.uid-dup"), nullptr);
    EXPECT_NE(codes->find("verify.struct.mem-region-range"), nullptr);
    const json::JsonValue *findings = doc->find("findings");
    ASSERT_NE(findings, nullptr);
    EXPECT_EQ(findings->elements.size(), 2u);
}

TEST(VerifyReport, RenderNamesCodeAndLocation)
{
    Program prog = cleanProgram();
    insts(prog)[2].memRegionId = 200;
    const auto report = structuralReport(prog);
    const std::string text = report.render();
    EXPECT_NE(text.find("verify.struct.mem-region-range"),
              std::string::npos);
    EXPECT_NE(text.find("test_fn"), std::string::npos);
}
