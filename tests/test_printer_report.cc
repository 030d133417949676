/**
 * @file
 * Tests for the disassembler/printer and the JSON report export.
 */

#include <gtest/gtest.h>

#include "helpers.hh"
#include "program/printer.hh"
#include "sim/report.hh"

using namespace critics;
using namespace critics::test;

TEST(Printer, FormatsOperands)
{
    auto alu = inst(1, OpClass::IntAlu, 3, 2, 1);
    EXPECT_EQ(program::formatOperands(alu), "IntAlu r3, r2, r1");
    alu.arch.predicated = true;
    EXPECT_NE(program::formatOperands(alu).find(".pred"),
              std::string::npos);
    alu.arch.imm = 7;
    EXPECT_NE(program::formatOperands(alu).find("#7"),
              std::string::npos);
}

TEST(Printer, FormatsCdpAndControl)
{
    auto cdp = inst(2, OpClass::Cdp, isa::NoReg);
    cdp.cdpRun = 5;
    cdp.format = isa::Format::Thumb16;
    EXPECT_EQ(program::formatOperands(cdp), "CDP #5");

    auto br = inst(3, OpClass::Branch, isa::NoReg, 8);
    br.flow = program::FlowKind::CondBranch;
    br.targetBlock = 4;
    EXPECT_NE(program::formatOperands(br).find("->b4"),
              std::string::npos);
}

TEST(Printer, EncodingMatchesWidth)
{
    auto arm = inst(4, OpClass::IntAlu, 1, 2);
    EXPECT_EQ(program::formatEncoding(arm).size(), 10u); // 0x + 8 hex
    auto thumb = inst(5, OpClass::IntAlu, 1, 2);
    thumb.format = isa::Format::Thumb16;
    EXPECT_EQ(program::formatEncoding(thumb).size(), 6u); // 0x + 4 hex
}

TEST(Printer, BlockAndSummary)
{
    BasicBlock bb;
    bb.insts = {inst(0, OpClass::IntAlu, 0),
                inst(1, OpClass::Load, 1)};
    Program prog = makeProgram({bb});
    const auto text = program::formatBlock(prog.funcs[0].blocks[0]);
    EXPECT_NE(text.find("uid 0"), std::string::npos);
    EXPECT_NE(text.find("Load"), std::string::npos);
    EXPECT_NE(text.find("8 bytes"), std::string::npos);

    const auto summary = program::summarizeProgram(prog);
    EXPECT_NE(summary.find("1 functions"), std::string::npos);
    EXPECT_NE(summary.find("2 instructions"), std::string::npos);
    EXPECT_NE(summary.find("1 memory ops"), std::string::npos);
}

TEST(Report, JsonHasStableKeys)
{
    sim::RunResult result;
    result.cpu.cycles = 1000;
    result.cpu.committed = 900;
    result.cpu.all.insts = 900;
    result.dynThumbFraction = 0.25;
    const auto json = sim::toJson(result, "critic");
    for (const char *key :
         {"\"label\":\"critic\"", "\"cycles\":1000", "\"ipc\":",
          "\"dynThumbFraction\":0.25", "\"energy\":{",
          "\"stallForRd\":"}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
    // Crude structural validity: balanced braces.
    int depth = 0;
    for (const char c : json) {
        if (c == '{')
            ++depth;
        if (c == '}')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}
