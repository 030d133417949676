#include "verify/structural.hh"

#include <algorithm>
#include <sstream>
#include <vector>

#include "isa/isa.hh"

namespace critics::verify
{

using program::FlowKind;
using program::MemPattern;
using program::Program;
using program::StaticInst;
using isa::Format;
using isa::OpClass;

namespace
{

/** Expected op class of a terminator flow kind; Nop = no constraint. */
OpClass
expectedFlowOp(FlowKind flow)
{
    switch (flow) {
      case FlowKind::CondBranch:
      case FlowKind::Jump:
        return OpClass::Branch;
      case FlowKind::CallFn:
        return OpClass::Call;
      case FlowKind::Ret:
        return OpClass::Return;
      case FlowKind::FallThrough:
        break;
    }
    return OpClass::Nop;
}

std::string
regName(std::uint8_t reg)
{
    return "r" + std::to_string(static_cast<unsigned>(reg));
}

/** True for the decoder-visible format-switch branches the branch-pair
 *  mode inserts: a Branch op that transfers no control. */
bool
isSwitchBranch(const StaticInst &si)
{
    return si.arch.op == OpClass::Branch &&
           si.flow == FlowKind::FallThrough;
}

class StructuralChecker
{
  public:
    StructuralChecker(const Program &prog, Report &report,
                      const StructuralOptions &options)
        : prog_(prog), report_(report), options_(options)
    {
    }

    void
    run()
    {
        sizeSeenUids();
        checkIndirectTables();
        for (std::uint32_t f = 0; f < prog_.funcs.size(); ++f)
            for (std::uint32_t b = 0;
                 b < prog_.funcs[f].blocks.size(); ++b)
                checkBlock(f, b);
    }

  private:
    /** Size the duplicate-uid mask once: one byte per uid up to the
     *  largest one present (uids are dense, see Program). */
    void
    sizeSeenUids()
    {
        std::size_t bound = 0;
        for (const auto &fn : prog_.funcs)
            for (const auto &blk : fn.blocks)
                for (const StaticInst &si : blk.insts)
                    if (si.uid != program::NoUid)
                        bound = std::max<std::size_t>(bound, si.uid + 1u);
        seenUids_.assign(bound, 0);
    }

    void
    error(std::string code, std::uint32_t f, std::uint32_t b,
          std::uint32_t i, std::string msg)
    {
        report_.reportAt(Severity::Error, std::move(code), prog_, f, b,
                         i, std::move(msg));
    }

    void
    checkIndirectTables()
    {
        for (std::size_t t = 0; t < prog_.indirectTables.size(); ++t) {
            const auto &table = prog_.indirectTables[t];
            if (table.callees.empty()) {
                report_.report(Severity::Error,
                               "verify.struct.indirect-table-range",
                               "indirect table " + std::to_string(t) +
                                   " has no callees");
                continue;
            }
            if (table.weights.size() != table.callees.size()) {
                report_.report(Severity::Error,
                               "verify.struct.indirect-table-range",
                               "indirect table " + std::to_string(t) +
                                   " weight/callee count mismatch");
            }
            for (const std::uint32_t callee : table.callees) {
                if (callee >= prog_.funcs.size()) {
                    report_.report(
                        Severity::Error,
                        "verify.struct.indirect-table-range",
                        "indirect table " + std::to_string(t) +
                            " callee " + std::to_string(callee) +
                            " out of range (" +
                            std::to_string(prog_.funcs.size()) +
                            " functions)");
                }
            }
        }
    }

    void
    checkRegisters(const StaticInst &si, std::uint32_t f,
                   std::uint32_t b, std::uint32_t i)
    {
        const auto &arch = si.arch;
        for (const std::uint8_t reg : {arch.dst, arch.src1, arch.src2}) {
            if (reg != isa::NoReg && reg >= isa::NumArchRegs) {
                error("verify.struct.reg-range", f, b, i,
                      "operand " + regName(reg) +
                          " outside the architected register file");
            }
        }
        if (si.format != Format::Thumb16 || si.isCdp())
            return;

        // Thumb encodability.  CDPs are exempt above: the switch
        // command has its own encoding with no register operands.
        const Severity sev =
            options_.idealThumb ? Severity::Advice : Severity::Error;
        if (arch.predicated) {
            report_.reportAt(sev, "verify.struct.thumb-predicated",
                             prog_, f, b, i,
                             "predicated instruction in 16-bit format");
        }
        if (!isa::hasThumbEncoding(arch.op)) {
            report_.reportAt(sev, "verify.struct.thumb-op", prog_, f, b,
                             i,
                             std::string(isa::opClassName(arch.op)) +
                                 " has no 16-bit encoding");
        }
        if (arch.dst != isa::NoReg && arch.dst > isa::ThumbMaxDstReg) {
            report_.reportAt(sev, "verify.struct.thumb-reg-range",
                             prog_, f, b, i,
                             "16-bit destination " + regName(arch.dst) +
                                 " above r" +
                                 std::to_string(isa::ThumbMaxDstReg));
        }
        for (const std::uint8_t src : {arch.src1, arch.src2}) {
            if (src != isa::NoReg && src > isa::ThumbMaxSrcReg) {
                report_.reportAt(sev, "verify.struct.thumb-reg-range",
                                 prog_, f, b, i,
                                 "16-bit source " + regName(src) +
                                     " above r" +
                                     std::to_string(
                                         isa::ThumbMaxSrcReg));
            }
        }
    }

    void
    checkFlow(const StaticInst &si, std::uint32_t f, std::uint32_t b,
              std::uint32_t i, bool isTail)
    {
        if (si.flow == FlowKind::FallThrough)
            return;
        if (!isTail) {
            error("verify.struct.flow-mid-block", f, b, i,
                  "control transfer before the block tail");
        }
        const OpClass expect = expectedFlowOp(si.flow);
        if (expect != OpClass::Nop && si.arch.op != expect) {
            error("verify.struct.flow-op-mismatch", f, b, i,
                  std::string("terminator op is ") +
                      isa::opClassName(si.arch.op) + ", expected " +
                      isa::opClassName(expect));
        }
        const auto &fn = prog_.funcs[f];
        if ((si.flow == FlowKind::CondBranch ||
             si.flow == FlowKind::Jump) &&
            si.targetBlock >= fn.blocks.size()) {
            error("verify.struct.target-block-range", f, b, i,
                  "branch target block " +
                      std::to_string(si.targetBlock) + " of " +
                      std::to_string(fn.blocks.size()));
        }
        if (si.flow == FlowKind::CallFn) {
            if (si.indirectTable != program::NoTable) {
                if (si.indirectTable >= prog_.indirectTables.size()) {
                    error("verify.struct.indirect-table-range", f, b, i,
                          "indirect table index " +
                              std::to_string(si.indirectTable) +
                              " of " +
                              std::to_string(
                                  prog_.indirectTables.size()));
                }
            } else if (si.targetFunc >= prog_.funcs.size()) {
                error("verify.struct.target-func-range", f, b, i,
                      "call target function " +
                          std::to_string(si.targetFunc) + " of " +
                          std::to_string(prog_.funcs.size()));
            }
        }
    }

    void
    checkMemMeta(const StaticInst &si, std::uint32_t f, std::uint32_t b,
                 std::uint32_t i)
    {
        const bool isMem = si.isLoad() || si.isStore();
        if (!isMem) {
            if (si.memPattern != MemPattern::None) {
                error("verify.struct.mem-meta", f, b, i,
                      "memory pattern on a non-memory instruction");
            }
            return;
        }
        if (si.memPattern == MemPattern::None) {
            report_.reportAt(Severity::Warning,
                             "verify.struct.mem-meta", prog_, f, b, i,
                             "load/store without a memory pattern");
            return;
        }
        if (si.memRegionId >= prog_.memRegions.size()) {
            error("verify.struct.mem-region-range", f, b, i,
                  "memory region " + std::to_string(si.memRegionId) +
                      " of " + std::to_string(prog_.memRegions.size()));
        }
    }

    void
    checkBlock(std::uint32_t f, std::uint32_t b)
    {
        const auto &insts = prog_.funcs[f].blocks[b].insts;
        // CDP coverage: index one past the last instruction the active
        // switch covers; branch-pair state: inside an open 16-bit
        // region.
        std::size_t cdpCoverEnd = 0;
        bool inBranchRegion = false;
        std::uint32_t regionOpen = 0;

        for (std::uint32_t i = 0; i < insts.size(); ++i) {
            const StaticInst &si = insts[i];

            if (si.uid == program::NoUid) {
                error("verify.struct.uid-missing", f, b, i,
                      "instruction without a uid");
            } else if (seenUids_[si.uid] != 0) {
                error("verify.struct.uid-dup", f, b, i,
                      "uid " + std::to_string(si.uid) +
                          " appears more than once");
            } else {
                seenUids_[si.uid] = 1;
            }

            checkRegisters(si, f, b, i);
            checkFlow(si, f, b, i, i + 1 == insts.size());
            checkMemMeta(si, f, b, i);

            // ---- CDP switch coverage --------------------------------
            if (si.isCdp()) {
                if (i < cdpCoverEnd) {
                    error("verify.struct.cdp-nested", f, b, i,
                          "CDP switch inside another switch's run");
                }
                if (si.cdpRun < 1 || si.cdpRun > isa::MaxCdpRun) {
                    error("verify.struct.cdp-run-range", f, b, i,
                          "CDP run " + std::to_string(si.cdpRun) +
                              " outside [1, " +
                              std::to_string(isa::MaxCdpRun) + "]");
                } else if (i + si.cdpRun >= insts.size()) {
                    error("verify.struct.cdp-overrun", f, b, i,
                          "CDP run of " + std::to_string(si.cdpRun) +
                              " dangles past the block end");
                } else {
                    cdpCoverEnd = i + 1 + si.cdpRun;
                }
            } else {
                if (si.cdpRun != 0) {
                    error("verify.struct.cdp-run-range", f, b, i,
                          "cdpRun set on a non-CDP instruction");
                }
                if (i < cdpCoverEnd && si.format != Format::Thumb16) {
                    error("verify.struct.cdp-covers-arm", f, b, i,
                          "32-bit instruction inside a CDP 16-bit run");
                }
            }

            // ---- Branch-pair switch pairing -------------------------
            if (isSwitchBranch(si)) {
                if (si.format == Format::Arm32) {
                    if (inBranchRegion) {
                        error("verify.struct.switch-unpaired", f, b, i,
                              "32-bit switch branch inside the region "
                              "opened at i" +
                                  std::to_string(regionOpen));
                    }
                    inBranchRegion = true;
                    regionOpen = i;
                } else {
                    if (!inBranchRegion) {
                        error("verify.struct.switch-unpaired", f, b, i,
                              "closing switch branch without an "
                              "opening one");
                    }
                    inBranchRegion = false;
                }
            } else if (inBranchRegion && si.format != Format::Thumb16) {
                error("verify.struct.switch-covers-arm", f, b, i,
                      "32-bit instruction inside a branch-pair 16-bit "
                      "region");
            }
        }
        if (inBranchRegion) {
            error("verify.struct.switch-unpaired", f, b, regionOpen,
                  "switch region still open at the block end");
        }
    }

    const Program &prog_;
    Report &report_;
    StructuralOptions options_;
    std::vector<std::uint8_t> seenUids_; ///< 1 once the uid was seen
};

} // namespace

void
verifyStructure(const Program &prog, Report &report,
                const StructuralOptions &options)
{
    StructuralChecker(prog, report, options).run();
}

} // namespace critics::verify
