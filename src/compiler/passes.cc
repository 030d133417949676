#include "compiler/passes.hh"

#include <algorithm>

#include "program/dfg.hh"
#include "stats/registry.hh"
#include "support/logging.hh"
#include "verify/verify.hh"

namespace critics::compiler
{

void
PassStats::registerStats(stats::StatRegistry &reg,
                         const std::string &prefix) const
{
    reg.addCounter(prefix + ".chainsAttempted", chainsAttempted);
    reg.addCounter(prefix + ".chainsTransformed", chainsTransformed);
    reg.addCounter(prefix + ".hoistFailures", hoistFailures);
    reg.addCounter(prefix + ".localRenames", localRenames);
    reg.addCounter(prefix + ".blockedRaw", blockedRaw);
    reg.addCounter(prefix + ".blockedMem", blockedMem);
    reg.addCounter(prefix + ".blockedCtl", blockedCtl);
    reg.addCounter(prefix + ".blockedRename", blockedRename);
    reg.addCounter(prefix + ".instsConverted", instsConverted);
    reg.addCounter(prefix + ".instsExpanded", instsExpanded);
    reg.addCounter(prefix + ".cdpsInserted", cdpsInserted);
    reg.addCounter(prefix + ".switchBranchesInserted",
                   switchBranchesInserted);
}

using program::BasicBlock;
using program::InstUid;
using program::Program;
using program::StaticInst;
using isa::Format;
using isa::OpClass;

namespace
{

/** Find the current index of `uid` inside a block; -1 if absent. */
int
indexInBlock(const BasicBlock &block, InstUid uid)
{
    for (std::size_t i = 0; i < block.insts.size(); ++i)
        if (block.insts[i].uid == uid)
            return static_cast<int>(i);
    return -1;
}

/** True when the instruction converts to 16-bit without expansion. */
bool
directConvertible(const StaticInst &si)
{
    return isa::thumbDirectlyConvertible(si.arch);
}

StaticInst
makeCdp(Program &prog, unsigned run)
{
    StaticInst cdp;
    cdp.uid = prog.allocUid();
    cdp.arch.op = OpClass::Cdp;
    cdp.format = Format::Thumb16;
    cdp.cdpRun = static_cast<std::uint8_t>(run);
    return cdp;
}

/**
 * Locally rename the destination of block.insts[defIdx] (and every read
 * of it up to the next redefinition) to a register with no reference in
 * [rangeLo, lastUse].  Enables code motion past WAW/WAR conflicts while
 * keeping the value Thumb-encodable.  @return true on success.
 */
bool
renameDefLocally(BasicBlock &block, std::size_t defIdx,
                 std::size_t rangeLo)
{
    const std::uint8_t oldReg = block.insts[defIdx].arch.dst;
    if (oldReg == isa::NoReg)
        return false;
    // r7 is the workloads' recurrence accumulator and always live-out.
    constexpr std::uint8_t LiveOutReg = 7;
    if (oldReg == LiveOutReg)
        return false;

    // A later redefinition bounds the live range.  Without one the
    // value could be live-out; the workload ABI guarantees dataflow
    // temporaries r0..r6 die within their block, so those may still be
    // renamed up to their last in-block use.
    std::size_t nextRedef = block.insts.size();
    for (std::size_t i = defIdx + 1; i < block.insts.size(); ++i) {
        if (block.insts[i].arch.dst == oldReg) {
            nextRedef = i;
            break;
        }
    }
    if (nextRedef == block.insts.size() && oldReg > 6)
        return false;

    // The redefining instruction may itself read the old value (e.g.
    // r3 = r3 + r1): those source reads happen before its write and
    // must be renamed along with the earlier consumers.
    const std::size_t lastRead =
        std::min(nextRedef, block.insts.size() - 1);

    auto referenced = [&](std::uint8_t reg, std::size_t lo,
                          std::size_t hi) {
        for (std::size_t i = lo; i <= hi && i < block.insts.size(); ++i) {
            const auto &arch = block.insts[i].arch;
            if (arch.dst == reg || arch.src1 == reg || arch.src2 == reg)
                return true;
        }
        return false;
    };

    // Candidates are restricted to the dataflow temporaries r0..r6
    // (never live across blocks by the workload ABI) and must be
    // completely unreferenced from the hoist range to the end of the
    // block so no later reader is captured.
    for (std::uint8_t cand = 0; cand <= 6; ++cand) {
        if (cand == oldReg || cand == LiveOutReg)
            continue;
        if (referenced(cand, rangeLo, block.insts.size() - 1))
            continue;
        block.insts[defIdx].arch.dst = cand;
        for (std::size_t i = defIdx + 1; i <= lastRead; ++i) {
            auto &arch = block.insts[i].arch;
            if (arch.src1 == oldReg)
                arch.src1 = cand;
            if (arch.src2 == oldReg)
                arch.src2 = cand;
        }
        return true;
    }
    return false;
}

/** Uids of instructions already placed by a transformed chain; no
 *  later motion may cross or displace them.  One byte per uid (uids
 *  are dense, see Program), grown to the largest uid frozen. */
class FrozenSet
{
  public:
    void
    insert(const std::vector<InstUid> &chain)
    {
        for (const InstUid uid : chain) {
            if (uid >= mask_.size())
                mask_.resize(uid + 1, 0);
            mask_[uid] = 1;
        }
    }

    bool
    contains(InstUid uid) const
    {
        return uid < mask_.size() && mask_[uid] != 0;
    }

  private:
    std::vector<std::uint8_t> mask_;
};

/** True when motion must not cross `si`: a format switch, an already
 *  16-bit instruction (its covering switch's run would go stale), or a
 *  member of a previously transformed chain. */
bool
frozenForMotion(const StaticInst &si, const FrozenSet &frozen)
{
    return si.isCdp() || si.format == Format::Thumb16 ||
           frozen.contains(si.uid);
}

/** Context for the in-pass skip advisories (satellite of the verifier:
 *  every blocked/failed counter increment also explains itself when a
 *  lint audit is listening).  `diag` is null on the hot path, which
 *  therefore builds no advisory strings: a message that needs
 *  formatting is passed as a callable and only runs for an audit. */
struct PassDiagCtx
{
    verify::Report *diag = nullptr;
    const Program *prog = nullptr;
    std::uint32_t func = 0;
    std::uint32_t block = 0;

    void
    advise(const char *code, std::uint32_t index, const char *msg) const
    {
        advise(code, index, [msg] { return std::string(msg); });
    }

    template <typename MakeMsg>
    void
    advise(const char *code, std::uint32_t index, MakeMsg &&makeMsg) const
    {
        if (diag != nullptr) {
            diag->reportAt(verify::Severity::Advice, code, *prog, func,
                           block, index, makeMsg());
        }
    }
};

/**
 * Bubble block.insts[from] up to land right after `anchor`, renaming
 * the moving instruction's destination when a WAW/WAR conflict (and
 * only such a conflict) blocks a swap.
 */
std::size_t
hoistWithRename(BasicBlock &block, std::size_t from, std::size_t anchor,
                PassStats &stats, const FrozenSet &frozen,
                const PassDiagCtx &ctx)
{
    std::size_t pos = from;
    if (frozenForMotion(block.insts[pos], frozen)) {
        ++stats.blockedCtl;
        ctx.advise("verify.pass.blocked-ctl",
                   static_cast<std::uint32_t>(pos),
                   "chain member is inside a transformed 16-bit "
                   "region and may not move");
        return pos;
    }
    while (pos > anchor + 1) {
        if (frozenForMotion(block.insts[pos - 1], frozen)) {
            ++stats.blockedCtl;
            ctx.advise("verify.pass.blocked-ctl",
                       static_cast<std::uint32_t>(pos),
                       "hoist may not cross a transformed 16-bit "
                       "region");
            break;
        }
        if (program::canSwap(block.insts[pos - 1], block.insts[pos])) {
            std::swap(block.insts[pos - 1], block.insts[pos]);
            --pos;
            continue;
        }
        // Only register-name conflicts on the moving instruction's
        // destination are repairable.
        const auto &belowInst = block.insts[pos - 1];
        const auto &movingInst = block.insts[pos];
        const auto &below = belowInst.arch;
        const auto &moving = movingInst.arch;
        const bool raw = below.dst != isa::NoReg &&
            (moving.src1 == below.dst || moving.src2 == below.dst);
        const bool nameOnly = !raw && moving.dst != isa::NoReg &&
            (below.src1 == moving.dst || below.src2 == moving.dst ||
             below.dst == moving.dst);
        if (nameOnly && renameDefLocally(block, pos, anchor + 1)) {
            ++stats.localRenames;
            continue;
        }
        const auto blocked = [&](const char *code, const char *why) {
            ctx.advise(code, static_cast<std::uint32_t>(pos), [&] {
                return why + std::string(" (blocked by uid ") +
                       std::to_string(belowInst.uid) + ")";
            });
        };
        if (belowInst.isControl() || movingInst.isControl() ||
            belowInst.isCdp() || movingInst.isCdp()) {
            ++stats.blockedCtl;
            blocked("verify.pass.blocked-ctl",
                    "hoist stopped at a control boundary");
        } else if (raw) {
            ++stats.blockedRaw;
            blocked("verify.pass.blocked-raw",
                    "hoist stopped by a true dependence");
        } else if (nameOnly) {
            ++stats.blockedRename;
            blocked("verify.pass.blocked-rename",
                    "WAW/WAR clash and no free rename register");
        } else if ((belowInst.isLoad() || belowInst.isStore()) &&
                   (movingInst.isLoad() || movingInst.isStore())) {
            ++stats.blockedMem;
            blocked("verify.pass.blocked-mem",
                    "hoist stopped by a may-alias memory pair");
        }
        break;
    }
    return pos;
}

StaticInst
makeSwitchBranch(Program &prog, Format format)
{
    StaticInst br;
    br.uid = prog.allocUid();
    br.arch.op = OpClass::Branch;
    br.format = format;
    // flow stays FallThrough: emitted as an always-taken transfer to the
    // next sequential instruction (the decoder-visible switch).
    return br;
}

} // namespace

PassStats
applyCritIcPass(Program &prog,
                const std::vector<std::vector<InstUid>> &chains,
                const CritIcPassOptions &options,
                verify::PassAudit *audit)
{
    PassStats stats;
    verify::PassVerifier v(options.convertToThumb ? "critic" : "hoist",
                           prog, audit);
    v.setIdealThumb(options.forceConvert);
    FrozenSet frozen;

    for (const auto &chain : chains) {
        if (chain.size() < 2)
            continue;
        ++stats.chainsAttempted;

        if (!prog.contains(chain.front())) {
            if (auto *r = v.sink()) {
                r->report(verify::Severity::Advice,
                          "verify.pass.chain-stale",
                          "chain head uid " +
                              std::to_string(chain.front()) +
                              " is no longer in the program");
            }
            continue;
        }
        const program::InstLoc loc = prog.locate(chain.front());
        BasicBlock &block =
            prog.funcs[loc.func].blocks[loc.block];
        PassDiagCtx ctx{v.sink(), &prog, loc.func, loc.block};

        // Sanity: every member must still be in this block.
        bool intact = true;
        for (const InstUid uid : chain) {
            const int idx = indexInBlock(block, uid);
            if (idx < 0) {
                intact = false;
                if (auto *r = v.sink()) {
                    r->report(verify::Severity::Advice,
                              "verify.pass.chain-stale",
                              "chain member uid " + std::to_string(uid) +
                                  " left the head's block (f" +
                                  std::to_string(loc.func) + "/b" +
                                  std::to_string(loc.block) + ")");
                }
                break;
            }
        }
        if (!intact)
            continue;

        // Pack the chain contiguous at its site first (short,
        // same-motif motion), then move the packed group as early in
        // the block as legal ("schedule the sequence as early as
        // possible", Sec. II-C).
        int anchor = indexInBlock(block, chain.front());
        bool contiguous = true;
        for (std::size_t k = 1; k < chain.size(); ++k) {
            const int from = indexInBlock(block, chain[k]);
            critics_assert(from >= 0, "chain member vanished");
            if (from == anchor + 1) {
                anchor = from;
                continue;
            }
            if (from < anchor + 1) {
                // A previous hoist moved it out of order; give up.
                contiguous = false;
                break;
            }
            const std::size_t landed = hoistWithRename(
                block, static_cast<std::size_t>(from),
                static_cast<std::size_t>(anchor), stats, frozen, ctx);
            if (landed != static_cast<std::size_t>(anchor) + 1) {
                contiguous = false;
                break;
            }
            anchor = static_cast<int>(landed);
        }
        if (!contiguous) {
            ++stats.hoistFailures;
            if (ctx.diag != nullptr) {
                ctx.advise("verify.pass.hoist-failed",
                           static_cast<std::uint32_t>(
                               indexInBlock(block, chain.front())),
                           [&] {
                               return "chain of " +
                                      std::to_string(chain.size()) +
                                      " could not be packed contiguous";
                           });
            }
            continue; // partial hoists are harmless; skip conversion
        }

        // Group-hoist the packed chain upward while every member can
        // legally cross the instruction above it.
        {
            std::size_t groupLo = static_cast<std::size_t>(
                indexInBlock(block, chain.front()));
            const std::size_t groupLen = chain.size();
            while (groupLo > 0) {
                if (frozenForMotion(block.insts[groupLo - 1], frozen))
                    break; // never displace a transformed region
                bool legal = true;
                for (std::size_t k = 0; k < groupLen; ++k) {
                    if (program::canSwap(block.insts[groupLo - 1],
                                         block.insts[groupLo + k])) {
                        continue;
                    }
                    // A WAW/WAR name clash between the crossed
                    // instruction and a member is repairable by
                    // renaming the member's destination.
                    const auto &x = block.insts[groupLo - 1].arch;
                    const auto &m = block.insts[groupLo + k].arch;
                    const bool raw = x.dst != isa::NoReg &&
                        (m.src1 == x.dst || m.src2 == x.dst);
                    const bool nameOnly = !raw && m.dst != isa::NoReg &&
                        (x.src1 == m.dst || x.src2 == m.dst ||
                         x.dst == m.dst);
                    if (nameOnly &&
                        renameDefLocally(block, groupLo + k, groupLo)) {
                        ++stats.localRenames;
                        if (program::canSwap(block.insts[groupLo - 1],
                                             block.insts[groupLo + k]))
                            continue;
                    }
                    legal = false;
                    break;
                }
                if (!legal)
                    break;
                // Rotate the instruction above to just after the group.
                std::rotate(block.insts.begin() +
                                static_cast<std::ptrdiff_t>(groupLo - 1),
                            block.insts.begin() +
                                static_cast<std::ptrdiff_t>(groupLo),
                            block.insts.begin() +
                                static_cast<std::ptrdiff_t>(
                                    groupLo + groupLen));
                --groupLo;
            }
        }

        if (!options.convertToThumb) {
            ++stats.chainsTransformed;
            v.noteTransformedChain(chain);
            frozen.insert(chain);
            continue; // Hoist-only design point
        }

        // All-or-nothing convertibility check (footnote 1).
        const int first = indexInBlock(block, chain.front());
        bool convertible = true;
        if (!options.forceConvert) {
            for (std::size_t k = 0; k < chain.size(); ++k) {
                const StaticInst &member =
                    block.insts[first + static_cast<int>(k)];
                if (!directConvertible(member)) {
                    convertible = false;
                    ctx.advise(
                        "verify.pass.unconvertible",
                        static_cast<std::uint32_t>(
                            first + static_cast<int>(k)),
                        [&] {
                            return "member uid " +
                                   std::to_string(member.uid) +
                                   " has no direct 16-bit encoding; "
                                   "chain conversion is all-or-nothing";
                        });
                    break;
                }
            }
        }
        if (!convertible)
            continue;

        for (std::size_t k = 0; k < chain.size(); ++k) {
            block.insts[first + static_cast<int>(k)].format =
                Format::Thumb16;
            ++stats.instsConverted;
        }

        // Emit the format switch.
        switch (options.switchMode) {
          case SwitchMode::None:
            break;
          case SwitchMode::Cdp: {
            // One CDP covers up to 9 instructions; longer (ideal)
            // chains chain multiple CDPs.
            std::size_t remaining = chain.size();
            std::size_t insertAt = static_cast<std::size_t>(first);
            while (remaining > 0) {
                const unsigned run = static_cast<unsigned>(
                    std::min<std::size_t>(remaining, isa::MaxCdpRun));
                block.insts.insert(
                    block.insts.begin() +
                        static_cast<std::ptrdiff_t>(insertAt),
                    makeCdp(prog, run));
                ++stats.cdpsInserted;
                insertAt += run + 1;
                remaining -= run;
            }
            break;
          }
          case SwitchMode::BranchPair: {
            block.insts.insert(
                block.insts.begin() + first,
                makeSwitchBranch(prog, Format::Arm32));
            const std::size_t after =
                static_cast<std::size_t>(first) + 1 + chain.size();
            block.insts.insert(
                block.insts.begin() +
                    static_cast<std::ptrdiff_t>(after),
                makeSwitchBranch(prog, Format::Thumb16));
            stats.switchBranchesInserted += 2;
            break;
          }
        }
        ++stats.chainsTransformed;
        v.noteTransformedChain(chain);
        frozen.insert(chain);
    }

    prog.layout();
    v.finish(prog);
    return stats;
}

namespace
{

/** Convert one run of block instructions [start, start+len) in place,
 *  expanding 2-address violations and inserting CDP switches.  Appends
 *  the rewritten run to `out`. */
void
emitConvertedRun(Program &prog, std::vector<StaticInst> &out,
                 const std::vector<StaticInst> &insts, std::size_t start,
                 std::size_t len, PassStats &stats,
                 const PassDiagCtx &ctx)
{
    // First expand, then chunk under CDPs.
    std::vector<StaticInst> expanded;
    expanded.reserve(len + 4);
    for (std::size_t i = start; i < start + len; ++i) {
        StaticInst si = insts[i];
        if (!directConvertible(si)) {
            ctx.advise("verify.lint.mov-expansion",
                       static_cast<std::uint32_t>(i),
                       "2-address expansion lengthens the run by a "
                       "mov");
            // mov dst, src1 ; op dst, dst, src2 — the 1.6x-style
            // instruction-count cost of the 16-bit format.
            StaticInst mov;
            mov.uid = prog.allocUid();
            mov.arch.op = OpClass::IntAlu;
            mov.arch.dst = si.arch.dst;
            mov.arch.src1 = si.arch.src1;
            mov.format = Format::Thumb16;
            expanded.push_back(mov);
            si.arch.src1 = si.arch.dst;
            ++stats.instsExpanded;
        }
        si.format = Format::Thumb16;
        ++stats.instsConverted;
        expanded.push_back(si);
    }
    std::size_t pos = 0;
    while (pos < expanded.size()) {
        const unsigned run = static_cast<unsigned>(
            std::min<std::size_t>(expanded.size() - pos,
                                  isa::MaxCdpRun));
        out.push_back(makeCdp(prog, run));
        ++stats.cdpsInserted;
        for (unsigned k = 0; k < run; ++k)
            out.push_back(expanded[pos + k]);
        pos += run;
    }
}

/**
 * Shared run-scanner for OPP16/Compress.
 *
 * @param minRun        minimum convertible-run length worth switching
 * @param allowExpansion convert 2-address violations via mov-expansion
 *                       (OPP16) or keep them in 32-bit form (Compress)
 */
PassStats
convertRuns(Program &prog, unsigned minRun, bool allowExpansion,
            const char *passName, verify::PassAudit *audit)
{
    PassStats stats;
    verify::PassVerifier v(passName, prog, audit);
    for (std::uint32_t f = 0; f < prog.funcs.size(); ++f) {
        for (std::uint32_t b = 0; b < prog.funcs[f].blocks.size();
             ++b) {
            BasicBlock &block = prog.funcs[f].blocks[b];
            PassDiagCtx ctx{v.sink(), &prog, f, b};
            std::vector<StaticInst> out;
            out.reserve(block.insts.size() + 8);
            const auto &insts = block.insts;
            std::size_t i = 0;
            while (i < insts.size()) {
                const StaticInst &si = insts[i];
                const bool convertible =
                    si.format == Format::Arm32 && !si.isCdp() &&
                    isa::thumbConvertible(si.arch) &&
                    (allowExpansion || directConvertible(si));
                if (!convertible) {
                    out.push_back(si);
                    ++i;
                    continue;
                }
                std::size_t j = i;
                while (j < insts.size()) {
                    const StaticInst &sj = insts[j];
                    const bool ok =
                        sj.format == Format::Arm32 && !sj.isCdp() &&
                        isa::thumbConvertible(sj.arch) &&
                        (allowExpansion || directConvertible(sj));
                    if (!ok)
                        break;
                    ++j;
                }
                const std::size_t len = j - i;
                if (len >= minRun) {
                    emitConvertedRun(prog, out, insts, i, len, stats,
                                     ctx);
                } else {
                    if (len >= 2) {
                        ctx.advise(
                            "verify.pass.short-run",
                            static_cast<std::uint32_t>(i), [&] {
                                return "convertible run of " +
                                       std::to_string(len) +
                                       " below the minimum of " +
                                       std::to_string(minRun) +
                                       "; switch overhead would not "
                                       "pay off";
                            });
                    }
                    for (std::size_t k = i; k < j; ++k)
                        out.push_back(insts[k]);
                }
                i = j;
            }
            block.insts = std::move(out);
        }
    }
    prog.layout();
    v.finish(prog);
    return stats;
}

} // namespace

PassStats
applyOpp16Pass(Program &prog, unsigned minRun, verify::PassAudit *audit)
{
    return convertRuns(prog, minRun, false, "opp16", audit);
}

PassStats
applyCompressPass(Program &prog, verify::PassAudit *audit)
{
    return convertRuns(prog, 2, false, "compress", audit);
}

} // namespace critics::compiler
