#include "program/program.hh"

#include <algorithm>
#include <limits>

#include "support/logging.hh"

namespace critics::program
{

namespace
{

/** Index entry of a uid with no instruction (no function has this
 *  index). */
constexpr InstLoc Absent{std::numeric_limits<std::uint32_t>::max(), 0, 0};

} // namespace

void
Program::layout()
{
    // Uids come from allocUid()/noteUid(), so nextUid_ bounds them;
    // the index grows past it only for a uid stamped directly into an
    // instruction since the last layout().
    uidIndex_.assign(nextUid_, Absent);
    std::uint32_t addr = TextBase;
    for (std::uint32_t f = 0; f < funcs.size(); ++f) {
        // Functions start 4-byte aligned.
        addr = (addr + 3u) & ~3u;
        for (std::uint32_t b = 0; b < funcs[f].blocks.size(); ++b) {
            auto &block = funcs[f].blocks[b];
            for (std::uint32_t i = 0; i < block.insts.size(); ++i) {
                auto &si = block.insts[i];
                // 32-bit instructions must sit on 4-byte boundaries;
                // account the implied 2-byte pad.  A CDP switch must
                // start a 32-bit word (Fig. 9: CDP in the first half,
                // the first 16-bit instruction in the second half).
                if ((si.format == isa::Format::Arm32 || si.isCdp()) &&
                    (addr & 3u)) {
                    addr += 2;
                }
                si.address = addr;
                addr += si.bytes();
                critics_assert(si.uid != NoUid, "instruction without uid");
                if (si.uid >= uidIndex_.size())
                    uidIndex_.resize(si.uid + 1, Absent);
                InstLoc &slot = uidIndex_[si.uid];
                critics_assert(slot.func == Absent.func, "duplicate uid ",
                               si.uid);
                slot = InstLoc{f, b, i};
                noteUid(si.uid);
            }
        }
    }
    textBytes_ = addr - TextBase;
}

std::size_t
Program::instCount() const
{
    std::size_t n = 0;
    for (const auto &fn : funcs)
        for (const auto &blk : fn.blocks)
            n += blk.insts.size();
    return n;
}

const InstLoc &
Program::locate(InstUid uid) const
{
    critics_assert(contains(uid), "unknown uid ", uid,
                   " (layout() stale?)");
    return uidIndex_[uid];
}

bool
Program::contains(InstUid uid) const
{
    return uid < uidIndex_.size() && uidIndex_[uid].func != Absent.func;
}

const StaticInst &
Program::inst(const InstLoc &loc) const
{
    return funcs[loc.func].blocks[loc.block].insts[loc.index];
}

StaticInst &
Program::inst(const InstLoc &loc)
{
    return funcs[loc.func].blocks[loc.block].insts[loc.index];
}

const StaticInst &
Program::instByUid(InstUid uid) const
{
    return inst(locate(uid));
}

StaticInst &
Program::instByUid(InstUid uid)
{
    return inst(locate(uid));
}

void
Program::noteUid(InstUid uid)
{
    if (uid != NoUid && uid >= nextUid_)
        nextUid_ = uid + 1;
}

const StaticInst *
blockTerminator(const BasicBlock &block)
{
    if (block.insts.empty() || !block.insts.back().isControl())
        return nullptr;
    return &block.insts.back();
}

std::vector<std::uint32_t>
blockSuccessors(const Function &fn, std::uint32_t b)
{
    const std::uint32_t n = static_cast<std::uint32_t>(fn.blocks.size());
    std::vector<std::uint32_t> succs;
    const StaticInst *term = blockTerminator(fn.blocks[b]);
    const FlowKind flow = term ? term->flow : FlowKind::FallThrough;

    const auto addFallthrough = [&] {
        if (b + 1 < n)
            succs.push_back(b + 1);
    };
    switch (flow) {
      case FlowKind::FallThrough:
      case FlowKind::CallFn:
        addFallthrough();
        break;
      case FlowKind::CondBranch:
        if (term->targetBlock < n)
            succs.push_back(term->targetBlock);
        addFallthrough();
        break;
      case FlowKind::Jump:
        if (term->targetBlock < n)
            succs.push_back(term->targetBlock);
        break;
      case FlowKind::Ret:
        break;
    }
    std::sort(succs.begin(), succs.end());
    succs.erase(std::unique(succs.begin(), succs.end()), succs.end());
    return succs;
}

bool
blockExitsFunction(const Function &fn, std::uint32_t b)
{
    const StaticInst *term = blockTerminator(fn.blocks[b]);
    const FlowKind flow = term ? term->flow : FlowKind::FallThrough;
    if (flow == FlowKind::Ret)
        return true;
    const bool fallsOffEnd = b + 1 >= fn.blocks.size();
    switch (flow) {
      case FlowKind::FallThrough:
      case FlowKind::CallFn:
      case FlowKind::CondBranch: // the not-taken side falls through
        return fallsOffEnd;
      case FlowKind::Jump:
      case FlowKind::Ret:
        return false;
    }
    return false;
}

double
Program::thumbFraction() const
{
    std::size_t thumb = 0, total = 0;
    for (const auto &fn : funcs) {
        for (const auto &blk : fn.blocks) {
            for (const auto &si : blk.insts) {
                ++total;
                if (si.format == isa::Format::Thumb16)
                    ++thumb;
            }
        }
    }
    return total ? static_cast<double>(thumb) /
                   static_cast<double>(total) : 0.0;
}

} // namespace critics::program
