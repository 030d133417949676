/**
 * @file
 * Static program representation: the unit the workload synthesizer emits,
 * the compiler passes rewrite, and the trace generator walks.
 *
 * A Program is a list of Functions; a Function is a list of BasicBlocks;
 * a BasicBlock is a straight-line list of StaticInsts whose last
 * instruction may be a control transfer.  Every StaticInst carries a
 * persistent `uid` assigned at synthesis time that survives all compiler
 * transformations — profiles (CritIC chains, criticality tables, address
 * streams) are keyed by uid so they stay valid across rewrites.
 */

#ifndef CRITICS_PROGRAM_PROGRAM_HH
#define CRITICS_PROGRAM_PROGRAM_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "isa/isa.hh"

namespace critics::program
{

using InstUid = std::uint32_t;
constexpr InstUid NoUid = std::numeric_limits<InstUid>::max();
constexpr std::uint32_t NoTable = std::numeric_limits<std::uint32_t>::max();

/** Candidate callee set of an indirect call site (vtable stand-in). */
struct IndirectTable
{
    std::vector<std::uint32_t> callees; ///< function indices
    std::vector<double> weights;        ///< sampling weights
};

/** One synthetic data region referenced by loads/stores. */
struct MemRegionDesc
{
    std::uint32_t base = 0;
    std::uint32_t size = 0;   ///< bytes; addresses wrap inside
    std::uint32_t stride = 0; ///< Stride pattern: bytes per occurrence
};

/** Memory reference behaviour of a static load/store (the synthetic
 *  stand-in for its address expression). */
enum class MemPattern : std::uint8_t
{
    None,       ///< not a memory instruction
    Stride,     ///< sequential/strided stream (arrays)
    HotRegion,  ///< random within a small hot region (stack, hot heap)
    ColdRegion, ///< random within a large region (pointer chasing)
};

/** Control-flow role of a block terminator. */
enum class FlowKind : std::uint8_t
{
    FallThrough, ///< no control transfer; next block in layout order
    CondBranch,  ///< conditional branch: taken -> targetBlock, else next
    Jump,        ///< unconditional branch to targetBlock
    CallFn,      ///< call targetFunc, then continue at next block
    Ret,         ///< return to caller
};

/**
 * One static instruction.  Architectural fields live in
 * isa::OperandInfo; the rest is workload/compiler metadata.
 */
struct StaticInst
{
    InstUid uid = NoUid;
    isa::OperandInfo arch;
    isa::Format format = isa::Format::Arm32;

    /** Memory metadata (loads/stores). */
    MemPattern memPattern = MemPattern::None;
    std::uint32_t memRegionId = 0;
    /** Disjointness class within the region: accesses with different
     *  classes provably never alias (what a compiler's points-to
     *  analysis would know); 0xFF = may alias anything in region. */
    std::uint8_t aliasClass = 0xFF;

    /** Terminator metadata (set only on a block's last instruction when
     *  it is a control transfer). */
    FlowKind flow = FlowKind::FallThrough;
    std::uint32_t targetBlock = 0; ///< CondBranch/Jump: block idx in fn
    std::uint32_t targetFunc = 0;  ///< CallFn: function idx
    std::uint32_t indirectTable = NoTable; ///< CallFn: candidate set
    float takenBias = 0.0f;        ///< CondBranch: probability taken
    float predictability = 1.0f;   ///< CondBranch: BPU-reachable accuracy

    /** CDP switch: number of following Thumb instructions covered. */
    std::uint8_t cdpRun = 0;

    /** Assigned by Program::layout(). */
    std::uint32_t address = 0;

    unsigned bytes() const { return isa::formatBytes(format); }
    bool isLoad() const { return arch.op == isa::OpClass::Load; }
    bool isStore() const { return arch.op == isa::OpClass::Store; }
    bool isControl() const { return isa::isControl(arch.op); }
    bool isCdp() const { return arch.op == isa::OpClass::Cdp; }
};

/** Straight-line sequence of instructions ending in at most one
 *  control transfer. */
struct BasicBlock
{
    std::vector<StaticInst> insts;
};

struct Function
{
    std::string name;
    std::vector<BasicBlock> blocks;
};

/** Location of a uid inside a program. */
struct InstLoc
{
    std::uint32_t func = 0;
    std::uint32_t block = 0;
    std::uint32_t index = 0;
};

/**
 * The terminator of a block: its last instruction when that is a
 * control transfer, nullptr otherwise.  A branch-pair format switch at
 * the block tail (Branch op with FallThrough flow) is returned too —
 * callers deciding successors must honour its FallThrough flow, which
 * is exactly what walkProgram does.
 */
const StaticInst *blockTerminator(const BasicBlock &block);

/**
 * Intra-function successor block indices of fn.blocks[b], mirroring
 * walkProgram's semantics exactly:
 *   - FallThrough (or no terminator): b+1 when it exists, else none
 *     (the implicit return leaves the function);
 *   - CondBranch: targetBlock plus the fallthrough successor;
 *   - Jump: targetBlock;
 *   - CallFn: b+1 when it exists (both the call's return and the
 *     depth-guard skip continue there), else none (tail call);
 *   - Ret: none.
 * Out-of-range targets are dropped (the structural verifier reports
 * them).  The result is sorted and deduplicated.
 */
std::vector<std::uint32_t> blockSuccessors(const Function &fn,
                                           std::uint32_t b);

/** True when fn.blocks[b] can leave the function: it ends in Ret, or
 *  any of its exits needs a fallthrough that runs off the function
 *  end (the implicit return walkProgram performs). */
bool blockExitsFunction(const Function &fn, std::uint32_t b);

/**
 * A whole program plus its address layout and uid index.
 *
 * Uids are dense: synthesis and the passes take them from allocUid(),
 * and layout() notes any other uid through noteUid().  The index is
 * therefore a flat vector indexed by uid, sized one past the largest
 * uid allocated or noted, with a sentinel location in absent entries.
 */
class Program
{
  public:
    std::vector<Function> funcs;
    std::vector<IndirectTable> indirectTables;
    std::vector<MemRegionDesc> memRegions;

    /** Base address of the text section. */
    static constexpr std::uint32_t TextBase = 0x10000;

    /**
     * Assign byte addresses to every instruction.  Functions are laid
     * out sequentially, 4-byte aligned; blocks follow each other inside
     * a function; a 2-byte Nop pad is *implied* (accounted in addresses)
     * whenever a 32-bit instruction would otherwise start on a 2-byte
     * boundary.  Also rebuilds the uid index whole, asserting that
     * every instruction has a uid and no uid appears twice.  Must be
     * called after any structural change.
     */
    void layout();

    /** Total text bytes after the last layout(). */
    std::uint32_t textBytes() const { return textBytes_; }

    /** Total static instruction count. */
    std::size_t instCount() const;

    /** Locate an instruction by uid; panics if absent. */
    const InstLoc &locate(InstUid uid) const;
    bool contains(InstUid uid) const;

    const StaticInst &inst(const InstLoc &loc) const;
    StaticInst &inst(const InstLoc &loc);
    const StaticInst &instByUid(InstUid uid) const;
    StaticInst &instByUid(InstUid uid);

    /** Next unused uid (for passes that insert instructions). */
    InstUid allocUid() { return nextUid_++; }
    void noteUid(InstUid uid);

    /** Fraction of static instructions currently in 16-bit format. */
    double thumbFraction() const;

  private:
    /** uid -> location as of the last layout(); the sentinel for a
     *  uid with no instruction. */
    std::vector<InstLoc> uidIndex_;
    std::uint32_t textBytes_ = 0;
    InstUid nextUid_ = 0;
};

} // namespace critics::program

#endif // CRITICS_PROGRAM_PROGRAM_HH
