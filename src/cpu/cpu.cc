#include "cpu/cpu.hh"

#include <algorithm>
#include <array>
#include <deque>

#include "isa/isa.hh"
#include "stats/interval.hh"
#include "stats/registry.hh"
#include "stats/trace_event.hh"
#include "support/logging.hh"

namespace critics::cpu
{

void
StageBreakdown::registerStats(stats::StatRegistry &reg,
                              const std::string &name) const
{
    reg.addVector(name,
                  {{"fetch", nullptr, &fetch},
                   {"decode", nullptr, &decode},
                   {"issueWait", nullptr, &issueWait},
                   {"execute", nullptr, &execute},
                   {"commitWait", nullptr, &commitWait},
                   {"insts", &insts, nullptr}},
                  "per-stage residency (cycles over instructions)");
}

void
CpuStats::registerStats(stats::StatRegistry &reg,
                        const std::string &prefix) const
{
    reg.addCounter(prefix + ".cycles", cycles, "execution cycles");
    reg.addCounter(prefix + ".committed", committed,
                   "committed instructions");
    reg.addFormula(prefix + ".ipc", [this] { return ipc(); },
                   "committed / cycles");
    reg.addCounter(prefix + ".fetch.stallForI.icache", stallForIIcache,
                   "F.StallForI cycles: i-cache miss");
    reg.addCounter(prefix + ".fetch.stallForI.redirect",
                   stallForIRedirect,
                   "F.StallForI cycles: branch redirect");
    reg.addCounter(prefix + ".fetch.stallForRd", stallForRd,
                   "F.StallForR+D cycles: back-pressure");
    reg.addFormula(prefix + ".fetch.fracStallForI",
                   [this] { return fracStallForI(); },
                   "F.StallForI / cycles");
    reg.addFormula(prefix + ".fetch.fracStallForRd",
                   [this] { return fracStallForRd(); },
                   "F.StallForR+D / cycles");
    reg.addCounter(prefix + ".fetch.windows", fetchWindows,
                   "i-cache fetch accesses");
    reg.addCounter(prefix + ".fetch.bytes", fetchedBytes,
                   "code bytes brought in by fetch");
    reg.addCounter(prefix + ".decode.cdpBubbles", decodeCdpBubbles,
                   "decode cycles lost to CDP format switches");
    reg.addCounter(prefix + ".branch.cond", condBranches,
                   "conditional branches fetched");
    reg.addCounter(prefix + ".branch.mispredicts", mispredicts,
                   "direction mispredictions");
    reg.addFormula(prefix + ".branch.mpki",
                   [this] {
                       return committed
                           ? 1000.0 * static_cast<double>(mispredicts) /
                                 static_cast<double>(committed)
                           : 0.0;
                   },
                   "mispredicts per kilo-instruction");
    all.registerStats(reg, prefix + ".stage.all");
    crit.registerStats(reg, prefix + ".stage.crit");
    reg.addValue(prefix + ".efetchAccuracy", efetchAccuracy,
                 "EFetch call-target prediction accuracy");
}

using program::DynIdx;
using program::DynInst;
using program::Trace;
using isa::OpClass;

// The pipeline model lives in a named namespace, not an anonymous one:
// the sampling profiler symbolizes frames with dladdr, which sees only
// externally linked functions, and each stage should show up in a
// profile under its own name.
namespace detail
{

constexpr std::uint32_t Unknown = 0xFFFFFFFFu;
/** End of an intrusive slot list (waiter lists, wheel buckets). */
constexpr std::uint32_t NoSlot = 0xFFFFFFFFu;
/** "No future event" for the idle-cycle skip. */
constexpr std::uint64_t NoEvent = ~std::uint64_t{0};
/** Post-warmup commits that get stage spans when a trace sink is set:
 *  enough for a readable pipeline diagram, small enough to load. */
constexpr std::uint64_t kTraceMaxInsts = 4096;

/** Functional-unit pools. */
enum class FuPool : std::uint8_t { Alu, MulDiv, Fp, Mem };

FuPool
poolOf(OpClass op)
{
    switch (op) {
      case OpClass::IntMult:
      case OpClass::IntDiv:
        return FuPool::MulDiv;
      case OpClass::FloatAdd:
      case OpClass::FloatMul:
      case OpClass::FloatDiv:
        return FuPool::Fp;
      case OpClass::Load:
      case OpClass::Store:
        return FuPool::Mem;
      default:
        return FuPool::Alu;
    }
}

bool
unpipelined(OpClass op)
{
    return op == OpClass::IntDiv || op == OpClass::FloatDiv;
}

/** A pool of identical units, each able to start one op per cycle;
 *  unpipelined ops hold their unit until completion. */
class FuSet
{
  public:
    explicit FuSet(unsigned units) : busyUntil_(units, 0) {}

    bool
    tryIssue(std::uint64_t cycle, std::uint64_t holdUntil)
    {
        for (auto &busy : busyUntil_) {
            if (busy <= cycle) {
                busy = holdUntil;
                return true;
            }
        }
        return false;
    }

  private:
    std::vector<std::uint64_t> busyUntil_;
};

struct RobEntry
{
    DynIdx dyn = 0;
    float fetchLead = 0.0f; ///< share of upstream supply-stall cycles
    std::uint32_t fetchC = 0;
    std::uint32_t popC = 0;      ///< left the fetch queue
    std::uint32_t dispatchC = 0; ///< entered the ROB
    std::uint32_t issueC = 0;
    std::uint32_t completeC = 0;
    std::uint32_t readyC = Unknown; ///< known once producers issued
    /** Next slot on the one list an unissued entry sits in: its
     *  blocking producer's waiter list, or its wheel bucket. */
    std::uint32_t next = NoSlot;
    bool issued = false;
};

/** Issue-side state of one dynamic instruction as a producer. */
struct Producer
{
    std::uint32_t resultC = Unknown; ///< completion cycle, once issued
    std::uint32_t waiters = NoSlot;  ///< ROB slots blocked on it
};

struct FqEntry
{
    DynIdx dyn;
    std::uint32_t fetchC;
    float fetchLead;
};

struct PipeEntry
{
    DynIdx dyn;
    std::uint32_t fetchC;
    float fetchLead;
    std::uint32_t popC;
    std::uint32_t readyC;
};

/** Which front-end stall counter a cycle is charged to. */
enum class Stall : std::uint8_t { None, Icache, Redirect, Rd };

/** What the fetch stage did in one cycle. */
struct FetchOutcome
{
    unsigned fetched = 0;   ///< fetch slots used
    bool delivered = false; ///< anything entered the fetch queue
    bool sawMiss = false;   ///< this cycle's window missed the i-cache
    bool blocked = false;   ///< fetch was blocked on entry
    bool active = false;    ///< i-cache access or redirect resolved
};

/**
 * The pipeline of one runTrace call.  Each cycle runs the stages in
 * reverse pipeline order (commit, issue, dispatch, decode, fetch), so a
 * stage sees the state its successor left at the end of the previous
 * cycle.  Issue is event-driven and a cycle in which nothing happens
 * lets the clock jump to the next event (DESIGN.md §7).
 */
class Pipeline
{
  public:
    Pipeline(const Trace &trace, const CpuConfig &config,
             const mem::MemConfig &memConfig, bpu::BranchPredictor &bpu,
             const std::vector<std::uint8_t> *critMask,
             const std::unordered_set<program::InstUid> *criticalSet);

    // The interval registry views stats_ by address.
    Pipeline(const Pipeline &) = delete;
    Pipeline &operator=(const Pipeline &) = delete;

    /** Simulate to the last commit; the stats of the post-warmup
     *  window. */
    CpuStats run();

  private:
    /** Future ready cycles closer than this go into the wheel; farther
     *  ones wait in the overflow list.  A power of two. */
    static constexpr std::uint64_t kWheelSize = 1024;

    // Stage functions, kept out of line so the profiler attributes
    // samples to each stage.
    [[gnu::noinline]] bool commit();
    [[gnu::noinline]] bool issue();
    [[gnu::noinline]] bool dispatch();
    [[gnu::noinline]] bool decode();
    [[gnu::noinline]] FetchOutcome fetch();
    [[gnu::noinline]] Stall attributeStalls(const FetchOutcome &f);
    [[gnu::noinline]] void skipIdle(Stall stall);

    void observe();
    void charge(Stall stall, std::uint64_t cycles);
    void traceSpans(const RobEntry &head, std::uint32_t commitC);

    bool isCritStatic(DynIdx idx) const;
    void resolveOperands(std::uint32_t slot);
    void wake(DynIdx producer);
    void schedule(std::uint32_t slot);
    void pushBucket(std::uint32_t slot);
    void makeEligible(std::uint32_t slot);
    std::uint64_t nextEvent() const;

    const Trace &trace_;
    const CpuConfig &config_;
    const mem::MemConfig &memConfig_;
    bpu::BranchPredictor &bpu_;
    const std::vector<std::uint8_t> *critMask_;
    const DynIdx n_;

    CpuStats stats_;
    CpuStats warmupSnapshot_;
    mem::MemorySystem memory_;
    mem::EFetchPredictor efetch_;

    /** Per-dynamic-index criticality flags, flattened once per run from
     *  the uid set (empty when no set is given). */
    std::vector<std::uint8_t> critDyn_;
    const bool usePriority_;

    std::vector<Producer> producers_;

    std::uint64_t cycle_ = 0;
    std::uint64_t committed_ = 0;
    bool warmupDone_;
    std::uint64_t nextSample_;

    DynIdx fetchIdx_ = 0;
    std::uint64_t fetchBlockedUntil_ = 0;
    bool blockedOnIcache_ = false;
    DynIdx haltBranch_ = -1; ///< mispredicted branch gating fetch
    std::uint64_t cdpLatencyUntil_ = 0;
    double pendingSupplyStall_ = 0.0; ///< I-side stall cycles to attribute

    std::deque<FqEntry> fetchQ_;
    std::deque<PipeEntry> decodePipe_;
    const std::size_t decodePipeCap_;

    std::vector<RobEntry> rob_;
    std::size_t robHead_ = 0, robCount_ = 0;

    std::array<FuSet, 4> fus_; ///< indexed by FuPool

    // Issue queue.  An unissued ROB entry is in exactly one place: the
    // waiter list of a producer that has not issued, a wheel bucket or
    // the overflow list (ready cycle known, in the future), or
    // `eligible_` (ready cycle reached).
    std::vector<std::uint32_t> wheel_;     ///< bucket heads by cycle
    std::size_t wheelCount_ = 0;
    std::vector<std::uint32_t> overflow_;  ///< ready beyond the horizon
    std::uint64_t overflowMin_ = NoEvent;
    std::vector<std::uint32_t> eligible_;  ///< ready, in program order
    std::vector<std::uint32_t> critFirst_; ///< prioritized issue order

    stats::StatRegistry reg_;
    const bool sampling_;
    stats::TraceEventWriter *const tsink_;
    std::uint64_t tracedInsts_ = 0;
};

Pipeline::Pipeline(const Trace &trace, const CpuConfig &config,
                   const mem::MemConfig &memConfig,
                   bpu::BranchPredictor &bpu,
                   const std::vector<std::uint8_t> *critMask,
                   const std::unordered_set<program::InstUid> *criticalSet)
    : trace_(trace), config_(config), memConfig_(memConfig), bpu_(bpu),
      critMask_(critMask), n_(static_cast<DynIdx>(trace.size())),
      memory_(memConfig),
      usePriority_((config.aluPrioritization || config.backendPrio) &&
                   criticalSet != nullptr),
      producers_(trace.size()),
      warmupDone_(config.warmupCommits == 0),
      nextSample_(config.statsInterval),
      decodePipeCap_(static_cast<std::size_t>(config.decodeWidth) * 2 *
                     (config.frontendLatency + 1)),
      rob_(config.robSize),
      fus_{FuSet(config.intAluUnits), FuSet(config.mulDivUnits),
           FuSet(config.fpUnits), FuSet(config.memPorts)},
      wheel_(kWheelSize, NoSlot),
      sampling_(config.intervals != nullptr && config.statsInterval > 0),
      tsink_(config.traceSink)
{
    // Flatten the per-uid criticality set into a per-dynamic-index byte
    // mask once per run, so the issue prioritization and the prefetch
    // hook index an array instead of probing a hash set per
    // instruction.  Uids are dense (Program::allocUid is sequential),
    // so the intermediate per-uid table is small.
    if (criticalSet != nullptr) {
        program::InstUid maxUid = 0;
        for (const DynInst &d : trace.insts)
            maxUid = std::max(maxUid, d.staticUid);
        std::vector<std::uint8_t> critUid(
            static_cast<std::size_t>(maxUid) + 1, 0);
        for (const program::InstUid uid : *criticalSet) {
            if (uid <= maxUid)
                critUid[uid] = 1;
        }
        critDyn_.resize(trace.size());
        for (std::size_t i = 0; i < trace.size(); ++i)
            critDyn_[i] = critUid[trace.insts[i].staticUid];
    }
    eligible_.reserve(config.robSize);
    critFirst_.reserve(config.robSize);

    // Interval rows hold *cumulative raw* values: the registry views
    // the live `stats_` object, whose derived fields (cycles, mem) are
    // refreshed right before each sample.  Warmup subtraction happens
    // only on the returned totals, so (lastRow - warmupRow) reproduces
    // the reported post-warmup numbers.
    if (sampling_) {
        stats_.registerStats(reg_, "cpu");
        stats_.mem.registerStats(reg_, "mem");
    }
    if (tsink_) {
        tsink_->setProcessName(0, "cpu pipeline");
        tsink_->setThreadName(0, 1, "fetch");
        tsink_->setThreadName(0, 2, "decode");
        tsink_->setThreadName(0, 3, "issueWait");
        tsink_->setThreadName(0, 4, "execute");
        tsink_->setThreadName(0, 5, "commitWait");
    }
}

bool
Pipeline::isCritStatic(DynIdx idx) const
{
    return !critDyn_.empty() &&
           critDyn_[static_cast<std::size_t>(idx)] != 0;
}

/** Report the post-warmup window only. */
void
subtractWarmup(CpuStats &stats, const CpuStats &warm)
{
    auto sub = [](std::uint64_t &a, std::uint64_t b) {
        a = a >= b ? a - b : 0;
    };
    sub(stats.cycles, warm.cycles);
    sub(stats.committed, warm.committed);
    sub(stats.stallForIIcache, warm.stallForIIcache);
    sub(stats.stallForIRedirect, warm.stallForIRedirect);
    sub(stats.stallForRd, warm.stallForRd);
    sub(stats.decodeCdpBubbles, warm.decodeCdpBubbles);
    sub(stats.fetchedBytes, warm.fetchedBytes);
    sub(stats.condBranches, warm.condBranches);
    sub(stats.mispredicts, warm.mispredicts);
    sub(stats.fetchWindows, warm.fetchWindows);
    auto subBreak = [](StageBreakdown &a, const StageBreakdown &b) {
        a.fetch -= b.fetch;
        a.decode -= b.decode;
        a.issueWait -= b.issueWait;
        a.execute -= b.execute;
        a.commitWait -= b.commitWait;
        a.insts -= b.insts;
    };
    subBreak(stats.all, warm.all);
    subBreak(stats.crit, warm.crit);
    auto subCache = [&](mem::CacheStats &a, const mem::CacheStats &b) {
        sub(a.accesses, b.accesses);
        sub(a.misses, b.misses);
        sub(a.prefetchFills, b.prefetchFills);
        sub(a.prefetchHits, b.prefetchHits);
    };
    subCache(stats.mem.icache, warm.mem.icache);
    subCache(stats.mem.dcache, warm.mem.dcache);
    subCache(stats.mem.l2, warm.mem.l2);
    sub(stats.mem.dram.reads, warm.mem.dram.reads);
    sub(stats.mem.dram.rowHits, warm.mem.dram.rowHits);
    sub(stats.mem.dram.rowConflicts, warm.mem.dram.rowConflicts);
    sub(stats.mem.dram.activates, warm.mem.dram.activates);
    sub(stats.mem.dram.totalLatency, warm.mem.dram.totalLatency);
    sub(stats.mem.storeAccesses, warm.mem.storeAccesses);
}

CpuStats
Pipeline::run()
{
    const std::uint64_t cycleLimit =
        200ull * trace_.size() + 1000000ull;

    while (committed_ < static_cast<std::uint64_t>(n_)) {
        critics_assert(cycle_ < cycleLimit,
                       "pipeline deadlock at cycle ", cycle_,
                       " committed ", committed_, "/", n_);
        const bool committed = commit();
        const bool hadEligible = issue();
        const bool dispatched = dispatch();
        const bool decoded = decode();
        const FetchOutcome fetched = fetch();
        const Stall stall = attributeStalls(fetched);
        observe();
        if (committed || hadEligible || dispatched || decoded ||
            fetched.active) {
            ++cycle_;
        } else {
            skipIdle(stall);
        }
    }

    stats_.cycles = cycle_;
    stats_.committed = committed_;
    stats_.mem = memory_.stats();
    stats_.efetchAccuracy = efetch_.accuracy();
    // Final forced row: cumulative end-of-run values, before any warmup
    // subtraction (a repeated index overwrites the periodic row).
    if (sampling_)
        config_.intervals->sample(reg_, committed_);
    critics_debug("cpu", committed_, " insts in ", cycle_,
                  " cycles (warmup ", config_.warmupCommits, ")");
    if (config_.warmupCommits > 0)
        subtractWarmup(stats_, warmupSnapshot_);
    return stats_;
}

bool
Pipeline::commit()
{
    unsigned comm = 0;
    while (comm < config_.commitWidth && robCount_ > 0) {
        const RobEntry &head = rob_[robHead_];
        if (!head.issued || head.completeC > cycle_)
            break;
        const auto commitC = static_cast<std::uint32_t>(cycle_);
        auto account = [&](StageBreakdown &b) {
            b.fetch += (head.popC - head.fetchC) + head.fetchLead;
            b.decode += head.dispatchC - head.popC;
            b.issueWait += head.issueC - head.dispatchC;
            b.execute += head.completeC - head.issueC;
            b.commitWait += commitC - head.completeC;
            ++b.insts;
        };
        account(stats_.all);
        if (critMask_ && (*critMask_)[head.dyn])
            account(stats_.crit);
        if (tsink_ && warmupDone_ &&
            tracedInsts_ < kTraceMaxInsts) {
            traceSpans(head, commitC);
        }
        robHead_ = (robHead_ + 1) % config_.robSize;
        --robCount_;
        ++committed_;
        ++comm;
    }
    return comm > 0;
}

void
Pipeline::traceSpans(const RobEntry &head, std::uint32_t commitC)
{
    // One span per stage, on the stage's own track, so the viewer shows
    // the classic pipeline diagram.  ts is in simulated cycles
    // (rendered as microseconds).
    const char *op = isa::opClassName(trace_.insts[head.dyn].op);
    const auto dyn = static_cast<double>(head.dyn);
    auto span = [&](std::uint32_t from, std::uint32_t to,
                    std::uint32_t tid) {
        if (to > from)
            tsink_->complete(op, "pipeline", from, to - from, 0, tid,
                             "dyn", dyn);
    };
    span(head.fetchC, head.popC, 1);
    span(head.popC, head.dispatchC, 2);
    span(head.dispatchC, head.issueC, 3);
    span(head.issueC, head.completeC, 4);
    span(head.completeC, commitC, 5);
    ++tracedInsts_;
}

/**
 * Find the entry's ready cycle, or park it on the first producer that
 * has not issued.  resultC is written only at issue and always exceeds
 * the issue cycle, so readiness found here, at dispatch or wake-up,
 * equals readiness found at the start of the next cycle's issue, and
 * the entry becomes eligible in cycle readyC.
 */
void
Pipeline::resolveOperands(std::uint32_t slot)
{
    RobEntry &entry = rob_[slot];
    const DynInst &d = trace_.insts[entry.dyn];
    std::uint32_t ready = entry.dispatchC + 1;
    for (const DynIdx dep : {d.dep0, d.dep1}) {
        if (dep == program::NoDep)
            continue;
        Producer &p = producers_[static_cast<std::size_t>(dep)];
        if (p.resultC == Unknown) {
            entry.next = p.waiters;
            p.waiters = slot;
            return;
        }
        ready = std::max(ready, p.resultC);
    }
    entry.readyC = ready;
    schedule(slot);
}

void
Pipeline::wake(DynIdx producer)
{
    Producer &p = producers_[static_cast<std::size_t>(producer)];
    std::uint32_t slot = p.waiters;
    p.waiters = NoSlot;
    while (slot != NoSlot) {
        const std::uint32_t next = rob_[slot].next;
        resolveOperands(slot);
        slot = next;
    }
}

void
Pipeline::schedule(std::uint32_t slot)
{
    const std::uint64_t ready = rob_[slot].readyC;
    if (ready - cycle_ < kWheelSize) {
        pushBucket(slot);
    } else {
        overflow_.push_back(slot);
        overflowMin_ = std::min(overflowMin_, ready);
    }
}

void
Pipeline::pushBucket(std::uint32_t slot)
{
    // Invariant: cycle_ <= readyC < cycle_ + kWheelSize, and every
    // bucket is drained in its own cycle (skipIdle never jumps past a
    // non-empty one), so a bucket holds only entries for one cycle.
    RobEntry &entry = rob_[slot];
    std::uint32_t &head = wheel_[entry.readyC & (kWheelSize - 1)];
    entry.next = head;
    head = slot;
    ++wheelCount_;
}

void
Pipeline::makeEligible(std::uint32_t slot)
{
    // Program order is dyn order: dispatch is in order.
    const DynIdx dyn = rob_[slot].dyn;
    auto pos = eligible_.end();
    while (pos != eligible_.begin() && rob_[*(pos - 1)].dyn > dyn)
        --pos;
    eligible_.insert(pos, slot);
}

bool
Pipeline::issue()
{
    if (!overflow_.empty() && overflowMin_ - cycle_ < kWheelSize) {
        std::uint64_t rest = NoEvent;
        std::size_t kept = 0;
        for (const std::uint32_t slot : overflow_) {
            const std::uint64_t ready = rob_[slot].readyC;
            if (ready - cycle_ < kWheelSize) {
                pushBucket(slot);
            } else {
                overflow_[kept++] = slot;
                rest = std::min(rest, ready);
            }
        }
        overflow_.resize(kept);
        overflowMin_ = rest;
    }
    std::uint32_t &bucket = wheel_[cycle_ & (kWheelSize - 1)];
    for (std::uint32_t slot = bucket; slot != NoSlot;) {
        const std::uint32_t next = rob_[slot].next;
        makeEligible(slot);
        --wheelCount_;
        slot = next;
    }
    bucket = NoSlot;
    if (eligible_.empty())
        return false;

    const std::vector<std::uint32_t> *order = &eligible_;
    if (usePriority_) {
        // Critical first, each half in program order.
        critFirst_.clear();
        for (const std::uint32_t slot : eligible_) {
            if (isCritStatic(rob_[slot].dyn))
                critFirst_.push_back(slot);
        }
        for (const std::uint32_t slot : eligible_) {
            if (!isCritStatic(rob_[slot].dyn))
                critFirst_.push_back(slot);
        }
        order = &critFirst_;
    }

    unsigned issuedCount = 0;
    // Pools found busy this cycle: no unit frees up within a cycle.
    unsigned busyPools = 0;
    for (const std::uint32_t slot : *order) {
        if (issuedCount >= config_.issueWidth)
            break;
        RobEntry &entry = rob_[slot];
        const DynInst &d = trace_.insts[entry.dyn];
        const FuPool pool = poolOf(d.op);
        const unsigned poolBit = 1u << static_cast<unsigned>(pool);
        if (busyPools & poolBit)
            continue;
        FuSet &fus = fus_[static_cast<std::size_t>(pool)];

        std::uint32_t completeC;
        if (pool == FuPool::Mem) {
            // Acquire the port before touching the cache model.
            if (!fus.tryIssue(cycle_, cycle_ + 1)) {
                busyPools |= poolBit;
                continue;
            }
            if (d.isLoad()) {
                const auto res = memory_.load(d.memAddr, cycle_);
                completeC = static_cast<std::uint32_t>(
                    cycle_ + res.latency);
            } else {
                memory_.store(d.memAddr, cycle_);
                completeC = static_cast<std::uint32_t>(cycle_ + 1);
            }
        } else {
            completeC = static_cast<std::uint32_t>(
                cycle_ + isa::execLatency(d.op));
            const std::uint64_t hold =
                unpipelined(d.op) ? completeC : cycle_ + 1;
            if (!fus.tryIssue(cycle_, hold)) {
                busyPools |= poolBit;
                continue;
            }
        }

        entry.issued = true;
        entry.issueC = static_cast<std::uint32_t>(cycle_);
        entry.completeC = completeC;
        producers_[static_cast<std::size_t>(entry.dyn)].resultC =
            completeC;
        wake(entry.dyn);
        ++issuedCount;
    }

    if (issuedCount > 0) {
        eligible_.erase(std::remove_if(eligible_.begin(), eligible_.end(),
                                       [&](std::uint32_t slot) {
                                           return rob_[slot].issued;
                                       }),
                        eligible_.end());
    }
    return true;
}

bool
Pipeline::dispatch()
{
    // Decode/rename pipe -> ROB.
    unsigned dispatchBytes = 0;
    bool any = false;
    while (dispatchBytes < config_.frontendBytes && !decodePipe_.empty() &&
           robCount_ < config_.robSize) {
        const PipeEntry &pe = decodePipe_.front();
        if (pe.readyC > cycle_)
            break;
        dispatchBytes += trace_.insts[pe.dyn].sizeBytes;
        const auto slot = static_cast<std::uint32_t>(
            (robHead_ + robCount_) % config_.robSize);
        RobEntry &entry = rob_[slot];
        entry = RobEntry{};
        entry.dyn = pe.dyn;
        entry.fetchC = pe.fetchC;
        entry.fetchLead = pe.fetchLead;
        entry.popC = pe.popC;
        entry.dispatchC = static_cast<std::uint32_t>(cycle_);
        ++robCount_;
        decodePipe_.pop_front();
        resolveOperands(slot);
        any = true;
    }
    return any;
}

bool
Pipeline::decode()
{
    // Fetch queue -> decode/rename pipe.  The decoder consumes word
    // slots: one 32-bit instruction or a pair of 16-bit ones per slot,
    // so 16-bit code doubles the front-end instruction rate (the
    // paper's fetch-bandwidth argument for the Thumb format).
    unsigned decodeBytes = 0;
    bool any = false;
    while (decodeBytes < config_.frontendBytes && !fetchQ_.empty() &&
           decodePipe_.size() < decodePipeCap_) {
        const FqEntry fe = fetchQ_.front();
        fetchQ_.pop_front();
        any = true;
        decodeBytes += trace_.insts[fe.dyn].sizeBytes;
        if (trace_.insts[fe.dyn].op == OpClass::Cdp) {
            // The CDP is a decoder directive: it consumes its fetch and
            // decode bytes and adds one cycle of decode *latency* while
            // the format switch takes effect (the paper's conservative
            // +1 decode-stage delay), but never enters the ROB and does
            // not stall decode throughput.
            cdpLatencyUntil_ = cycle_ + 1;
            stats_.decodeCdpBubbles += config_.cdpExtraDecode;
            ++committed_; // retires here for bookkeeping
            continue;
        }
        const unsigned cdpPenalty =
            cycle_ <= cdpLatencyUntil_ ? config_.cdpExtraDecode : 0;
        decodePipe_.push_back(
            {fe.dyn, fe.fetchC, fe.fetchLead,
             static_cast<std::uint32_t>(cycle_),
             static_cast<std::uint32_t>(
                 cycle_ + config_.frontendLatency + cdpPenalty)});
    }
    return any;
}

FetchOutcome
Pipeline::fetch()
{
    FetchOutcome out;
    out.blocked = cycle_ < fetchBlockedUntil_;

    if (haltBranch_ >= 0) {
        const std::uint32_t resolved =
            producers_[static_cast<std::size_t>(haltBranch_)].resultC;
        if (resolved != Unknown) {
            // The mispredicted branch has resolved; charge the
            // redirect.
            fetchBlockedUntil_ = std::max<std::uint64_t>(
                fetchBlockedUntil_,
                static_cast<std::uint64_t>(resolved) +
                    config_.redirectPenalty);
            blockedOnIcache_ = false;
            haltBranch_ = -1;
            out.active = true;
        }
    }

    if (out.blocked || haltBranch_ >= 0 || fetchIdx_ >= n_)
        return out;

    std::uint64_t windowBase = 0;
    bool haveWindow = false;
    while (out.fetched < config_.fetchWidth &&
           fetchQ_.size() < config_.fetchQueueSize && fetchIdx_ < n_) {
        const DynInst &d = trace_.insts[fetchIdx_];
        if (!haveWindow) {
            windowBase = d.address &
                ~static_cast<std::uint64_t>(config_.fetchBytes - 1);
            const auto res = memory_.fetchInst(d.address, cycle_);
            ++stats_.fetchWindows;
            out.active = true;
            if (res.latency > memConfig_.icache.hitLatency) {
                // Miss (or in-flight fill): stall fetch until the line
                // arrives; hits are pipelined.
                fetchBlockedUntil_ =
                    cycle_ + res.latency - memConfig_.icache.hitLatency;
                blockedOnIcache_ = true;
                out.sawMiss = true;
                break;
            }
            haveWindow = true;
        }
        if (d.address < windowBase ||
            d.address + d.sizeBytes > windowBase + config_.fetchBytes) {
            break; // next fetch window, next cycle
        }

        fetchQ_.push_back(
            {fetchIdx_, static_cast<std::uint32_t>(cycle_), 0.0f});
        // A CDP shares its 32-bit word with the first 16-bit
        // instruction (Fig. 9), so it does not consume a fetch slot of
        // its own — only its bytes.
        if (d.op != OpClass::Cdp)
            ++out.fetched;
        out.delivered = true;
        stats_.fetchedBytes += d.sizeBytes;

        // Mechanism hooks at fetch.
        if (config_.criticalLoadPrefetch && d.isLoad() &&
            isCritStatic(fetchIdx_)) {
            memory_.prefetchData(d.memAddr, cycle_);
        }
        if (config_.efetch && d.op == OpClass::Call) {
            const mem::Addr predicted =
                efetch_.predictAndTrain(d.address, d.branchTarget);
            if (predicted != 0) {
                for (unsigned k = 0; k < 4; ++k)
                    memory_.prefetchInst(predicted + 64ull * k, cycle_);
            }
        }

        const DynIdx thisIdx = fetchIdx_;
        ++fetchIdx_;

        if (d.isControl()) {
            if (d.isCond()) {
                ++stats_.condBranches;
                if (!bpu_.predictAndTrain(d.address, d.taken())) {
                    ++stats_.mispredicts;
                    haltBranch_ = thisIdx;
                    break;
                }
            }
            if (d.taken())
                break; // taken transfer ends the fetch group
        }
    }
    return out;
}

void
Pipeline::charge(Stall stall, std::uint64_t cycles)
{
    // pendingSupplyStall_ only ever holds whole numbers, so adding a
    // run of cycles at once is exact.
    switch (stall) {
      case Stall::None:
        return;
      case Stall::Icache:
        stats_.stallForIIcache += cycles;
        pendingSupplyStall_ += static_cast<double>(cycles);
        return;
      case Stall::Redirect:
        stats_.stallForIRedirect += cycles;
        pendingSupplyStall_ += static_cast<double>(cycles);
        return;
      case Stall::Rd:
        stats_.stallForRd += cycles;
        return;
    }
}

Stall
Pipeline::attributeStalls(const FetchOutcome &f)
{
    Stall stall = Stall::None;
    if (!f.delivered && fetchIdx_ < n_) {
        if (f.blocked || f.sawMiss)
            stall = blockedOnIcache_ ? Stall::Icache : Stall::Redirect;
        else if (haltBranch_ >= 0)
            stall = Stall::Redirect;
        else if (fetchQ_.size() >= config_.fetchQueueSize)
            stall = Stall::Rd;
        charge(stall, 1);
    } else if (f.delivered && pendingSupplyStall_ > 0.0) {
        // Attribute accumulated supply-stall cycles to the freshly
        // fetched group: this is the inherited "fetch stage" time of
        // these instructions in the Fig. 3 sense.
        const unsigned delivered = std::max(f.fetched, 1u);
        const float lead = static_cast<float>(
            pendingSupplyStall_ / static_cast<double>(delivered));
        for (std::size_t k = fetchQ_.size() - delivered;
             k < fetchQ_.size(); ++k) {
            fetchQ_[k].fetchLead = lead;
        }
        pendingSupplyStall_ = 0.0;
    }
    if (!f.blocked && cycle_ >= fetchBlockedUntil_ && haltBranch_ < 0)
        blockedOnIcache_ = false;
    return stall;
}

void
Pipeline::observe()
{
    // Both are driven by commits, so they fall only on active cycles.
    auto sampleNow = [&](std::uint64_t cyclesSoFar) {
        stats_.cycles = cyclesSoFar;
        stats_.committed = committed_;
        stats_.mem = memory_.stats();
        stats_.efetchAccuracy = efetch_.accuracy();
        config_.intervals->sample(reg_, committed_);
    };
    if (!warmupDone_ && committed_ >= config_.warmupCommits) {
        warmupDone_ = true;
        warmupSnapshot_ = stats_;
        warmupSnapshot_.cycles = cycle_ + 1;
        warmupSnapshot_.committed = committed_;
        warmupSnapshot_.mem = memory_.stats();
        // Force a row at the warmup boundary so the post-warmup window
        // can be recovered from the series alone.
        if (sampling_)
            sampleNow(cycle_ + 1);
    }
    if (sampling_ && committed_ >= nextSample_) {
        sampleNow(cycle_ + 1);
        while (nextSample_ <= committed_)
            nextSample_ += config_.statsInterval;
    }
}

/**
 * The earliest cycle after this one at which some stage can act, or
 * NoEvent.  In a cycle where nothing happened, only these clock
 * comparisons can change an outcome: the ROB head's completion, an
 * entry's ready cycle, the decode pipe head's latency and the end of a
 * fetch block.  (Functional units matter only with something eligible,
 * and such a cycle is never skipped.)
 */
std::uint64_t
Pipeline::nextEvent() const
{
    std::uint64_t next = overflowMin_;
    if (robCount_ > 0 && rob_[robHead_].issued)
        next = std::min<std::uint64_t>(next, rob_[robHead_].completeC);
    if (!decodePipe_.empty() && robCount_ < config_.robSize)
        next = std::min<std::uint64_t>(next, decodePipe_.front().readyC);
    if (cycle_ < fetchBlockedUntil_)
        next = std::min(next, fetchBlockedUntil_);
    if (wheelCount_ > 0) {
        const std::uint64_t last = std::min(next, cycle_ + kWheelSize);
        for (std::uint64_t c = cycle_ + 1; c < last; ++c) {
            if (wheel_[c & (kWheelSize - 1)] != NoSlot)
                return c;
        }
    }
    return next;
}

void
Pipeline::skipIdle(Stall stall)
{
    // Cycles until the next event repeat this one exactly, including
    // its stall charge; jump over them.
    const std::uint64_t next = nextEvent();
    critics_assert(next != NoEvent, "pipeline deadlock at cycle ", cycle_,
                   " committed ", committed_, "/", n_);
    charge(stall, next - cycle_ - 1);
    cycle_ = next;
}

} // namespace detail

CpuStats
runTrace(const Trace &trace, const CpuConfig &config,
         const mem::MemConfig &memConfig, bpu::BranchPredictor &bpu,
         const std::vector<std::uint8_t> *critMask,
         const std::unordered_set<program::InstUid> *criticalSet)
{
    critics_assert(!trace.insts.empty(), "empty trace");
    critics_assert(critMask == nullptr ||
                       critMask->size() == trace.size(),
                   "crit mask size mismatch");

    detail::Pipeline pipeline(trace, config, memConfig, bpu, critMask,
                              criticalSet);
    return pipeline.run();
}

} // namespace critics::cpu
