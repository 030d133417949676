/**
 * @file
 * Criticality analysis (the offline profiler of Sec. III-A):
 *
 *  - fanout computation per dynamic instruction (direct register
 *    consumers entering a ROB-sized window), and the classic
 *    "critical iff fanout >= threshold" marking;
 *  - IC extraction: partition of the dynamic DFG into self-contained
 *    chains (every non-head member's only in-window producer is its
 *    predecessor), extended greedily toward the highest-fanout
 *    successor — the "look into the future" of Sec. III-A;
 *  - chain statistics for Figs. 1b and 5a;
 *  - per-static-uid criticality aggregation (the PC-indexed predictor
 *    table the single-instruction baselines use).
 */

#ifndef CRITICS_ANALYSIS_CRITICALITY_HH
#define CRITICS_ANALYSIS_CRITICALITY_HH

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "program/trace.hh"
#include "support/histogram.hh"

namespace critics::analysis
{

struct CriticalityConfig
{
    unsigned window = 128;        ///< ROB-sized dependence window
    unsigned fanoutThreshold = 8; ///< critical iff fanout >= this
    double chainCritThreshold = 8.0; ///< avg fanout/instr for a CritIC
    unsigned maxChainLen = 5;     ///< realistic CritIC length cap
};

/** Per-dynamic-instruction fanout and criticality flags. */
struct FanoutInfo
{
    std::vector<std::uint16_t> fanout;
    std::vector<std::uint8_t> critMask;
    std::uint64_t critCount = 0;

    double
    critFraction() const
    {
        return critMask.empty() ? 0.0
            : static_cast<double>(critCount) /
              static_cast<double>(critMask.size());
    }
};

FanoutInfo computeFanout(const program::Trace &trace,
                         const CriticalityConfig &config);

/**
 * Dynamic instruction chains (ICs), stored flat: all member indices
 * concatenated in `members` with `offsets` fenceposts (size()+1), so a
 * 400k-instruction trace costs two allocations instead of one heap
 * vector per chain (most chains are singletons).  Each chain is a
 * strictly increasing dyn-index list.
 */
struct DynChains
{
    std::vector<program::DynIdx> members;
    std::vector<std::uint32_t> offsets; ///< size()+1 fenceposts

    /** Non-owning view of one chain. */
    struct ChainRef
    {
        const program::DynIdx *data = nullptr;
        std::uint32_t len = 0;

        const program::DynIdx *begin() const { return data; }
        const program::DynIdx *end() const { return data + len; }
        std::size_t size() const { return len; }
        bool empty() const { return len == 0; }
        program::DynIdx operator[](std::size_t k) const { return data[k]; }
        program::DynIdx front() const { return data[0]; }
        program::DynIdx back() const { return data[len - 1]; }
    };

    std::size_t
    size() const
    {
        return offsets.empty() ? 0 : offsets.size() - 1;
    }

    ChainRef
    operator[](std::size_t i) const
    {
        return {members.data() + offsets[i], offsets[i + 1] - offsets[i]};
    }

    /** Iterate chains by value (ChainRef is two words). */
    struct Iterator
    {
        const DynChains *owner;
        std::size_t i;

        ChainRef operator*() const { return (*owner)[i]; }
        Iterator &operator++() { ++i; return *this; }
        bool operator!=(const Iterator &o) const { return i != o.i; }
    };

    Iterator begin() const { return {this, 0}; }
    Iterator end() const { return {this, size()}; }
};

/**
 * Partition the stream into ICs.  Every instruction belongs to exactly
 * one chain; isolated instructions form singleton chains.
 */
DynChains extractChains(const program::Trace &trace,
                        const FanoutInfo &fanout,
                        const CriticalityConfig &config);

/** Aggregate chain geometry & criticality-structure statistics. */
struct ChainStats
{
    Histogram icLength; ///< Fig. 5a: members per multi-member IC
    Histogram icSpread; ///< Fig. 5a: dyn-stream span of multi-member ICs
    /** Fig. 1b: low-fanout instructions between successive high-fanout
     *  members of a chain (buckets 0..5; 6 = ">5"). */
    Histogram critGap;
    /** Fig. 1b: fraction of critical instructions with no dependent
     *  critical instruction in their chain. */
    double noDependentCritFrac = 0.0;
    std::uint64_t multiMemberChains = 0;
};

ChainStats chainStatistics(const DynChains &chains,
                           const FanoutInfo &fanout);

/**
 * The PC-indexed criticality table used by the single-instruction
 * baselines: static uids whose dynamic instances are critical at least
 * `bias` of the time.
 */
std::unordered_set<program::InstUid>
buildCriticalSet(const program::Trace &trace, const FanoutInfo &fanout,
                 double bias = 0.5);

} // namespace critics::analysis

#endif // CRITICS_ANALYSIS_CRITICALITY_HH
