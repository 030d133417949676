#include "analysis/miner.hh"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "support/logging.hh"
#include "support/rng.hh"

namespace critics::analysis
{

using program::DynIdx;
using program::InstUid;
using program::Trace;

namespace
{

bool
directlyConvertible(const isa::OperandInfo &info)
{
    return isa::thumbDirectlyConvertible(info);
}

/** Seed of the uid-sequence hash SegmentTable probes with. */
constexpr std::uint64_t kUidSeqSeed = 0x9E3779B97F4A7C15ULL;

/**
 * The interned uid-sequence table of the miner (DESIGN.md §10).
 * Every unique segment lives once in a shared arena; the open-addressed
 * slot array maps a precomputed hash to an entry holding the arena
 * span and its aggregates, and `memberFanoutSums` parallels the arena
 * so per-member sums need no per-entry vector.  Aggregating a segment
 * allocates nothing once the table is warm.
 */
class SegmentTable
{
  public:
    struct Entry
    {
        std::uint64_t hash = 0;
        std::uint32_t off = 0; ///< arena offset of the uid sequence
        std::uint32_t len = 0;
        std::uint64_t dynCount = 0;
        std::uint64_t fanoutSum = 0;
    };

    SegmentTable() { slots_.assign(kInitialSlots, -1); }

    /** Find-or-insert the uid sequence; returns the entry index. */
    std::size_t
    intern(const InstUid *uids, std::uint32_t len, std::uint64_t hash)
    {
        std::size_t mask = slots_.size() - 1;
        std::size_t j = static_cast<std::size_t>(hash) & mask;
        while (slots_[j] >= 0) {
            const Entry &e = entries_[static_cast<std::size_t>(slots_[j])];
            if (e.hash == hash && e.len == len &&
                std::equal(uids, uids + len, arena_.begin() + e.off)) {
                return static_cast<std::size_t>(slots_[j]);
            }
            j = (j + 1) & mask;
        }
        Entry e;
        e.hash = hash;
        e.off = static_cast<std::uint32_t>(arena_.size());
        e.len = len;
        arena_.insert(arena_.end(), uids, uids + len);
        memberFanoutSums_.resize(arena_.size(), 0);
        entries_.push_back(e);
        slots_[j] = static_cast<std::int32_t>(entries_.size() - 1);
        if (entries_.size() * 10 >= slots_.size() * 7)
            grow();
        return entries_.size() - 1;
    }

    Entry &entry(std::size_t i) { return entries_[i]; }
    const std::vector<Entry> &entries() const { return entries_; }
    const InstUid *uids(const Entry &e) const { return arena_.data() + e.off; }

    void
    addMemberFanout(const Entry &e, std::uint32_t member,
                    std::uint64_t fanout)
    {
        memberFanoutSums_[e.off + member] += fanout;
    }

    std::uint64_t
    memberFanoutSum(const Entry &e, std::uint32_t member) const
    {
        return memberFanoutSums_[e.off + member];
    }

  private:
    static constexpr std::size_t kInitialSlots = 1024; ///< power of two

    void
    grow()
    {
        std::vector<std::int32_t> next(slots_.size() * 2, -1);
        const std::size_t mask = next.size() - 1;
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            std::size_t j =
                static_cast<std::size_t>(entries_[i].hash) & mask;
            while (next[j] >= 0)
                j = (j + 1) & mask;
            next[j] = static_cast<std::int32_t>(i);
        }
        slots_ = std::move(next);
    }

    std::vector<InstUid> arena_;
    std::vector<std::uint64_t> memberFanoutSums_; ///< parallels arena_
    std::vector<Entry> entries_;
    std::vector<std::int32_t> slots_; ///< -1 = empty
};

/** Descending coverage, uid-lexicographic tie-break: a total order on
 *  unique chains, so the output sequence does not depend on the order
 *  the aggregation table holds them in. */
void
sortChains(std::vector<MinedChain> &chains)
{
    std::sort(chains.begin(), chains.end(),
              [](const MinedChain &a, const MinedChain &b) {
                  if (a.coverage() != b.coverage())
                      return a.coverage() > b.coverage();
                  return a.uids < b.uids;
              });
}

} // namespace

LocTable::LocTable(const program::Program &prog)
{
    InstUid maxUid = 0;
    bool any = false;
    for (const auto &fn : prog.funcs) {
        for (const auto &bb : fn.blocks) {
            for (const auto &si : bb.insts) {
                maxUid = std::max(maxUid, si.uid);
                any = true;
            }
        }
    }
    packed_.assign(any ? maxUid + 1 : 0, 0);
    convertible_.assign(packed_.size(), 0);
    critics_assert(prog.funcs.size() < (1u << 24),
                   "LocTable: function count overflows packed location");
    for (std::uint32_t fi = 0; fi < prog.funcs.size(); ++fi) {
        const auto &fn = prog.funcs[fi];
        critics_assert(fn.blocks.size() < (1u << kBlockBits),
                       "LocTable: block count overflows packed location");
        for (std::uint32_t bi = 0; bi < fn.blocks.size(); ++bi) {
            const auto &bb = fn.blocks[bi];
            critics_assert(bb.insts.size() < (1u << kIndexBits),
                           "LocTable: block length overflows packed "
                           "location");
            for (std::uint32_t ii = 0; ii < bb.insts.size(); ++ii) {
                const auto &si = bb.insts[ii];
                packed_[si.uid] =
                    (static_cast<std::uint64_t>(fi)
                     << (kBlockBits + kIndexBits)) |
                    (static_cast<std::uint64_t>(bi) << kIndexBits) | ii;
                convertible_[si.uid] =
                    directlyConvertible(si.arch) ? 1 : 0;
            }
        }
    }
}

/**
 * The miner (DESIGN.md §10).  Each dynamic chain is cut into same-block
 * segments with strictly increasing intra-block position (a
 * loop-carried chain revisits the same statics every iteration; each
 * visit is its own segment), and each segment's low-fanout ends are
 * trimmed before it is aggregated by uid signature.  The loop costs
 *
 *  - one packed LocTable word per dynamic instruction for the
 *    same-block test,
 *  - O(len) per segment for the trim, through prefix sums over the
 *    segment's fanout, and
 *  - no allocation per segment once the SegmentTable is warm.
 */
MineResult
mineCritIcs(const Trace &trace, const program::Program &prog,
            const DynChains &chains, const FanoutInfo &fanout,
            const CriticalityConfig &config, double profileFraction,
            const LocTable *locs)
{
    std::optional<LocTable> ownLocs;
    if (locs == nullptr) {
        ownLocs.emplace(prog);
        locs = &*ownLocs;
    }

    MineResult result;
    result.dynInsts = trace.size();
    const auto cutoff = static_cast<DynIdx>(
        static_cast<double>(trace.size()) *
        std::clamp(profileFraction, 0.0, 1.0));

    SegmentTable table;
    std::vector<InstUid> segment;
    std::vector<DynIdx> segmentDyn;
    std::vector<std::uint64_t> prefix; ///< fanout prefix sums, len+1

    for (const DynChains::ChainRef chain : chains) {
        // A single member can never form a >= 2-length segment, and
        // most chains are singletons: skip them before any location
        // lookups.
        if (chain.size() < 2 || chain.front() >= cutoff)
            continue;

        segment.clear();
        segmentDyn.clear();
        std::uint64_t curKey = ~0ull; // matches no packed location
        std::uint64_t lastIndex = 0;

        auto flush = [&]() {
            // Any sub-path of an IC is an IC: trim low-fanout ends so
            // the qualifying critical core is what gets aggregated
            // (greedy chain extension appends low-fanout tails).
            std::size_t lo = 0, hi = segment.size();
            if (hi > 2) {
                prefix.resize(hi + 1);
                prefix[0] = 0;
                for (std::size_t k = 0; k < hi; ++k)
                    prefix[k + 1] =
                        prefix[k] + fanout.fanout[segmentDyn[k]];
                // The prefix difference is the exact uint64 sum of the
                // window, so the average is the same double a
                // re-summing loop would compute.
                while (hi - lo > 2) {
                    const double avg =
                        static_cast<double>(prefix[hi] - prefix[lo]) /
                        static_cast<double>(hi - lo);
                    if (!(avg < config.chainCritThreshold))
                        break;
                    if (fanout.fanout[segmentDyn[lo]] <=
                        fanout.fanout[segmentDyn[hi - 1]]) {
                        ++lo;
                    } else {
                        --hi;
                    }
                }
            }
            if (hi - lo >= 2) {
                ++result.segmentsSeen;
                const auto len = static_cast<std::uint32_t>(hi - lo);
                std::uint64_t hash = kUidSeqSeed;
                for (std::size_t k = lo; k < hi; ++k)
                    hash = hashCombine(hash, segment[k]);
                const std::size_t idx =
                    table.intern(segment.data() + lo, len, hash);
                SegmentTable::Entry &e = table.entry(idx);
                ++e.dynCount;
                for (std::size_t k = lo; k < hi; ++k) {
                    const std::uint64_t f = fanout.fanout[segmentDyn[k]];
                    e.fanoutSum += f;
                    table.addMemberFanout(
                        e, static_cast<std::uint32_t>(k - lo), f);
                }
            }
            segment.clear();
            segmentDyn.clear();
        };

        for (const DynIdx dyn : chain) {
            const InstUid uid = trace.insts[dyn].staticUid;
            const std::uint64_t packed = locs->packed(uid);
            const bool sameBlock =
                (packed >> LocTable::kIndexBits) ==
                    (curKey >> LocTable::kIndexBits) &&
                (packed & LocTable::kIndexMask) > lastIndex;
            if (!sameBlock)
                flush();
            segment.push_back(uid);
            segmentDyn.push_back(dyn);
            curKey = packed;
            lastIndex = packed & LocTable::kIndexMask;
        }
        flush();
    }

    for (const SegmentTable::Entry &e : table.entries()) {
        const double avgFanout =
            static_cast<double>(e.fanoutSum) /
            static_cast<double>(e.dynCount * e.len);
        if (avgFanout < config.chainCritThreshold)
            continue;
        const InstUid *uids = table.uids(e);
        MinedChain chain;
        chain.uids.assign(uids, uids + e.len);
        chain.dynCount = e.dynCount;
        chain.avgFanout = avgFanout;
        chain.memberFanout.reserve(e.len);
        for (std::uint32_t k = 0; k < e.len; ++k) {
            chain.memberFanout.push_back(
                static_cast<double>(table.memberFanoutSum(e, k)) /
                static_cast<double>(e.dynCount));
        }
        chain.memberConvertible.reserve(e.len);
        bool allConvertible = true;
        for (std::uint32_t k = 0; k < e.len; ++k) {
            const bool conv = locs->convertible(uids[k]);
            chain.memberConvertible.push_back(conv ? 1 : 0);
            allConvertible = allConvertible && conv;
        }
        chain.directlyConvertible = allConvertible;
        result.chains.push_back(std::move(chain));
    }
    sortChains(result.chains);
    return result;
}


Selection
selectCritIcs(const MineResult &mined, const SelectOptions &options)
{
    Selection selection;
    std::unordered_set<InstUid> used;
    std::uint64_t covered = 0;

    // The convertibility constraint applies to what gets selected: when
    // a maxLen window is cut out of a longer chain, test the window's
    // members, not the whole chain (whose ends the window excludes).
    // Hand-built MineResults without per-member bits keep the
    // whole-chain answer.
    auto windowConvertible = [](const MinedChain &chain, std::size_t lo,
                                std::size_t len) {
        if (chain.memberConvertible.size() != chain.uids.size())
            return chain.directlyConvertible;
        for (std::size_t k = 0; k < len; ++k) {
            if (!chain.memberConvertible[lo + k])
                return false;
        }
        return true;
    };

    for (const MinedChain &chain : mined.chains) {
        if (selection.chains.size() >= options.maxChains)
            break;
        std::size_t lo = 0;
        std::size_t len = chain.uids.size();
        if (!options.ideal) {
            if (options.exactLen != 0) {
                if (len != options.exactLen)
                    continue;
            } else if (len > options.maxLen) {
                // Any sub-path of an IC is an IC: keep the
                // highest-average-fanout window of the allowed length.
                double best = -1.0;
                for (std::size_t s = 0;
                     s + options.maxLen <= len; ++s) {
                    double sum = 0.0;
                    for (std::size_t k = 0; k < options.maxLen; ++k)
                        sum += chain.memberFanout[s + k];
                    if (sum > best) {
                        best = sum;
                        lo = s;
                    }
                }
                len = options.maxLen;
            }
            if (options.requireConvertible &&
                !windowConvertible(chain, lo, len)) {
                continue;
            }
        }
        const auto first = chain.uids.begin() +
            static_cast<std::ptrdiff_t>(lo);
        const std::vector<InstUid> uids(
            first, first + static_cast<std::ptrdiff_t>(len));
        bool overlaps = false;
        for (const InstUid uid : uids) {
            if (used.count(uid)) {
                overlaps = true;
                break;
            }
        }
        if (overlaps)
            continue;
        for (const InstUid uid : uids)
            used.insert(uid);
        covered += chain.dynCount * uids.size();
        selection.chains.push_back(uids);
    }
    selection.expectedCoverage = mined.dynInsts
        ? static_cast<double>(covered) /
          static_cast<double>(mined.dynInsts) : 0.0;
    return selection;
}

CoverageCdf
coverageCdf(const MineResult &mined)
{
    CoverageCdf cdf;
    if (mined.chains.empty() || mined.dynInsts == 0)
        return cdf;

    const double total = static_cast<double>(mined.dynInsts);
    double accAll = 0.0, accConv = 0.0;
    std::size_t rankAll = 0, rankConv = 0, convChains = 0;
    for (const MinedChain &chain : mined.chains) {
        accAll += static_cast<double>(chain.coverage());
        cdf.all.push_back({static_cast<double>(++rankAll),
                           accAll / total});
        if (chain.directlyConvertible) {
            ++convChains;
            accConv += static_cast<double>(chain.coverage());
            cdf.convertible.push_back(
                {static_cast<double>(++rankConv), accConv / total});
        }
    }
    cdf.convertibleChainFraction =
        static_cast<double>(convChains) /
        static_cast<double>(mined.chains.size());

    // Decimate to keep the series printable.  The first and last
    // points are pinned exactly: 63.0 * stride can truncate to
    // size - 2 under floating-point rounding, which used to end the
    // reported Fig. 5b curve below its true terminal coverage.
    auto decimate = [](std::vector<CdfPoint> &points) {
        if (points.size() <= 64)
            return;
        std::vector<CdfPoint> keep;
        const double stride =
            static_cast<double>(points.size() - 1) / 63.0;
        for (unsigned i = 0; i < 64; ++i) {
            std::size_t idx = static_cast<std::size_t>(
                static_cast<double>(i) * stride);
            if (i == 63 || idx >= points.size())
                idx = points.size() - 1;
            keep.push_back(points[idx]);
        }
        points = std::move(keep);
    };
    decimate(cdf.all);
    decimate(cdf.convertible);
    return cdf;
}

} // namespace critics::analysis
