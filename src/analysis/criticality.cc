#include "analysis/criticality.hh"

#include <algorithm>
#include <unordered_map>

namespace critics::analysis
{

using program::DynIdx;
using program::NoDep;
using program::Trace;

FanoutInfo
computeFanout(const Trace &trace, const CriticalityConfig &config)
{
    FanoutInfo info;
    const std::size_t n = trace.size();
    info.fanout.assign(n, 0);
    info.critMask.assign(n, 0);

    const auto window = static_cast<DynIdx>(config.window);
    for (std::size_t i = 0; i < n; ++i) {
        const auto &d = trace.insts[i];
        const auto idx = static_cast<DynIdx>(i);
        // dep0 == dep1 counts once (emit never duplicates, but guard);
        // counting the duplicate directly keeps the 0xFFFF saturation
        // exact — the old increment-both-then-decrement scheme left
        // 0xFFFE behind once the counter hit the cap.
        if (d.dep0 != NoDep && idx - d.dep0 <= window &&
            info.fanout[d.dep0] < 0xFFFF) {
            ++info.fanout[d.dep0];
        }
        if (d.dep1 != NoDep && d.dep1 != d.dep0 &&
            idx - d.dep1 <= window && info.fanout[d.dep1] < 0xFFFF) {
            ++info.fanout[d.dep1];
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (info.fanout[i] >= config.fanoutThreshold) {
            info.critMask[i] = 1;
            ++info.critCount;
        }
    }
    return info;
}

namespace
{

/** The consumer index of chain extraction: only extraction-eligible
 *  consumers (exactly one in-window producer, the self-containment
 *  rule) are stored, and since each has one producer the edges form a
 *  forest — a head/next intrusive list per producer instead of a
 *  counted CSR.  One trace sweep builds it: no counting pass, no
 *  prefix sum, and no saturation special case (fanout's 0xFFFF cap
 *  never matters because nothing is counted).  The sweep runs
 *  backwards with prepend insertion, so each list comes out in
 *  ascending consumer-index order — the order greedy ties resolve in
 *  — without needing a tail array. */
struct EligibleForest
{
    std::vector<DynIdx> head; ///< first eligible consumer, or NoDep
    std::vector<DynIdx> next; ///< per consumer: next sibling, or NoDep
};

EligibleForest
buildEligibleForest(const Trace &trace, unsigned window)
{
    const std::size_t n = trace.size();
    const auto win = static_cast<DynIdx>(window);
    EligibleForest f;
    f.head.assign(n, NoDep);
    f.next.resize(n);
    for (std::size_t i = n; i-- > 0;) {
        const auto &d = trace.insts[i];
        const auto idx = static_cast<DynIdx>(i);
        const bool has0 = d.dep0 != NoDep && idx - d.dep0 <= win;
        const bool has1 = d.dep1 != NoDep && d.dep1 != d.dep0 &&
            idx - d.dep1 <= win;
        if (has0 != has1) { // exactly one in-window producer: eligible
            const DynIdx p = has0 ? d.dep0 : d.dep1;
            f.next[idx] = f.head[p];
            f.head[p] = idx;
        }
    }
    return f;
}

} // namespace

/**
 * Greedy extension with one step of lookahead (DESIGN.md §10): among
 * untaken consumers whose *only* in-window producer is the chain's
 * tail, pick the one with the best own-fanout plus downstream-fanout
 * potential — the "look into the future" of Sec. III-A, which prefers
 * a low-fanout link leading to a high-fanout instruction over a
 * dead-end leaf.  The self-containment test is baked into the
 * eligible-only forest storage and the lookahead is memoized per
 * candidate with a witness.
 */
DynChains
extractChains(const Trace &trace, const FanoutInfo &fanout,
              const CriticalityConfig &config)
{
    const std::size_t n = trace.size();
    const EligibleForest forest =
        buildEligibleForest(trace, config.window);
    std::vector<std::uint8_t> taken(n, 0);

    /** Memoized lookahead: value + the witness that achieved it.
     *  wit == kNoMemo marks a never-computed entry; wit == NoDep a
     *  computed entry whose candidate set was empty.  The cached value
     *  is a max over a shrinking set (instructions only get taken), so
     *  it stays exact while the witness is untaken; only a taken
     *  witness forces a re-walk. */
    struct Look
    {
        std::uint32_t val;
        DynIdx wit;
    };
    constexpr DynIdx kNoMemo = -2;
    std::vector<Look> look(n, Look{0, kNoMemo});

    auto lookahead = [&](DynIdx cand) {
        Look &memo = look[cand];
        if (memo.wit != kNoMemo &&
            (memo.wit == NoDep || !taken[memo.wit])) {
            return memo.val;
        }
        std::uint32_t best = 0;
        DynIdx witness = NoDep;
        for (DynIdx nxt = forest.head[cand]; nxt != NoDep;
             nxt = forest.next[nxt]) {
            if (taken[nxt])
                continue;
            const std::uint32_t value = 1u + fanout.fanout[nxt];
            if (value > best) {
                best = value;
                witness = nxt;
            }
        }
        memo = {best, witness};
        return best;
    };

    DynChains result;
    result.members.reserve(n);
    result.offsets.reserve(n + 1);
    result.offsets.push_back(0);
    for (std::size_t start = 0; start < n; ++start) {
        if (taken[start])
            continue;
        DynIdx cur = static_cast<DynIdx>(start);
        result.members.push_back(cur);
        taken[start] = 1;

        while (true) {
            // With exactly one eligible consumer the greedy choice is
            // score-independent (the first eligible candidate always
            // seeds `best`), so the lookahead only runs on contested
            // steps.  A score is 2 x (1 + fanout + 0.5 x lookahead):
            // doubled, every term is an integer, and a strict `>`
            // leaves ties with the earliest consumer.
            DynIdx only = NoDep;
            bool contested = false;
            for (DynIdx cand = forest.head[cur]; cand != NoDep;
                 cand = forest.next[cand]) {
                if (taken[cand])
                    continue;
                if (only == NoDep) {
                    only = cand;
                } else {
                    contested = true;
                    break;
                }
            }
            if (only == NoDep)
                break;
            DynIdx best = only;
            if (contested) {
                best = NoDep;
                std::uint32_t bestScore = 0;
                for (DynIdx cand = forest.head[cur]; cand != NoDep;
                     cand = forest.next[cand]) {
                    if (taken[cand])
                        continue;
                    const std::uint32_t score =
                        2u * (1u + fanout.fanout[cand]) +
                        lookahead(cand);
                    if (best == NoDep || score > bestScore) {
                        best = cand;
                        bestScore = score;
                    }
                }
            }
            result.members.push_back(best);
            taken[best] = 1;
            cur = best;
        }
        result.offsets.push_back(
            static_cast<std::uint32_t>(result.members.size()));
    }
    return result;
}

ChainStats
chainStatistics(const DynChains &chains, const FanoutInfo &fanout)
{
    ChainStats stats;
    std::uint64_t critTotal = 0;
    std::uint64_t critWithoutSuccessor = 0;

    for (const DynChains::ChainRef chain : chains) {
        if (chain.size() >= 2) {
            ++stats.multiMemberChains;
            stats.icLength.add(static_cast<std::int64_t>(chain.size()));
            stats.icSpread.add(chain.back() - chain.front());
        }
        // Fig. 1b: gaps between successive critical members.
        std::int64_t lastCritPos = -1;
        for (std::size_t k = 0; k < chain.size(); ++k) {
            if (!fanout.critMask[chain[k]])
                continue;
            ++critTotal;
            if (lastCritPos >= 0) {
                const std::int64_t gap =
                    static_cast<std::int64_t>(k) - lastCritPos - 1;
                stats.critGap.add(std::min<std::int64_t>(gap, 6));
            }
            lastCritPos = static_cast<std::int64_t>(k);
        }
        if (lastCritPos >= 0)
            ++critWithoutSuccessor; // the last critical member has none
    }
    stats.noDependentCritFrac = critTotal
        ? static_cast<double>(critWithoutSuccessor) /
          static_cast<double>(critTotal) : 0.0;
    return stats;
}

std::unordered_set<program::InstUid>
buildCriticalSet(const Trace &trace, const FanoutInfo &fanout, double bias)
{
    std::unordered_map<program::InstUid, std::pair<std::uint32_t,
                                                   std::uint32_t>> counts;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        auto &entry = counts[trace.insts[i].staticUid];
        ++entry.second;
        if (fanout.critMask[i])
            ++entry.first;
    }
    std::unordered_set<program::InstUid> set;
    for (const auto &[uid, cnt] : counts) {
        if (cnt.second > 0 &&
            static_cast<double>(cnt.first) /
                static_cast<double>(cnt.second) >= bias) {
            set.insert(uid);
        }
    }
    return set;
}

} // namespace critics::analysis
