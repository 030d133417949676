/**
 * @file
 * CritIC mining: the offline aggregation stage of the paper's profiler
 * (implemented there with Spark PairRDD; here with an in-process hash
 * aggregation).  Dynamic ICs are cut into same-basic-block segments
 * (the scope the ART pass can hoist within), keyed by their static
 * instruction-uid signature, and aggregated into unique chains with
 * dynamic counts, average fanout and 16-bit representability.  A
 * selection step picks the top chains by coverage under the realistic
 * constraints (length <= 5, directly Thumb-convertible, non-overlapping)
 * or the CritIC.Ideal relaxation.
 */

#ifndef CRITICS_ANALYSIS_MINER_HH
#define CRITICS_ANALYSIS_MINER_HH

#include <vector>

#include "analysis/criticality.hh"
#include "program/program.hh"
#include "support/histogram.hh"

namespace critics::analysis
{

/** One unique mined chain (aggregated over its dynamic executions). */
struct MinedChain
{
    std::vector<program::InstUid> uids; ///< in block order
    std::uint64_t dynCount = 0;         ///< executions observed
    double avgFanout = 0.0;             ///< per instruction, dynamic avg
    /** Dynamic-average fanout of each member (for sub-path selection). */
    std::vector<double> memberFanout;
    /** Per-member 16-bit representability (for sub-path selection: a
     *  maxLen window is convertible iff its own members are, even when
     *  the full chain is not). */
    std::vector<std::uint8_t> memberConvertible;
    bool directlyConvertible = false;   ///< all members 16-bit as-is

    std::uint64_t
    coverage() const
    {
        return dynCount * uids.size();
    }
};

struct MineResult
{
    /** Unique CritICs sorted by descending coverage. */
    std::vector<MinedChain> chains;
    std::uint64_t dynInsts = 0;    ///< profiled stream length
    std::uint64_t segmentsSeen = 0;
};

/**
 * Per-uid packed location and Thumb convertibility, built in one
 * program walk.  The mining loop's same-block test runs once per
 * dynamic instruction, so the packed word makes it one load and a
 * compare; the answers are identical for every profile fraction mined
 * from the same program — so AppExperiment builds one of these and
 * shares it across minedAt() calls.
 */
class LocTable
{
  public:
    /** Packed location: func(24) | block(20) | index(20).  The segment
     *  cutter's same-block test (`same func+block, strictly increasing
     *  index`) becomes one 8-byte load: equal high 44 bits plus an
     *  index comparison on the low 20. */
    static constexpr unsigned kIndexBits = 20;
    static constexpr unsigned kBlockBits = 20;
    static constexpr std::uint64_t kIndexMask =
        (1ull << kIndexBits) - 1;

    explicit LocTable(const program::Program &prog);

    std::uint64_t
    packed(program::InstUid uid) const
    {
        return packed_[uid];
    }

    bool
    convertible(program::InstUid uid) const
    {
        return convertible_[uid] != 0;
    }

  private:
    std::vector<std::uint64_t> packed_;
    std::vector<std::uint8_t> convertible_;
};

/**
 * Mine unique CritICs from the extracted dynamic chains.
 *
 * @param profileFraction profile only the first fraction of the trace
 *        (Fig. 12b sensitivity); chains whose head lies beyond the
 *        cutoff are ignored.
 * @param locs optional shared location cache for `prog`; the miner
 *        builds a private one when absent.
 */
MineResult mineCritIcs(const program::Trace &trace,
                       const program::Program &prog,
                       const DynChains &chains, const FanoutInfo &fanout,
                       const CriticalityConfig &config,
                       double profileFraction = 1.0,
                       const LocTable *locs = nullptr);

/** Selection constraints. */
struct SelectOptions
{
    unsigned maxLen = 5;      ///< keep chains up to this length...
    unsigned exactLen = 0;    ///< ...or exactly this length (if != 0)
    bool requireConvertible = true;
    /** CritIC.Ideal: no length cap, conversion assumed always possible. */
    bool ideal = false;
    /** Keep at most this many unique chains (profile size bound). */
    std::size_t maxChains = 1u << 20;
};

struct Selection
{
    std::vector<std::vector<program::InstUid>> chains;
    /** Expected dynamic coverage of the selection (instructions in
     *  selected chains / profiled instructions). */
    double expectedCoverage = 0.0;
};

Selection selectCritIcs(const MineResult &mined,
                        const SelectOptions &options);

/** Fig. 5b: CDF of dynamic coverage vs unique-chain count, for all
 *  mined CritICs and for the directly-convertible subset. */
struct CoverageCdf
{
    std::vector<CdfPoint> all;
    std::vector<CdfPoint> convertible;
    double convertibleChainFraction = 0.0; ///< ~95.5% in the paper
};

CoverageCdf coverageCdf(const MineResult &mined);

} // namespace critics::analysis

#endif // CRITICS_ANALYSIS_MINER_HH
