/**
 * @file
 * Cycle-level 4-wide out-of-order superscalar CPU model (Table I):
 * Fetch / Decode / Rename / ROB / Issue / Execute / Commit, 128-entry
 * ROB, trace-driven.  Beyond IPC, the model attributes every front-end
 * stall cycle to the paper's two categories:
 *
 *   F.StallForI   — fetch delivered nothing because the instruction
 *                   supply stalled (i-cache miss or branch redirect);
 *   F.StallForR+D — fetch had instructions but the fetch queue was full
 *                   because the rest of the pipeline exerted
 *                   back-pressure (resource/dependence stalls).
 *
 * It also records per-instruction stage residencies so the Fig. 3
 * breakdowns can be reported for any instruction subset (e.g. the
 * high-fanout "critical" instructions).
 *
 * The model is cycle-exact but event-driven (DESIGN.md §7): each stage
 * is its own function, a producer's issue wakes the instructions
 * waiting on it, instructions with a known ready cycle wait in a
 * timing wheel, and cycles in which no stage can act are skipped in
 * one step, with their stall cycles charged in bulk.  A pipeline with
 * no future event is reported as deadlocked at once.
 *
 * Hooks for the evaluated mechanisms:
 *   - criticality set (profiled, PC-indexed) marks instructions for the
 *     ALU-prioritization and critical-load-prefetch baselines;
 *   - EFetch call-history instruction prefetching;
 *   - perfect branch prediction, 2x front end, enlarged i-cache are
 *     plain configuration changes.
 */

#ifndef CRITICS_CPU_CPU_HH
#define CRITICS_CPU_CPU_HH

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "bpu/bpu.hh"
#include "mem/hierarchy.hh"
#include "program/trace.hh"

namespace critics::stats
{
class IntervalSeries;
class StatRegistry;
class TraceEventWriter;
}

namespace critics::cpu
{

struct CpuConfig
{
    /** The front end is byte-limited (an 8-byte fetch/decode datapath,
     *  as in mobile cores' fetch units), while issue/commit are 4-wide:
     *  32-bit code streams at 2 instructions/cycle, 16-bit code at 4 —
     *  the paper's "the 16-bit format nearly doubles fetch bandwidth".
     *  fetchWidth only caps slots per window. */
    unsigned fetchWidth = 8;
    unsigned fetchBytes = 8;   ///< aligned fetch window per cycle
    unsigned frontendBytes = 8; ///< decode/rename bytes per cycle
    unsigned decodeWidth = 4;
    unsigned issueWidth = 4;
    unsigned commitWidth = 4;
    unsigned robSize = 128;
    unsigned fetchQueueSize = 32;
    unsigned frontendLatency = 2; ///< decode+rename cycles
    unsigned redirectPenalty = 5; ///< mispredict pipe refill
    unsigned cdpExtraDecode = 1;  ///< decoder format-switch latency

    unsigned intAluUnits = 2;
    unsigned mulDivUnits = 1;
    unsigned fpUnits = 1;
    unsigned memPorts = 2;

    // Mechanism toggles (Figs. 1/11).
    bool aluPrioritization = false;   ///< prioritize critical at issue
    bool backendPrio = false;         ///< ...including memory ports
    bool criticalLoadPrefetch = false;///< prefetch critical loads at fetch
    bool efetch = false;              ///< call-history i-prefetch

    /** Commits to run before statistics start (cold-start warmup, like
     *  sampling mid-execution in the paper's methodology). */
    std::uint64_t warmupCommits = 0;

    // Observability hooks.  These never influence simulated behaviour
    // and are never serialized into experiment cache keys.
    /** Sample every registered stat into `intervals` each time this
     *  many further instructions commit (0 = off).  The warmup
     *  boundary and the end of run are always sampled too. */
    std::uint64_t statsInterval = 0;
    stats::IntervalSeries *intervals = nullptr;
    /** Per-instruction stage-residency spans (Chrome trace events) for
     *  the first 4096 post-warmup committed instructions. */
    stats::TraceEventWriter *traceSink = nullptr;

    /** Apply the hypothetical 2xFD front end of Fig. 11. */
    void
    doubleFrontend()
    {
        fetchWidth *= 2;
        fetchBytes *= 2;
        frontendBytes *= 2;
        decodeWidth *= 2;
        fetchQueueSize *= 2;
    }
};

/** Accumulated per-stage residency (cycles summed over instructions). */
struct StageBreakdown
{
    double fetch = 0;      ///< fetch + fetch-queue residency
    double decode = 0;     ///< decode/rename pipe
    double issueWait = 0;  ///< ROB residency before issue
    double execute = 0;    ///< issue to completion
    double commitWait = 0; ///< completion to commit
    std::uint64_t insts = 0;

    double
    total() const
    {
        return fetch + decode + issueWait + execute + commitWait;
    }

    /** Register as one Vector stat named `name` (elements fetch /
     *  decode / issueWait / execute / commitWait / insts); this object
     *  must outlive the registry. */
    void registerStats(stats::StatRegistry &reg,
                       const std::string &name) const;
};

struct CpuStats
{
    std::uint64_t cycles = 0;
    std::uint64_t committed = 0;

    // Front-end stall attribution (whole-machine cycles).
    std::uint64_t stallForIIcache = 0;
    std::uint64_t stallForIRedirect = 0;
    std::uint64_t stallForRd = 0;
    std::uint64_t decodeCdpBubbles = 0;

    std::uint64_t fetchedBytes = 0; ///< code bytes brought in by fetch
    std::uint64_t condBranches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t fetchWindows = 0; ///< i-cache fetch accesses

    StageBreakdown all;  ///< every committed instruction
    StageBreakdown crit; ///< instructions flagged in the crit mask

    mem::MemStats mem;
    double efetchAccuracy = 0.0;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(committed) /
                        static_cast<double>(cycles) : 0.0;
    }

    /** F.StallForI as a fraction of execution cycles. */
    double
    fracStallForI() const
    {
        return cycles ? static_cast<double>(stallForIIcache +
                                            stallForIRedirect) /
                        static_cast<double>(cycles) : 0.0;
    }

    /** F.StallForR+D as a fraction of execution cycles. */
    double
    fracStallForRd() const
    {
        return cycles ? static_cast<double>(stallForRd) /
                        static_cast<double>(cycles) : 0.0;
    }

    /** Register views of the CPU-side stats under `prefix` (default
     *  "cpu").  The nested memory hierarchy is NOT registered — call
     *  mem.registerStats() separately (conventionally under "mem") so
     *  its dotted names stay stable whether they come from a CpuStats
     *  or a bare MemorySystem.  This object must outlive the registry.
     */
    void registerStats(stats::StatRegistry &reg,
                       const std::string &prefix = "cpu") const;
};

/**
 * Run a trace to completion.
 *
 * @param trace     dynamic instruction stream
 * @param config    pipeline configuration
 * @param memConfig memory-system configuration
 * @param bpu       branch predictor (state is consumed/trained)
 * @param critMask  optional per-dyn-instruction criticality flags;
 *                  drives the `crit` breakdown and, via `criticalSet`,
 *                  is distinct from the mechanism inputs below
 * @param criticalSet optional static-uid set marking instructions the
 *                  criticality mechanisms treat as critical
 */
CpuStats runTrace(const program::Trace &trace, const CpuConfig &config,
                  const mem::MemConfig &memConfig,
                  bpu::BranchPredictor &bpu,
                  const std::vector<std::uint8_t> *critMask = nullptr,
                  const std::unordered_set<program::InstUid>
                      *criticalSet = nullptr);

} // namespace critics::cpu

#endif // CRITICS_CPU_CPU_HH
