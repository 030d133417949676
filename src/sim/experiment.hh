/**
 * @file
 * The top-level experiment facade.  An AppExperiment owns everything
 * derived from one workload profile: the synthesized program, the
 * recorded control path, the baseline trace, the offline criticality
 * profile (fanout, ICs, mined CritICs), and runs named design points
 * ("variants") against the same path so speedups are apples-to-apples.
 *
 * This is the public API the examples and every figure bench drive.
 */

#ifndef CRITICS_SIM_EXPERIMENT_HH
#define CRITICS_SIM_EXPERIMENT_HH

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_set>

#include "analysis/criticality.hh"
#include "analysis/miner.hh"
#include "compiler/passes.hh"
#include "cpu/cpu.hh"
#include "energy/energy.hh"
#include "program/emit.hh"
#include "program/walker.hh"
#include "workload/profile.hh"
#include "workload/synth.hh"

namespace critics::stats
{
class IntervalSeries;
class TraceEventWriter;
}

namespace critics::sim
{

struct ExperimentOptions
{
    /** Dynamic instructions per simulated sample. */
    std::uint64_t traceInsts = 600000;
    /** Fraction of each run treated as cache/predictor warmup. */
    double warmupFraction = 0.35;
    analysis::CriticalityConfig crit{};
    /** Fraction of the execution the offline profiler sees
     *  (Sec. IV-I: the headline results use 72%). */
    double profileFraction = 0.72;
};

/** Software design points. */
enum class Transform : std::uint8_t
{
    None,
    Hoist,          ///< Fig. 10: motion only
    CritIc,         ///< the proposed design
    CritIcIdeal,    ///< Fig. 10: no length/convertibility limits
    Opp16,          ///< Fig. 13
    Compress,       ///< Fig. 13 ([78])
    Opp16PlusCritIc ///< Fig. 13
};

/** One design point: a software transform + hardware knobs. */
struct Variant
{
    std::string label = "baseline";
    Transform transform = Transform::None;
    compiler::SwitchMode switchMode = compiler::SwitchMode::Cdp;
    unsigned maxChainLen = 5;
    unsigned exactChainLen = 0; ///< Fig. 12a: only exactly-n chains
    std::optional<double> profileFraction; ///< override (Fig. 12b)

    // Hardware mechanisms (Figs. 1a / 11).
    bool perfectBranch = false;
    bool efetch = false;
    bool icache4x = false;
    bool doubleFrontend = false;
    bool aluPrio = false;
    bool backendPrio = false;
    bool criticalLoadPrefetch = false;
};

/**
 * Observability hooks for one run.  Deliberately NOT part of Variant
 * or ExperimentOptions: hooks never change simulated behaviour, so
 * they must never enter a job's spec string (and thereby its cache
 * key) — a hooked run and a plain run are the same experiment.
 */
struct RunHooks
{
    /** Sample all stats every N committed instructions (0 = off). */
    std::uint64_t statsInterval = 0;
    stats::IntervalSeries *intervals = nullptr;
    /** Per-instruction pipeline spans (Chrome trace events). */
    stats::TraceEventWriter *trace = nullptr;
};

/** A variant's transformed binary plus the trace re-emitted from it
 *  along the experiment's recorded control path — the pair the
 *  trace-conformance checker (`critics_cli lint --trace`) proves
 *  consistent. */
struct MaterializedTransform
{
    program::Program prog;
    program::Trace trace;
    compiler::PassStats pass;
};

struct RunResult
{
    cpu::CpuStats cpu;
    energy::EnergyBreakdown energy;
    compiler::PassStats pass;
    double selectionCoverage = 0.0; ///< expected dyn coverage of chains
    double staticThumbFraction = 0.0;
    double dynThumbFraction = 0.0;  ///< Fig. 13b (excl. switch overhead)
};

/**
 * Memo key for transformed traces: exactly the Variant fields that can
 * change the transformed binary (and therefore the re-emitted trace),
 * with the effective profile fraction keyed on its exact bit pattern.
 * Hardware-only knobs are deliberately absent, so variants differing
 * only in hardware share one transformed trace.
 */
using TransformKey = std::tuple<std::uint8_t, std::uint8_t, unsigned,
                                unsigned, std::uint64_t>;

/** The key AppExperiment::run files a variant's transformed trace
 *  under; `defaultFraction` supplies the profile fraction when the
 *  variant carries no override. */
TransformKey transformMemoKey(const Variant &variant,
                              double defaultFraction);

/** One app's synthesized program, trace and offline profile, shared
 *  by every design point run on it.  The runner owns experiments
 *  through shared_ptr; weak_from_this() lets a job body observe when
 *  the runner releases one. */
class AppExperiment : public std::enable_shared_from_this<AppExperiment>
{
  public:
    explicit AppExperiment(const workload::AppProfile &profile,
                           const ExperimentOptions &options = {});

    const workload::AppProfile &profile() const { return profile_; }
    const program::Program &baseProgram() const { return program_; }
    const program::Trace &baseTrace() const { return trace_; }
    const program::ControlPath &path() const { return path_; }

    // ---- Offline profile (lazy, cached) ----------------------------------
    // Thread-safe: the runner executes many variants of one app
    // concurrently against a single shared AppExperiment.  Each field
    // computes behind its own once-latch, so two variants needing
    // *different* products (say fanout and mining) overlap instead of
    // serializing behind one big lock.  References stay valid once
    // returned (the caches only grow).
    const analysis::FanoutInfo &fanout();
    const analysis::DynChains &chains();
    const analysis::ChainStats &chainStats();
    /** Mined unique CritICs at the experiment's profile fraction. */
    const analysis::MineResult &mined();
    const analysis::MineResult &minedAt(double fraction);
    const std::unordered_set<program::InstUid> &criticalSet();
    /** Dense uid -> packed location/convertibility tables of the
     *  baseline program, shared by every minedAt() fraction (the
     *  mining loop reads one per dynamic instruction). */
    const analysis::LocTable &locTable();

    // ---- Design-point runs -----------------------------------------------
    const RunResult &baseline();
    RunResult run(const Variant &variant);
    /** Same run with interval sampling / trace export attached. */
    RunResult run(const Variant &variant, const RunHooks &hooks);

    /**
     * Apply the variant's software transform to `prog` (a copy of
     * baseProgram()), exactly as run() does before simulating.  When
     * `audit` is given, each pass collects its verifier findings and
     * skip advisories there instead of panicking — the spine of
     * `critics_cli lint`.  Returns the pass stats; `selectionCoverage`
     * (optional) receives the chain selection's expected dynamic
     * coverage.
     */
    compiler::PassStats applyTransform(
        program::Program &prog, const Variant &variant,
        double *selectionCoverage = nullptr,
        verify::PassAudit *audit = nullptr);

    /**
     * Transform a copy of the baseline program for `variant` and
     * re-emit the trace along the experiment's recorded path, exactly
     * as run() does internally — the input pair for trace-conformance
     * checking.  Unmemoized: callers (lint) want a fresh audit per
     * variant.
     */
    MaterializedTransform materializeTransform(
        const Variant &variant, verify::PassAudit *audit = nullptr);

    /** baselineCycles / variantCycles. */
    double speedup(const RunResult &result);

    /** Forget every memoized transformed trace; the next run of a
     *  transformed variant builds its trace again.  A run in flight
     *  keeps its own trace alive.  The offline profile stays. */
    void dropTransforms();

  private:
    struct MinedSlot;     ///< per-fraction once-latch + result
    struct TransformSlot; ///< per-key once-latch + transformed trace

    /** Shared transformed trace (and pass products) for the variant's
     *  memo key, built at most once per AppExperiment. */
    std::shared_ptr<const TransformSlot>
    transformedTrace(const Variant &variant);

    /** Static thumb fraction of the *baseline* binary, computed once
     *  (Transform::None runs no longer copy the program to get it). */
    double baselineStaticThumbFraction();

    workload::AppProfile profile_;
    ExperimentOptions options_;
    program::Program program_;
    program::ControlPath path_;
    program::Trace trace_;

    // One once-latch per lazily derived field.  Dependencies only ever
    // point "down" (chainStats -> chains -> fanout), and a latch's
    // compute function takes no lock, so cross-field call_once nesting
    // cannot deadlock.
    std::once_flag fanoutOnce_;
    std::once_flag chainsOnce_;
    std::once_flag chainStatsOnce_;
    std::once_flag locTableOnce_;
    std::once_flag criticalSetOnce_;
    std::once_flag baselineOnce_;
    std::once_flag staticThumbOnce_;
    double staticThumb_ = 0.0;

    std::optional<analysis::FanoutInfo> fanout_;
    std::optional<analysis::DynChains> chains_;
    std::optional<analysis::ChainStats> chainStats_;
    std::optional<analysis::LocTable> locTable_;
    std::optional<std::unordered_set<program::InstUid>> criticalSet_;
    std::optional<RunResult> baseline_;

    // Keyed caches: the map mutex covers slot creation only; the
    // compute runs under the slot's own once-latch, so concurrent
    // misses on *different* keys build in parallel.
    std::mutex minedLock_;
    std::map<std::uint64_t, std::shared_ptr<MinedSlot>> mined_;
    std::mutex memoLock_;
    std::map<TransformKey, std::shared_ptr<TransformSlot>> memo_;
};

/** Render Table I (the baseline configuration) for bench headers. */
std::string describeBaselineConfig();

} // namespace critics::sim

#endif // CRITICS_SIM_EXPERIMENT_HH
