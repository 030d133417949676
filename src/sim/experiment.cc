#include "sim/experiment.hh"

#include <cstring>
#include <sstream>

#include "obs/obs.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace critics::sim
{

namespace
{

// The ctor synthesizes in its initializer list, where no scope object
// can live — route the call through a helper so the synth stage is
// still attributed.
program::Program
synthWithScope(const workload::AppProfile &profile)
{
    obs::StageScope scope(obs::Stage::Synth);
    return workload::synthesize(profile);
}

} // namespace

using analysis::SelectOptions;
using analysis::Selection;
using compiler::CritIcPassOptions;

struct AppExperiment::MinedSlot
{
    std::once_flag once;
    analysis::MineResult result;
};

struct AppExperiment::TransformSlot
{
    std::once_flag once;
    compiler::PassStats pass;
    double selectionCoverage = 0.0;
    double staticThumbFraction = 0.0;
    program::Trace trace;
};

TransformKey
transformMemoKey(const Variant &variant, double defaultFraction)
{
    const double fraction =
        variant.profileFraction.value_or(defaultFraction);
    std::uint64_t fractionBits = 0;
    static_assert(sizeof fractionBits == sizeof fraction);
    std::memcpy(&fractionBits, &fraction, sizeof fractionBits);
    return {static_cast<std::uint8_t>(variant.transform),
            static_cast<std::uint8_t>(variant.switchMode),
            variant.maxChainLen, variant.exactChainLen, fractionBits};
}

AppExperiment::AppExperiment(const workload::AppProfile &profile,
                             const ExperimentOptions &options)
    : profile_(profile),
      options_(options),
      program_(synthWithScope(profile))
{
    obs::StageScope scope(obs::Stage::Emit);
    Rng walkRng(streamSeed(profile.seed, RngStream::Walk));
    program::WalkLimits limits;
    limits.targetInsts = options_.traceInsts;
    path_ = program::walkProgram(program_, walkRng, limits);
    trace_ = program::emitTrace(program_, path_);
}

const analysis::FanoutInfo &
AppExperiment::fanout()
{
    std::call_once(fanoutOnce_, [&] {
        obs::StageScope scope(obs::Stage::Analyze);
        fanout_ = analysis::computeFanout(trace_, options_.crit);
    });
    return *fanout_;
}

const analysis::DynChains &
AppExperiment::chains()
{
    std::call_once(chainsOnce_, [&] {
        obs::StageScope scope(obs::Stage::Analyze);
        chains_ =
            analysis::extractChains(trace_, fanout(), options_.crit);
    });
    return *chains_;
}

const analysis::ChainStats &
AppExperiment::chainStats()
{
    std::call_once(chainStatsOnce_, [&] {
        obs::StageScope scope(obs::Stage::Analyze);
        chainStats_ = analysis::chainStatistics(chains(), fanout());
    });
    return *chainStats_;
}

const analysis::MineResult &
AppExperiment::mined()
{
    return minedAt(options_.profileFraction);
}

const analysis::MineResult &
AppExperiment::minedAt(double fraction)
{
    // Key on the exact bit pattern of the fraction: the old
    // int(fraction*1000+0.5) key collided for fractions closer than
    // 1e-3 and misrounded negative values.
    std::uint64_t key = 0;
    static_assert(sizeof key == sizeof fraction);
    std::memcpy(&key, &fraction, sizeof key);
    std::shared_ptr<MinedSlot> slot;
    {
        std::lock_guard<std::mutex> guard(minedLock_);
        auto &entry = mined_[key];
        if (!entry)
            entry = std::make_shared<MinedSlot>();
        slot = entry;
    }
    std::call_once(slot->once, [&] {
        obs::StageScope scope(obs::Stage::Analyze);
        slot->result =
            analysis::mineCritIcs(trace_, program_, chains(), fanout(),
                                  options_.crit, fraction, &locTable());
    });
    return slot->result;
}

const analysis::LocTable &
AppExperiment::locTable()
{
    std::call_once(locTableOnce_, [&] {
        obs::StageScope scope(obs::Stage::Analyze);
        locTable_.emplace(program_);
    });
    return *locTable_;
}

const std::unordered_set<program::InstUid> &
AppExperiment::criticalSet()
{
    std::call_once(criticalSetOnce_, [&] {
        obs::StageScope scope(obs::Stage::Analyze);
        criticalSet_ = analysis::buildCriticalSet(trace_, fanout());
    });
    return *criticalSet_;
}

double
AppExperiment::baselineStaticThumbFraction()
{
    std::call_once(staticThumbOnce_, [&] {
        staticThumb_ = program_.thumbFraction();
    });
    return staticThumb_;
}

const RunResult &
AppExperiment::baseline()
{
    std::call_once(baselineOnce_, [&] { baseline_ = run(Variant{}); });
    return *baseline_;
}

std::shared_ptr<const AppExperiment::TransformSlot>
AppExperiment::transformedTrace(const Variant &variant)
{
    const TransformKey key =
        transformMemoKey(variant, options_.profileFraction);
    std::shared_ptr<TransformSlot> slot;
    {
        std::lock_guard<std::mutex> guard(memoLock_);
        auto &entry = memo_[key];
        if (!entry)
            entry = std::make_shared<TransformSlot>();
        slot = entry;
    }
    std::call_once(slot->once, [&] {
        obs::StageScope scope(obs::Stage::Transform);
        program::Program prog = program_; // transformed copy
        slot->pass =
            applyTransform(prog, variant, &slot->selectionCoverage);
        slot->staticThumbFraction = prog.thumbFraction();
        slot->trace = program::emitTrace(prog, path_);
    });
    return slot;
}

void
AppExperiment::dropTransforms()
{
    std::lock_guard<std::mutex> guard(memoLock_);
    memo_.clear();
}

RunResult
AppExperiment::run(const Variant &variant)
{
    return run(variant, RunHooks{});
}

MaterializedTransform
AppExperiment::materializeTransform(const Variant &variant,
                                    verify::PassAudit *audit)
{
    obs::StageScope scope(obs::Stage::Transform);
    MaterializedTransform m;
    m.prog = program_;
    m.pass = applyTransform(m.prog, variant, nullptr, audit);
    m.trace = program::emitTrace(m.prog, path_);
    return m;
}

compiler::PassStats
AppExperiment::applyTransform(program::Program &prog,
                              const Variant &variant,
                              double *selectionCoverage,
                              verify::PassAudit *audit)
{
    // Covers the lint path too, which calls this directly; minedAt()
    // inside selectChains re-marks its own work as Analyze.
    obs::StageScope scope(obs::Stage::Transform);
    compiler::PassStats pass;
    const double fraction =
        variant.profileFraction.value_or(options_.profileFraction);

    auto selectChains = [&](bool ideal) {
        SelectOptions sel;
        sel.maxLen = variant.maxChainLen;
        sel.exactLen = variant.exactChainLen;
        sel.ideal = ideal;
        const Selection selection =
            analysis::selectCritIcs(minedAt(fraction), sel);
        if (selectionCoverage != nullptr)
            *selectionCoverage = selection.expectedCoverage;
        return selection;
    };

    switch (variant.transform) {
      case Transform::None:
        break;
      case Transform::Hoist: {
        CritIcPassOptions opt;
        opt.convertToThumb = false;
        opt.switchMode = compiler::SwitchMode::None;
        pass = compiler::applyCritIcPass(
            prog, selectChains(false).chains, opt, audit);
        break;
      }
      case Transform::CritIc: {
        CritIcPassOptions opt;
        opt.switchMode = variant.switchMode;
        pass = compiler::applyCritIcPass(
            prog, selectChains(false).chains, opt, audit);
        break;
      }
      case Transform::CritIcIdeal: {
        CritIcPassOptions opt;
        opt.switchMode = variant.switchMode;
        opt.forceConvert = true;
        pass = compiler::applyCritIcPass(
            prog, selectChains(true).chains, opt, audit);
        break;
      }
      case Transform::Opp16:
        pass = compiler::applyOpp16Pass(prog, 3, audit);
        break;
      case Transform::Compress:
        pass = compiler::applyCompressPass(prog, audit);
        break;
      case Transform::Opp16PlusCritIc: {
        CritIcPassOptions opt;
        opt.switchMode = variant.switchMode;
        pass = compiler::applyCritIcPass(
            prog, selectChains(false).chains, opt, audit);
        const compiler::PassStats opp =
            compiler::applyOpp16Pass(prog, 3, audit);
        pass.instsConverted += opp.instsConverted;
        pass.instsExpanded += opp.instsExpanded;
        pass.cdpsInserted += opp.cdpsInserted;
        break;
      }
    }
    return pass;
}

RunResult
AppExperiment::run(const Variant &variant, const RunHooks &hooks)
{
    RunResult result;

    const bool transformed = variant.transform != Transform::None;

    // ---- Software transform + trace against the transformed binary ----
    std::shared_ptr<const TransformSlot> memo; // keeps trace alive
    const program::Trace *tracePtr = &trace_;
    if (transformed) {
        memo = transformedTrace(variant);
        result.pass = memo->pass;
        result.selectionCoverage = memo->selectionCoverage;
        result.staticThumbFraction = memo->staticThumbFraction;
        tracePtr = &memo->trace;
        result.dynThumbFraction = memo->trace.dynThumbFraction();
    } else {
        // Transform::None: the baseline binary and trace already
        // exist — no copy, no re-emission, no rescan.
        result.staticThumbFraction = baselineStaticThumbFraction();
        result.dynThumbFraction = trace_.dynThumbFraction();
    }

    // ---- Hardware configuration ----------------------------------------
    cpu::CpuConfig cpuCfg;
    cpuCfg.warmupCommits = static_cast<std::uint64_t>(
        static_cast<double>(tracePtr->size()) *
        options_.warmupFraction);
    if (variant.doubleFrontend)
        cpuCfg.doubleFrontend();
    cpuCfg.aluPrioritization = variant.aluPrio;
    cpuCfg.backendPrio = variant.backendPrio;
    cpuCfg.criticalLoadPrefetch = variant.criticalLoadPrefetch;
    cpuCfg.efetch = variant.efetch;
    cpuCfg.statsInterval = hooks.statsInterval;
    cpuCfg.intervals = hooks.intervals;
    cpuCfg.traceSink = hooks.trace;

    mem::MemConfig memCfg;
    if (variant.icache4x)
        memCfg.icache.sizeBytes *= 4;

    std::unique_ptr<bpu::BranchPredictor> predictor;
    if (variant.perfectBranch)
        predictor = std::make_unique<bpu::PerfectPredictor>();
    else
        predictor = std::make_unique<bpu::TwoLevelPredictor>();

    const bool needsCritSet = variant.aluPrio || variant.backendPrio ||
                              variant.criticalLoadPrefetch;
    const std::vector<std::uint8_t> *mask =
        transformed ? nullptr : &fanout().critMask;

    obs::StageScope scope(obs::Stage::Simulate);
    result.cpu = cpu::runTrace(*tracePtr, cpuCfg, memCfg, *predictor,
                               mask,
                               needsCritSet ? &criticalSet() : nullptr);
    result.energy = energy::computeEnergy(result.cpu);
    return result;
}

double
AppExperiment::speedup(const RunResult &result)
{
    const double base = static_cast<double>(baseline().cpu.cycles);
    const double var = static_cast<double>(result.cpu.cycles);
    critics_assert(var > 0, "zero-cycle run");
    return base / var;
}

std::string
describeBaselineConfig()
{
    std::ostringstream os;
    os << "Baseline configuration (Table I):\n"
       << "  CPU: 4-wide Fetch/Decode/Rename/ROB/Issue/Execute/Commit "
          "superscalar; 128-entry ROB;\n"
       << "       4k-entry 2-level BPU; 8-byte/cycle fetch/decode "
          "datapath (DESIGN.md par.6);\n"
       << "       2 ALUs, 1 mul/div, 1 FPU, 2 mem ports\n"
       << "  Mem: 2-way 32KB i-cache + 64KB d-cache (2-cycle hit); "
          "8-way 2MB L2 (10-cycle hit)\n"
       << "       with CLPT stride prefetcher (1024 entries)\n"
       << "  DRAM: LPDDR3, 1 channel, 2 ranks, 8 banks/rank, "
          "open-page; tCL,tRP,tRCD = 13,13,13 ns\n";
    return os.str();
}

} // namespace critics::sim
