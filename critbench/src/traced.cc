/**
 * @file
 * The traced run: times the calls into each layer's public functions
 * from the benchmark's own code, with no instrumentation in src/.
 *
 * For sweep_cold it drives each app's pipeline exactly as
 * sim::AppExperiment does (one build per app, one transform and
 * re-emit per transformMemoKey, lazily shared analysis products) on
 * the same thread pool, and requires results bit-identical to an
 * untraced Runner sweep of the same grid, which proves it did the
 * production work.  For sweep_warm it times the ResultStore
 * constructor, JobSpec::hashHex and lookup.  serve_load.cc adds the
 * serve part.
 */

#include <array>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_set>

#include "analysis/mode.hh"
#include "runner/result_store.hh"
#include "runner/thread_pool.hh"
#include "support/rng.hh"
#include "verify/verify.hh"
#include "workloads.hh"

namespace critbench
{

namespace
{

using namespace critics;
using runner::JobSpec;
using sim::RunResult;
using sim::Transform;
using sim::Variant;

enum Layer : unsigned
{
    kSynth,
    kWalk,
    kEmit,
    kReemit,
    kFanout,
    kChains,
    kLocTable,
    kMine,
    kSelect,
    kCritSet,
    kPassCritIc,
    kPassOpp16,
    kPassCompress,
    kRunTraceMobile,
    kRunTraceSpec,
    kEnergy,
    kStoreInsert,
    kLayers
};

/** Busy nanoseconds per layer, summed over threads. */
struct LayerTimes
{
    std::array<std::atomic<std::uint64_t>, kLayers> ns{};

    double seconds(Layer layer) const { return ns[layer].load() / 1e9; }
    double total() const
    {
        double sum = 0.0;
        for (const auto &n : ns)
            sum += n.load() / 1e9;
        return sum;
    }
};

/** Adds its lifetime to one layer's busy time. */
class Span
{
  public:
    Span(LayerTimes &times, Layer layer)
        : times_(times), layer_(layer), start_(Clock::now())
    {
    }
    ~Span()
    {
        times_.ns[layer_].fetch_add(
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - start_)
                    .count()),
            std::memory_order_relaxed);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    LayerTimes &times_;
    Layer layer_;
    Clock::time_point start_;
};

struct MinedSlot
{
    std::once_flag once;
    analysis::MineResult result;
};

struct TransformSlot
{
    std::once_flag once;
    compiler::PassStats pass;
    double selectionCoverage = 0.0;
    bool selected = false; ///< the transform ran a chain selection
    double staticThumbFraction = 0.0;
    program::Trace trace;
};

/** What sim::AppExperiment holds for one app, built the same way. */
struct TracedApp
{
    workload::AppProfile profile;
    sim::ExperimentOptions options;
    program::Program program;
    program::ControlPath path;
    program::Trace trace;

    std::once_flag fanoutOnce, chainsOnce, locOnce, critOnce, thumbOnce;
    std::optional<analysis::FanoutInfo> fanout;
    std::optional<analysis::DynChains> chains;
    std::optional<analysis::LocTable> locs;
    std::optional<std::unordered_set<program::InstUid>> critSet;
    double staticThumb = 0.0;

    std::mutex lock; ///< guards slot creation in the two maps
    std::map<std::uint64_t, std::shared_ptr<MinedSlot>> mined;
    std::map<sim::TransformKey, std::shared_ptr<TransformSlot>> memo;
};

struct AppSlot
{
    std::once_flag once;
    std::unique_ptr<TracedApp> app;
};

/** One traced sweep's shared state. */
class Tracer
{
  public:
    LayerTimes times;
    std::atomic<std::uint64_t> emitted{0};   ///< baseline trace insts
    std::atomic<std::uint64_t> reemitted{0}; ///< transformed trace insts
    std::atomic<std::uint64_t> tracesBuilt{0};

    TracedApp &app(const JobSpec &spec)
    {
        AppSlot *slot = nullptr;
        {
            std::lock_guard<std::mutex> guard(appsLock_);
            auto &entry = apps_[spec.appKey()];
            if (!entry)
                entry = std::make_unique<AppSlot>();
            slot = entry.get();
        }
        std::call_once(slot->once, [&] { slot->app = build(spec); });
        return *slot->app;
    }

    RunResult run(TracedApp &app, const Variant &variant);

    template <class F> void forEachApp(F &&f)
    {
        for (auto &[key, slot] : apps_)
            f(*slot->app);
    }

  private:
    std::unique_ptr<TracedApp> build(const JobSpec &spec);
    const analysis::FanoutInfo &fanout(TracedApp &app);
    const analysis::DynChains &chains(TracedApp &app);
    const analysis::MineResult &minedAt(TracedApp &app, double fraction);
    const std::unordered_set<program::InstUid> &critSet(TracedApp &app);
    compiler::PassStats applyTransform(TracedApp &app,
                                       program::Program &prog,
                                       const Variant &variant,
                                       TransformSlot &slot);
    std::shared_ptr<const TransformSlot> transformed(TracedApp &app,
                                                     const Variant &v);

    std::mutex appsLock_;
    std::map<std::string, std::unique_ptr<AppSlot>> apps_;
};

std::unique_ptr<TracedApp>
Tracer::build(const JobSpec &spec)
{
    auto app = std::make_unique<TracedApp>();
    app->profile = spec.profile;
    app->options = spec.options;
    {
        Span span(times, kSynth);
        app->program = workload::synthesize(app->profile);
    }
    {
        Span span(times, kWalk);
        Rng walkRng(streamSeed(app->profile.seed, RngStream::Walk));
        program::WalkLimits limits;
        limits.targetInsts = app->options.traceInsts;
        app->path = program::walkProgram(app->program, walkRng, limits);
    }
    {
        Span span(times, kEmit);
        app->trace = program::emitTrace(app->program, app->path);
    }
    emitted += app->trace.size();
    tracesBuilt++;
    return app;
}

const analysis::FanoutInfo &
Tracer::fanout(TracedApp &app)
{
    std::call_once(app.fanoutOnce, [&] {
        Span span(times, kFanout);
        app.fanout = analysis::computeFanout(app.trace, app.options.crit);
    });
    return *app.fanout;
}

const analysis::DynChains &
Tracer::chains(TracedApp &app)
{
    std::call_once(app.chainsOnce, [&] {
        const auto &info = fanout(app);
        Span span(times, kChains);
        app.chains =
            analysis::extractChains(app.trace, info, app.options.crit);
    });
    return *app.chains;
}

const analysis::MineResult &
Tracer::minedAt(TracedApp &app, double fraction)
{
    std::uint64_t key = 0;
    std::memcpy(&key, &fraction, sizeof key);
    std::shared_ptr<MinedSlot> slot;
    {
        std::lock_guard<std::mutex> guard(app.lock);
        auto &entry = app.mined[key];
        if (!entry)
            entry = std::make_shared<MinedSlot>();
        slot = entry;
    }
    std::call_once(slot->once, [&] {
        const analysis::LocTable *locs = nullptr;
        if (analysis::flatAnalyzeEnabled()) {
            std::call_once(app.locOnce, [&] {
                Span span(times, kLocTable);
                app.locs.emplace(app.program);
            });
            locs = &*app.locs;
        }
        const auto &dynChains = chains(app);
        const auto &info = fanout(app);
        Span span(times, kMine);
        slot->result =
            analysis::mineCritIcs(app.trace, app.program, dynChains, info,
                                  app.options.crit, fraction, locs);
    });
    return slot->result;
}

const std::unordered_set<program::InstUid> &
Tracer::critSet(TracedApp &app)
{
    std::call_once(app.critOnce, [&] {
        const auto &info = fanout(app);
        Span span(times, kCritSet);
        app.critSet = analysis::buildCriticalSet(app.trace, info);
    });
    return *app.critSet;
}

/** sim::AppExperiment::applyTransform, with each call timed. */
compiler::PassStats
Tracer::applyTransform(TracedApp &app, program::Program &prog,
                       const Variant &variant, TransformSlot &slot)
{
    const double fraction =
        variant.profileFraction.value_or(app.options.profileFraction);
    auto select = [&](bool ideal) {
        const auto &mined = minedAt(app, fraction);
        analysis::SelectOptions sel;
        sel.maxLen = variant.maxChainLen;
        sel.exactLen = variant.exactChainLen;
        sel.ideal = ideal;
        Span span(times, kSelect);
        analysis::Selection selection = analysis::selectCritIcs(mined, sel);
        slot.selectionCoverage = selection.expectedCoverage;
        slot.selected = true;
        return selection;
    };
    auto critIc = [&](const analysis::Selection &selection,
                      const compiler::CritIcPassOptions &opt) {
        Span span(times, kPassCritIc);
        return compiler::applyCritIcPass(prog, selection.chains, opt);
    };
    auto opp16 = [&] {
        Span span(times, kPassOpp16);
        return compiler::applyOpp16Pass(prog, 3);
    };

    compiler::PassStats pass;
    compiler::CritIcPassOptions opt;
    switch (variant.transform) {
      case Transform::None:
        break;
      case Transform::Hoist:
        opt.convertToThumb = false;
        opt.switchMode = compiler::SwitchMode::None;
        pass = critIc(select(false), opt);
        break;
      case Transform::CritIc:
        opt.switchMode = variant.switchMode;
        pass = critIc(select(false), opt);
        break;
      case Transform::CritIcIdeal:
        opt.switchMode = variant.switchMode;
        opt.forceConvert = true;
        pass = critIc(select(true), opt);
        break;
      case Transform::Opp16:
        pass = opp16();
        break;
      case Transform::Compress: {
        Span span(times, kPassCompress);
        pass = compiler::applyCompressPass(prog);
        break;
      }
      case Transform::Opp16PlusCritIc: {
        opt.switchMode = variant.switchMode;
        pass = critIc(select(false), opt);
        const compiler::PassStats opp = opp16();
        pass.instsConverted += opp.instsConverted;
        pass.instsExpanded += opp.instsExpanded;
        pass.cdpsInserted += opp.cdpsInserted;
        break;
      }
    }
    return pass;
}

std::shared_ptr<const TransformSlot>
Tracer::transformed(TracedApp &app, const Variant &variant)
{
    const auto key =
        sim::transformMemoKey(variant, app.options.profileFraction);
    std::shared_ptr<TransformSlot> slot;
    {
        std::lock_guard<std::mutex> guard(app.lock);
        auto &entry = app.memo[key];
        if (!entry)
            entry = std::make_shared<TransformSlot>();
        slot = entry;
    }
    std::call_once(slot->once, [&] {
        program::Program prog = app.program;
        slot->pass = applyTransform(app, prog, variant, *slot);
        slot->staticThumbFraction = prog.thumbFraction();
        Span span(times, kReemit);
        slot->trace = program::emitTrace(prog, app.path);
        reemitted += slot->trace.size();
        tracesBuilt++;
    });
    return slot;
}

/** sim::AppExperiment::run(variant), with each call timed. */
RunResult
Tracer::run(TracedApp &app, const Variant &variant)
{
    RunResult result;
    const bool isTransformed = variant.transform != Transform::None;
    std::shared_ptr<const TransformSlot> memo;
    const program::Trace *trace = &app.trace;
    if (isTransformed) {
        memo = transformed(app, variant);
        result.pass = memo->pass;
        result.selectionCoverage = memo->selectionCoverage;
        result.staticThumbFraction = memo->staticThumbFraction;
        trace = &memo->trace;
        result.dynThumbFraction = memo->trace.dynThumbFraction();
    } else {
        std::call_once(app.thumbOnce, [&] {
            app.staticThumb = app.program.thumbFraction();
        });
        result.staticThumbFraction = app.staticThumb;
        result.dynThumbFraction = app.trace.dynThumbFraction();
    }

    cpu::CpuConfig cpuCfg;
    cpuCfg.warmupCommits = static_cast<std::uint64_t>(
        static_cast<double>(trace->size()) * app.options.warmupFraction);
    if (variant.doubleFrontend)
        cpuCfg.doubleFrontend();
    cpuCfg.aluPrioritization = variant.aluPrio;
    cpuCfg.backendPrio = variant.backendPrio;
    cpuCfg.criticalLoadPrefetch = variant.criticalLoadPrefetch;
    cpuCfg.efetch = variant.efetch;

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
        isTransformed ? nullptr : &fanout(app).critMask;
    const std::unordered_set<program::InstUid> *crit =
        needsCritSet ? &critSet(app) : nullptr;
    {
        Span span(times, app.profile.suite == workload::Suite::Mobile
                             ? kRunTraceMobile
                             : kRunTraceSpec);
        result.cpu = cpu::runTrace(*trace, cpuCfg, memCfg, *predictor,
                                   mask, crit);
    }
    {
        Span span(times, kEnergy);
        result.energy = energy::computeEnergy(result.cpu);
    }
    return result;
}

double
mean(const std::vector<double> &values)
{
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

} // namespace

TracedSweep
tracedColdSweep(const std::vector<JobSpec> &grid,
                const std::string &storePath, Report *report)
{
    std::filesystem::remove_all(
        std::filesystem::path(storePath).parent_path());
    std::filesystem::create_directories(
        std::filesystem::path(storePath).parent_path());
    const verify::Counters &vc = verify::counters();
    const std::uint64_t checks0 = vc.structuralChecks.load();
    const std::uint64_t errors0 = vc.errors.load();

    Tracer tracer;
    TracedSweep out;
    out.results.resize(grid.size());
    std::vector<double> jobWall(grid.size(), 0.0);

    const auto start = Clock::now();
    runner::ResultStore store(storePath);
    std::vector<std::string> specs(grid.size());
    std::vector<std::string> hashes(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        specs[i] = grid[i].specString();
        hashes[i] = runner::hashHexOf(runner::hashSpecString(specs[i]));
    }
    runner::ThreadPool::shared().forEach(grid.size(), [&](std::size_t i) {
        const auto jobStart = Clock::now();
        const JobSpec &spec = grid[i];
        TracedApp &app = tracer.app(spec);
        out.results[i] = tracer.run(app, spec.variant);
        {
            Span span(tracer.times, kStoreInsert);
            store.insert(hashes[i], specs[i], spec.profile.name,
                         spec.variant.label, out.results[i]);
        }
        jobWall[i] = secondsSince(jobStart);
    });
    out.wallSeconds = secondsSince(start);

    // Commit check against the exact trace each job simulated.
    std::uint64_t cycles = 0;
    std::uint64_t committed = 0;
    std::uint64_t simInsts = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        TracedApp &app = tracer.app(grid[i]);
        std::size_t length = app.trace.size();
        if (grid[i].variant.transform != Transform::None) {
            const auto key = sim::transformMemoKey(
                grid[i].variant, app.options.profileFraction);
            length = app.memo.at(key)->trace.size();
        }
        simInsts += length;
        cycles += out.results[i].cpu.cycles;
        committed += out.results[i].cpu.committed;
        if (!committedWholeTrace(out.results[i], length,
                                 app.options.warmupFraction))
            out.lengthMismatches++;
    }
    if (report == nullptr)
        return out;

    const LayerTimes &t = tracer.times;
    std::uint64_t minedChains = 0;
    std::uint64_t attempted = 0;
    std::uint64_t transformedChains = 0;
    std::vector<double> coverage;
    tracer.forEachApp([&](TracedApp &app) {
        std::uint64_t key = 0;
        std::memcpy(&key, &app.options.profileFraction, sizeof key);
        if (const auto it = app.mined.find(key); it != app.mined.end())
            minedChains += it->second->result.chains.size();
        for (const auto &[memoKey, slot] : app.memo) {
            attempted += slot->pass.chainsAttempted;
            transformedChains += slot->pass.chainsTransformed;
            if (slot->selected)
                coverage.push_back(slot->selectionCoverage);
        }
    });
    double jobSeconds = 0.0;
    for (const double w : jobWall)
        jobSeconds += w;
    const double runTrace =
        t.seconds(kRunTraceMobile) + t.seconds(kRunTraceSpec);
    const double emit = t.seconds(kEmit) + t.seconds(kReemit);

    Report &r = *report;
    r.metric("workload.synthesize.busy_s", t.seconds(kSynth));
    r.metric("program.walkProgram.busy_s", t.seconds(kWalk));
    r.metric("program.emitTrace.busy_s", t.seconds(kEmit));
    r.metric("program.emitTrace.reemit_busy_s", t.seconds(kReemit));
    r.metric("program.emitTrace.insts_per_s",
             static_cast<double>(tracer.emitted + tracer.reemitted) / emit);
    r.metric("sim.AppExperiment.build_s",
             t.seconds(kSynth) + t.seconds(kWalk) + t.seconds(kEmit));
    r.metric("analysis.computeFanout.busy_s", t.seconds(kFanout));
    r.metric("analysis.extractChains.busy_s", t.seconds(kChains));
    r.metric("analysis.LocTable.busy_s", t.seconds(kLocTable));
    r.metric("analysis.mineCritIcs.busy_s", t.seconds(kMine));
    r.metric("analysis.selectCritIcs.busy_s", t.seconds(kSelect));
    r.metric("analysis.buildCriticalSet.busy_s", t.seconds(kCritSet));
    r.metric("analysis.critics_mined", static_cast<double>(minedChains));
    r.metric("analysis.selection_coverage", mean(coverage));
    r.metric("compiler.applyCritIcPass.busy_s", t.seconds(kPassCritIc));
    r.metric("compiler.applyOpp16Pass.busy_s", t.seconds(kPassOpp16));
    r.metric("compiler.applyCompressPass.busy_s", t.seconds(kPassCompress));
    r.metric("compiler.chains_transformed_ratio",
             attempted ? static_cast<double>(transformedChains) /
                             static_cast<double>(attempted)
                       : 0.0);
    r.metric("verify.structural_checks",
             static_cast<double>(vc.structuralChecks.load() - checks0));
    r.metric("verify.errors", static_cast<double>(vc.errors.load() - errors0));
    r.metric("cpu.runTrace.busy_s", runTrace);
    r.metric("cpu.runTrace.busy_s.mobile", t.seconds(kRunTraceMobile));
    r.metric("cpu.runTrace.busy_s.spec", t.seconds(kRunTraceSpec));
    r.metric("cpu.runTrace.sim_insts_per_s",
             static_cast<double>(simInsts) / runTrace);
    r.metric("cpu.runTrace.host_ns_per_sim_cycle",
             runTrace * 1e9 / static_cast<double>(cycles));
    r.metric("cpu.sim_cycles", static_cast<double>(cycles));
    r.metric("cpu.sim_ipc", static_cast<double>(committed) /
                                static_cast<double>(cycles));
    r.metric("energy.computeEnergy.busy_s", t.seconds(kEnergy));
    r.metric("sim.transform_memo_hit_ratio",
             1.0 - static_cast<double>(tracer.tracesBuilt) /
                       static_cast<double>(grid.size()));
    r.metric("runner.store.insert.busy_s", t.seconds(kStoreInsert));
    r.metric("sweep_cold.traced_unaccounted_share",
             1.0 - t.total() / jobSeconds);
    r.note("traced sweep_cold: " + std::to_string(grid.size()) +
           " jobs, " + std::to_string(tracer.tracesBuilt) +
           " traces built; layer busy times cover " +
           std::to_string(t.total() / jobSeconds * 100.0) +
           "% of summed job time (the rest is once-latch waits and glue)");
    return out;
}

Report
runTraced(const Context &ctx)
{
    Report report;
    const auto grid = sweepGrid(ctx.seed);
    const std::string dir = ctx.workDir + "/traced";

    // ---- sweep_cold: untraced Runner sweep vs the traced replica ------
    coldSweep(grid, dir + "/warmup"); // discarded, as in the workloads
    std::vector<RunResult> untraced;
    double untracedWall = 0.0;
    {
        ColdSweep sweep = coldSweep(grid, dir + "/cold");
        untracedWall = sweep.wallSeconds;
        untraced = resultsOf(sweep.batch);
        std::vector<double> wallMs;
        double jobSeconds = 0.0;
        std::uint64_t retried = 0;
        std::uint64_t failed = 0;
        for (const auto &outcome : sweep.batch.outcomes) {
            wallMs.push_back(outcome.wallSeconds * 1e3);
            jobSeconds += outcome.wallSeconds;
            retried += outcome.attempts > 1 ? 1 : 0;
            failed += outcome.ok ? 0 : 1;
            report.operation(outcome.ok);
        }
        // forEach runs on the pool threads and the calling thread.
        const double threads = static_cast<double>(
            runner::ThreadPool::shared().threadCount() + 1);
        report.metric("runner.job_wall.p50_ms", median(wallMs));
        report.metric("runner.job_wall.p90_ms",
                      quantile(wallMs, 0.9).value_or(0.0));
        report.metric("runner.pool.busy_share",
                      jobSeconds / (threads * sweep.wallSeconds));
        report.metric("runner.jobs.retried", static_cast<double>(retried));
        report.metric("runner.jobs.failed", static_cast<double>(failed));
    }
    const TracedSweep traced =
        tracedColdSweep(grid, dir + "/traced-cold/results.jsonl", &report);
    report.operation(traced.lengthMismatches == 0);
    if (traced.lengthMismatches > 0)
        report.fail(std::to_string(traced.lengthMismatches) +
                    " traced jobs did not commit their whole trace");
    std::size_t differ = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (runner::resultToJson(traced.results[i]) !=
            runner::resultToJson(untraced[i]))
            differ++;
    }
    const std::string digest = gridDigest(grid, untraced);
    const std::string tracedDigest = gridDigest(grid, traced.results);
    report.operation(differ == 0);
    if (differ > 0)
        report.fail(std::to_string(differ) +
                    " traced results differ from the Runner's");
    report.note("sweep_cold digest: untraced " + digest + ", traced " +
                tracedDigest);
    report.metric("trace_overhead_share.sweep_cold",
                  (traced.wallSeconds - untracedWall) / untracedWall);

    // ---- sweep_warm: Runner ops vs timed store calls --------------------
    const std::string storePath = dir + "/cold/results.jsonl";
    constexpr int kWarmOps = 20;
    std::vector<double> untracedMs;
    for (int op = 0; op <= kWarmOps; ++op) {
        bool ok = false;
        const auto start = Clock::now();
        const auto results = warmSweep(grid, storePath, ok);
        if (op > 0) // the first is the warm-up
            untracedMs.push_back(secondsSince(start) * 1e3);
        const bool same = ok && gridDigest(grid, results) == digest;
        report.operation(same);
        if (!same)
            report.fail("untraced warm op differs from the cold sweep");
    }
    std::vector<double> tracedMs;
    double loadS = 0.0, hashS = 0.0, lookupS = 0.0;
    std::uint64_t hits = 0, lookups = 0, records = 0;
    for (int op = 0; op < kWarmOps; ++op) {
        const auto start = Clock::now();
        auto t0 = Clock::now();
        runner::ResultStore store(storePath);
        loadS += secondsSince(t0);
        std::vector<RunResult> results(grid.size());
        bool ok = true;
        for (std::size_t i = 0; i < grid.size(); ++i) {
            // JobSpec::hashHex, split as the Runner does: the spec
            // string is rendered once and serves the lookup too.
            t0 = Clock::now();
            const std::string spec = grid[i].specString();
            const std::string hash =
                runner::hashHexOf(runner::hashSpecString(spec));
            const auto t1 = Clock::now();
            const auto found = store.lookup(hash, spec);
            lookupS += secondsSince(t1);
            hashS += std::chrono::duration<double>(t1 - t0).count();
            lookups++;
            if (found) {
                hits++;
                results[i] = *found;
            } else {
                ok = false;
            }
        }
        tracedMs.push_back(secondsSince(start) * 1e3);
        records = store.size();
        const bool same = ok && gridDigest(grid, results) == digest;
        report.operation(same);
        if (!same)
            report.fail("traced warm op differs from the cold sweep");
    }
    report.metric("runner.store.load_s", loadS / kWarmOps);
    report.metric("runner.store.lookup.busy_s", lookupS / kWarmOps);
    report.metric("runner.JobSpec.hashHex.busy_s", hashS / kWarmOps);
    report.metric("runner.store.hit_ratio",
                  static_cast<double>(hits) / static_cast<double>(lookups));
    report.metric("runner.store.records", static_cast<double>(records));
    report.metric("runner.store.bytes",
                  static_cast<double>(std::filesystem::file_size(storePath)));
    report.metric("trace_overhead_share.sweep_warm",
                  median(tracedMs) / median(untracedMs) - 1.0);
    report.note("sweep_warm traced op replays ResultStore load + hashHex "
                "+ lookup only (no manifest write), so its share can be "
                "negative");

    // ---- serve_mixed -----------------------------------------------------
    traceServe(ctx, report);
    return report;
}

} // namespace critbench
