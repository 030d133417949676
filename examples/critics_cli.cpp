/**
 * @file
 * Command-line driver for the experiment orchestrator.
 *
 * Subcommands:
 *   critics_cli run --apps Acrobat,Office --variants baseline,critic
 *       Run an (apps × variants) sweep through the runner: cached
 *       design points are served from the persistent JSONL store, the
 *       rest simulate on the thread pool; prints a speedup table and
 *       the manifest summary.  `--profile` samples the sweep and
 *       splits its CPU time by pipeline stage.
 *   critics_cli report [manifest.json ...]
 *       Summarize run manifests (default: every manifest in the cache
 *       directory); exits non-zero if any batch recorded a failed job.
 *   critics_cli cache [stats|path|clear], cache compact|gc
 *       Inspect, compact or bound the persistent result cache.
 *   critics_cli diff <before> <after>
 *       Regression harness: compare two runs metric-by-metric.  Each
 *       side is a run manifest (results resolved from the result
 *       store by job hash) or a result-store JSONL file; jobs are
 *       matched by app/variant, every stat of the registry is diffed
 *       under a noise threshold, and any significant drift — faster
 *       or slower — exits non-zero naming the regressed dotted stats.
 *   critics_cli lint [--apps ...] [--variants ...] [--out report.json]
 *       Static-analysis gate: synthesize each app's program, apply
 *       each variant's passes under a full verifier audit (structural
 *       + differential dataflow + skip advisories + post-pass lints),
 *       write a machine-readable JSON report and exit non-zero on any
 *       error-severity diagnostic.  No simulation runs.
 *   critics_cli serve|submit|status|wait|top
 *       The job-queue daemon and its clients.
 *   critics_cli prof report <file>
 *       Pretty-print a --profile report.
 *
 * `run` is the one way to run a job.  One job's full view is a
 * one-job batch: `run --apps Acrobat --variants critic --no-cache`
 * with `--json` for its stats, `--stats-interval` for their time
 * series and `--trace-out` for each instruction's pipeline stages.
 * `--help` lists every app and variant.
 *
 * Every command line is one FlagTable (support/flags.hh): its rows
 * parse the flags, reject unknown flags and stray arguments, and
 * render `usage()`.  critbench builds this file on its own, so it
 * stays one file.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/obs.hh"
#include "obs/profiler.hh"
#include "runner/manifest.hh"

#include "runner/cache_admin.hh"
#include "runner/orchestrator.hh"
#include "runner/thread_pool.hh"
#include "sim/experiment.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/worker.hh"
#include "sim/report.hh"
#include "sim/variants.hh"
#include "stats/diff.hh"
#include "stats/interval.hh"
#include "stats/registry.hh"
#include "stats/trace_event.hh"
#include "support/flags.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/number.hh"
#include "support/table.hh"
#include "verify/trace_check.hh"
#include "verify/verify.hh"

using namespace critics;

namespace
{

// The apps/variants string vocabulary is shared with the serve
// protocol and the worker argv (sim/variants.hh), so a spec submitted
// over the wire resolves to exactly the grid these flags would build.
using sim::parseApps;

/** Print why the command line was refused (if given) and the help of
 *  every command; returns the exit code 2. */
int usage(const std::string &why = "");

/**
 * One command's argv.  Every command starts with
 * `if (!cmd.parse(table)) return cmd.status;`, so the one table it
 * declares both parses its command line and, in help mode, renders its
 * part of usage().
 */
struct CommandLine
{
    int argc = 0;
    char **argv = nullptr;
    /** Help mode: parse() appends the table's help here and refuses,
     *  so the command returns before doing any work. */
    std::string *help = nullptr;
    std::vector<std::string> args; ///< the positionals, after parse()
    int status = 2;                ///< exit code when parse() refuses

    bool
    parse(const FlagTable &table)
    {
        if (help != nullptr) {
            *help += table.help() + "\n";
            return false;
        }
        std::string why;
        if (table.parse(argc, argv, &args, &why))
            return true;
        status = usage(why);
        return false;
    }
};

// ---------------------------------------------------------------------------
// diff: the regression harness.

/** Flat registry snapshot of one run's metrics. */
stats::Snapshot
snapshotOf(const sim::RunResult &result)
{
    stats::StatRegistry reg;
    sim::bindRunResult(reg, result);
    return reg.snapshot();
}

/**
 * Load one diff side as app/variant → RunResult.  A side is either a
 * run manifest (results resolved from `storePath` by job hash) or a
 * result-store JSONL file.  Matching is by app/variant, not hash, so
 * runs of the same specs across a config or code change stay
 * comparable even though every content hash moved.
 */
std::map<std::string, sim::RunResult>
loadDiffSide(const std::string &path, const std::string &storePath)
{
    std::map<std::string, sim::RunResult> side;
    runner::RunManifest manifest;
    if (runner::RunManifest::read(path, manifest) &&
        !manifest.batch.empty()) {
        std::map<std::string, sim::RunResult> byHash;
        for (auto &record : runner::readResultRecords(storePath))
            byHash.emplace(record.hash, std::move(record.result));
        for (const auto &job : manifest.jobs) {
            if (!job.ok)
                continue;
            const auto it = byHash.find(job.hash);
            if (it == byHash.end()) {
                // Leaves the job on one side only, which the caller
                // reports as a mismatch.
                critics_warn("no stored result for ", job.app, "/",
                             job.variant, " (hash ", job.hash,
                             ") in ", storePath);
                continue;
            }
            side[job.app + "/" + job.variant] = it->second;
        }
        return side;
    }
    for (auto &record : runner::readResultRecords(path))
        side[record.app + "/" + record.variant] =
            std::move(record.result);
    if (side.empty()) {
        critics_fatal("'", path, "' holds no results (expected a run ",
                      "manifest or a result-store JSONL file)");
    }
    return side;
}

int
cmdDiff(CommandLine &cmd)
{
    stats::DiffOptions opt;
    std::string storePath;
    if (!cmd.parse({"critics_cli diff <before> <after> [options]",
                    "compare two runs metric-by-metric; exit 1 on any drift "
                    "beyond noise. Each side is a run manifest .json or a "
                    "result store .jsonl",
                    {Flag::real("--rel", "<frac>",
                                "relative noise threshold (default 0.01)",
                                opt.relThreshold),
                     Flag::real("--abs", "<eps>",
                                "absolute noise floor (default 1e-9)",
                                opt.absThreshold),
                     Flag::text("--store", "<file>",
                                "result store for manifest sides (default: "
                                "the shared cache)",
                                storePath)},
                    2, 2}))
        return cmd.status;
    const auto &paths = cmd.args;
    if (storePath.empty())
        storePath = runner::cacheDir() + "/results.jsonl";

    const auto before = loadDiffSide(paths[0], storePath);
    const auto after = loadDiffSide(paths[1], storePath);

    std::size_t compared = 0, regressedJobs = 0, regressedMetrics = 0;
    bool mismatch = false;
    for (const auto &[key, beforeResult] : before) {
        const auto it = after.find(key);
        if (it == after.end()) {
            std::printf("%s: only in %s\n", key.c_str(),
                        paths[0].c_str());
            mismatch = true;
            continue;
        }
        ++compared;
        const auto diff = stats::diffSnapshots(
            snapshotOf(beforeResult), snapshotOf(it->second), opt);
        if (!diff.hasRegressions())
            continue;
        if (diff.regressions() > 0) {
            ++regressedJobs;
            regressedMetrics += diff.regressions();
            std::printf("%s: %zu metric(s) beyond noise "
                        "(rel %g, abs %g)\n",
                        key.c_str(), diff.regressions(),
                        opt.relThreshold, opt.absThreshold);
            for (const auto &d : diff.worst(diff.deltas.size())) {
                if (!d.regression)
                    break;
                std::printf("  %-34s %.6g -> %.6g  (%+.2f%%)\n",
                            d.name.c_str(), d.before, d.after,
                            (d.after >= d.before ? 1.0 : -1.0) *
                                d.relDelta * 100.0);
            }
        }
        for (const auto &name : diff.onlyBefore) {
            std::printf("%s: stat %s vanished\n", key.c_str(),
                        name.c_str());
            mismatch = true;
        }
        for (const auto &name : diff.onlyAfter) {
            std::printf("%s: stat %s appeared\n", key.c_str(),
                        name.c_str());
            mismatch = true;
        }
    }
    for (const auto &[key, result] : after) {
        (void)result;
        if (before.find(key) == before.end()) {
            std::printf("%s: only in %s\n", key.c_str(),
                        paths[1].c_str());
            mismatch = true;
        }
    }

    std::printf("diff: %zu job(s) compared, %zu regressed "
                "(%zu metric(s))%s\n",
                compared, regressedJobs, regressedMetrics,
                mismatch ? ", job/stat sets mismatch" : "");
    return (regressedMetrics > 0 || mismatch) ? 1 : 0;
}

// ---------------------------------------------------------------------------
// lint: the static-analysis gate.

int
cmdLint(CommandLine &cmd)
{
    std::string appsArg = "mobile";
    std::string variantsArg = "all";
    std::uint64_t insts = 400000;
    unsigned minRun = 3;
    bool withTrace = false;
    std::string outPath = "lint_report.json";
    if (!cmd.parse({"critics_cli lint [options]",
                    "verify every variant's passes; exit 1 on any "
                    "error-severity finding",
                    {Flag::text("--apps", "<list>",
                                "apps or suite (default mobile)", appsArg),
                     Flag::text("--variants", "<list>",
                                "variant names (default: all)", variantsArg),
                     Flag::integer("--insts", "<n>",
                                   "synthesis budget per app", insts,
                                   runner::kMaxInsts),
                     Flag::integer("--min-run", "<n>",
                                   "unconverted-run lint threshold "
                                   "(default 3)",
                                   minRun),
                     Flag::toggle("--trace",
                                  "also replay each variant's re-emitted "
                                  "trace against its transformed program "
                                  "(verify.trace.* conformance checks, incl. "
                                  "the taken-bias bound)",
                                  withTrace),
                     Flag::text("--out", "<file>",
                                "JSON report path (default "
                                "lint_report.json)",
                                outPath)}}))
        return cmd.status;
    const auto apps = parseApps(appsArg);
    const auto variants = sim::parseVariants(variantsArg);

    sim::ExperimentOptions expOptions;
    expOptions.traceInsts = insts;

    json::JsonWriter w;
    w.beginObject();
    // Schema history: 1 = original report; 2 = adds this version
    // field's contract plus `totals.codes` (per-diagnostic-code counts)
    // and the optional per-variant `trace` object, so CI greps match on
    // structure and code identity instead of message text.
    w.field("schema", 2);
    w.field("tool", "critics_cli lint");
    w.field("trace", withTrace);
    w.beginArray("apps");

    std::size_t totalErrors = 0, totalWarnings = 0, totalAdvice = 0;
    std::map<std::string, std::uint64_t> totalCodes;
    Table table({"app", "variant", "errors", "warnings", "advice"});

    for (const auto &profile : apps) {
        sim::AppExperiment exp(profile, expOptions);
        verify::TraceCheckOptions traceOptions;
        traceOptions.biasVocabulary =
            workload::branchBiasVocabulary(profile);
        w.elementObject();
        w.field("app", profile.name);
        w.beginArray("variants");
        for (const sim::Variant &variant : variants) {
            const std::string &name = variant.label;
            verify::PassAudit audit;

            w.elementObject();
            w.field("variant", name);
            if (withTrace) {
                const sim::MaterializedTransform m =
                    exp.materializeTransform(variant, &audit);
                verify::lintAdvisories(m.prog, audit.report, minRun);
                const verify::TraceCheckStats ts =
                    verify::checkTraceConformance(
                        m.prog, m.trace, audit.report, traceOptions);
                w.beginObject("trace");
                w.field("blocksReplayed", ts.blocksReplayed);
                w.field("transitionsChecked", ts.transitionsChecked);
                w.field("branchSitesTested", ts.branchSitesTested);
                w.field("conformant", ts.conformant);
                w.endObject();
            } else {
                program::Program prog = exp.baseProgram();
                exp.applyTransform(prog, variant, nullptr, &audit);
                verify::lintAdvisories(prog, audit.report, minRun);
            }
            audit.report.writeJson(w);
            w.endObject();

            for (const auto &[code, count] :
                 audit.report.codeCounts()) {
                totalCodes[code] += count;
            }
            totalErrors += audit.report.errors();
            totalWarnings += audit.report.warnings();
            totalAdvice += audit.report.advice();
            table.addRow({profile.name, name,
                          std::to_string(audit.report.errors()),
                          std::to_string(audit.report.warnings()),
                          std::to_string(audit.report.advice())});
            // Errors are simulator bugs: show them right away, capped
            // by the report's own per-code stored limit.
            for (const auto &d : audit.report.diags()) {
                if (d.severity == verify::Severity::Error) {
                    std::printf("%s/%s: %s\n", profile.name.c_str(),
                                name.c_str(), d.render().c_str());
                }
            }
        }
        w.endArray();
        w.endObject();
    }

    w.endArray();
    w.beginObject("totals");
    w.field("errors", static_cast<std::uint64_t>(totalErrors));
    w.field("warnings", static_cast<std::uint64_t>(totalWarnings));
    w.field("advice", static_cast<std::uint64_t>(totalAdvice));
    w.beginObject("codes");
    for (const auto &[code, count] : totalCodes)
        w.field(code.c_str(), count);
    w.endObject();
    w.endObject();
    w.field("clean", totalErrors == 0);
    w.endObject();

    std::ofstream out(outPath, std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
        return 2;
    }
    out << w.str() << "\n";

    std::printf("%s\n", table.render().c_str());
    std::printf("lint: %zu app(s) x %zu variant(s): %zu error(s), "
                "%zu warning(s), %zu advisor%s\nreport: %s\n",
                apps.size(), variants.size(), totalErrors,
                totalWarnings, totalAdvice,
                totalAdvice == 1 ? "y" : "ies", outPath.c_str());
    return totalErrors > 0 ? 1 : 0;
}

// ---------------------------------------------------------------------------
// run: a sweep through the runner.

int
cmdRun(CommandLine &cmd)
{
    std::string appsArg = "mobile";
    std::string variantsArg = "baseline,critic";
    std::string batchName = "cli";
    std::uint64_t insts = 400000;
    std::uint64_t statsInterval = 0;
    std::string statsOut = "stats_cli.jsonl";
    std::string traceOut, profilePath;
    bool json = false;
    runner::RunnerOptions options;
    if (!cmd.parse({
        "critics_cli run [options]",
        "run an apps × variants sweep",
        {Flag::text("--apps", "<list>",
                    "comma list of app names, or one of "
                    "mobile|specint|specfloat|all",
                    appsArg),
         Flag::text("--variants", "<list>",
                    "comma list of variant names, or all",
                    variantsArg),
         Flag::integer("--insts", "<n>",
                       "dynamic instructions per sample", insts,
                       runner::kMaxInsts),
         Flag::text("--batch", "<name>",
                    "manifest name (default 'cli')", batchName),
         Flag::toggle("--no-cache",
                      "bypass the persistent result cache",
                      options.useCache, false),
         Flag::toggle("--refresh",
                      "ignore cached records, re-simulate",
                      options.refresh),
         Flag::text("--cache-file", "<f>",
                    "result store path (default: the shared cache)",
                    options.cachePath),
         Flag::toggle("--json", "print each job's stats as JSON", json),
         Flag::integer("--stats-interval", "<n>",
                       "sample all stats every n committed insts "
                       "into the interval JSONL (simulated jobs "
                       "only: use --refresh to force fresh runs)",
                       statsInterval),
         Flag::text("--stats-out", "<file>",
                    "interval JSONL path (default stats_cli.jsonl)",
                    statsOut),
         Flag::text("--trace-out", "<file>",
                    "Chrome trace of runner phases, per-job spans and "
                    "pipeline-stage spans (load in Perfetto); a "
                    "one-job batch that simulates adds each "
                    "instruction's stage residencies in cycles",
                    traceOut),
         Flag::text("--profile", "<file>",
                    "sample this process with SIGPROF and write a "
                    "per-stage/per-symbol profile (inspect with "
                    "`prof report`)",
                    profilePath)}}))
        return cmd.status;
    const auto apps = parseApps(appsArg);
    // `all` expands to every variant, as in lint — the drift gates
    // sweep the complete matrix.
    const auto variants = sim::parseVariants(variantsArg);

    sim::ExperimentOptions expOptions;
    expOptions.traceInsts = insts;

    stats::TraceEventWriter trace;
    if (!traceOut.empty()) {
        // The Runner's phase and job spans and the stage spans nested
        // in them arrive through the sink, on process 1.  Re-basing their
        // CLOCK_MONOTONIC timestamps on an epoch taken here puts them
        // on a 0-based timeline, each stage span nested under the job
        // span of the same pool thread.
        trace.setProcessName(1, "runner: " + batchName);
        const std::uint64_t epochUs = obs::monotonicMicros();
        obs::setSpanSink([&trace, epochUs](const obs::SpanRecord &s) {
            trace.complete(s.name, s.category,
                           s.startUs > epochUs ? s.startUs - epochUs
                                               : 0,
                           s.durUs, 1, s.tid);
        });
    }
    // One job's pipeline, instruction by instruction, goes on process
    // 0 in simulated cycles; across many jobs it would be unreadable.
    stats::TraceEventWriter *const pipelineTrace =
        !traceOut.empty() && apps.size() * variants.size() == 1
            ? &trace
            : nullptr;

    // The hooks ride the executor, so only simulated jobs run with them
    // (cache hits never execute: no interval rows, no pipeline spans).
    // Each job samples into its own series and appends its JSONL under
    // the batch lock.
    std::mutex statsLock;
    std::string statsJsonl;
    if (statsInterval > 0 || pipelineTrace != nullptr) {
        options.executor = [&statsLock, &statsJsonl, statsInterval,
                            pipelineTrace](const runner::JobSpec &spec,
                                           sim::AppExperiment &experiment) {
            sim::RunHooks hooks;
            stats::IntervalSeries series;
            hooks.statsInterval = statsInterval;
            hooks.intervals = &series;
            hooks.trace = pipelineTrace;
            auto result = experiment.run(spec.variant, hooks);
            std::lock_guard<std::mutex> guard(statsLock);
            statsJsonl += series.toJsonl(spec.profile.name + "/" +
                                         spec.variant.label);
            return result;
        };
    }

    obs::SamplingProfiler profiler;
    if (!profilePath.empty() && !profiler.start())
        profilePath.clear();

    runner::Runner runner(options);
    const auto batch = runner.run(
        batchName, runner::makeGrid(apps, variants, expOptions));

    obs::setSpanSink(nullptr);
    if (!profilePath.empty()) {
        profiler.stop();
        const std::string report = profiler.reportJson();
        if (profiler.writeReport(profilePath))
            std::printf("profile: %s\n", profilePath.c_str());
        obs::printProfileReport(report);
    }

    if (json) {
        for (std::size_t i = 0; i < batch.jobs.size(); ++i) {
            if (batch.outcomes[i].ok) {
                std::printf("%s\n",
                            sim::toJson(batch.outcomes[i].result,
                                        batch.jobs[i].profile.name +
                                            "/" +
                                            batch.jobs[i].variant.label)
                                .c_str());
            }
        }
    } else {
        std::vector<std::string> header{"app"};
        for (const auto &variant : variants)
            header.push_back(variant.label);
        Table table(std::move(header));
        for (std::size_t a = 0; a < apps.size(); ++a) {
            std::vector<std::string> row{apps[a].name};
            for (std::size_t v = 0; v < variants.size(); ++v) {
                const std::size_t i = a * variants.size() + v;
                if (!batch.outcomes[i].ok) {
                    row.push_back("FAILED");
                } else if (v == 0) {
                    row.push_back(
                        fmt(double(batch.outcomes[i].result.cpu.cycles),
                            0) +
                        " cyc");
                } else {
                    row.push_back(gainPct(
                        batch.speedup(a * variants.size(), i)));
                }
            }
            table.addRow(std::move(row));
        }
        std::printf("%s\n", table.render().c_str());
    }
    std::printf("%s\n", batch.manifest.summaryLine().c_str());
    if (!batch.manifestPath.empty())
        std::printf("manifest: %s\n", batch.manifestPath.c_str());
    if (statsInterval > 0) {
        if (statsJsonl.empty()) {
            std::printf("stats: no interval rows (every job came from "
                        "the cache; use --refresh)\n");
        } else {
            std::ofstream out(statsOut, std::ios::trunc);
            out << statsJsonl;
            std::printf("stats: %s\n", statsOut.c_str());
        }
    }
    if (!traceOut.empty() && trace.writeTo(traceOut)) {
        std::printf("trace: %s (%zu events)\n", traceOut.c_str(),
                    trace.size());
    }
    return batch.allOk() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// report and cache: the manifests and the result store.

int
cmdReport(CommandLine &cmd)
{
    if (!cmd.parse({"critics_cli report [file ...]",
                    "summarize run manifests (default: all manifests in the "
                    "cache dir); exit 1 on any failed job",
                    {},
                    0, FlagTable::kUnbounded}))
        return cmd.status;
    std::vector<std::string> paths = cmd.args;
    if (paths.empty()) {
        const std::string dir = runner::cacheDir() + "/manifests";
        std::error_code ec;
        for (const auto &entry :
             std::filesystem::directory_iterator(dir, ec)) {
            if (entry.path().extension() == ".json")
                paths.push_back(entry.path().string());
        }
        std::sort(paths.begin(), paths.end());
        if (paths.empty()) {
            std::printf("no manifests under %s\n", dir.c_str());
            return 0;
        }
    }

    std::size_t failures = 0;
    bool interrupted = false;
    for (const auto &path : paths) {
        runner::RunManifest manifest;
        if (!runner::RunManifest::read(path, manifest)) {
            std::printf("%s: unreadable manifest\n", path.c_str());
            ++failures;
            continue;
        }
        std::printf("%s\n", manifest.summaryLine().c_str());
        interrupted = interrupted || manifest.interrupted;
        for (const auto &job : manifest.jobs) {
            if (!job.ok) {
                ++failures;
                std::printf("  FAILED %s/%s (%u attempts): %s\n",
                            job.app.c_str(), job.variant.c_str(),
                            job.attempts, job.error.c_str());
            }
        }
    }
    if (failures > 0 || interrupted) {
        std::printf("%zu failed job(s)%s\n", failures,
                    interrupted ? ", batch interrupted" : "");
        return 1;
    }
    return 0;
}

/** The shared store, unless a command names another. */
std::string
storeOrDefault(const std::vector<std::string> &args)
{
    return args.empty() ? runner::cacheDir() + "/results.jsonl"
                        : args[0];
}

int
cmdCache(CommandLine &cmd)
{
    if (!cmd.parse({"critics_cli cache [stats|path|clear]",
                    "show the shared result store's size or path, or clear "
                    "it (default: stats)",
                    {},
                    0, 1}))
        return cmd.status;
    const std::string action = cmd.args.empty() ? "stats" : cmd.args[0];
    runner::ResultStore store;
    if (action == "stats") {
        std::uintmax_t bytes = 0;
        std::error_code ec;
        bytes = std::filesystem::file_size(store.path(), ec);
        if (ec)
            bytes = 0;
        std::printf("cache: %s\n  records: %zu (schema v%d)\n"
                    "  size: %.1f KiB\n",
                    store.path().c_str(), store.size(),
                    runner::kResultSchemaVersion,
                    static_cast<double>(bytes) / 1024.0);
        return 0;
    }
    if (action == "path") {
        std::printf("%s\n", store.path().c_str());
        return 0;
    }
    if (action == "clear") {
        const std::size_t had = store.size();
        store.clear();
        std::printf("cleared %zu record(s) from %s\n", had,
                    store.path().c_str());
        return 0;
    }
    return usage("unknown cache action '" + action + "'");
}

int
cmdCacheCompact(CommandLine &cmd)
{
    if (!cmd.parse({"critics_cli cache compact [file]",
                    "rewrite a store dropping superseded, old-schema and "
                    "collision/orphan records; reports bytes reclaimed",
                    {},
                    0, 1}))
        return cmd.status;
    const std::string path = storeOrDefault(cmd.args);
    const auto stats = runner::compactStore(path);
    if (!stats) {
        std::fprintf(stderr, "cache compact failed for %s\n",
                     path.c_str());
        return 1;
    }
    std::printf("compacted %s\n  %s\n", path.c_str(),
                stats->summary().c_str());
    return 0;
}

int
cmdCacheGc(CommandLine &cmd)
{
    runner::GcOptions opt;
    if (!cmd.parse({"critics_cli cache gc [options] [file]",
                    "compact, then bound the store by age and/or size",
                    {{"--max-age", "<dur>",
                      "drop records older than <dur> (30d, 12h, 900s, plain "
                      "seconds)",
                      [&opt](const std::string &flag, const std::string &v) {
                          opt.maxAgeSeconds = parseDuration(flag, v);
                      }},
                     {"--max-bytes", "<n>",
                      "evict oldest-first past <n> bytes (512K, 512M, 2G, "
                      "plain bytes)",
                      [&opt](const std::string &flag, const std::string &v) {
                          opt.maxBytes = parseBytes(flag, v);
                      }}},
                    0, 1}))
        return cmd.status;
    if (opt.maxAgeSeconds == 0 && opt.maxBytes == 0) {
        std::fprintf(stderr,
                     "cache gc wants --max-age and/or --max-bytes\n");
        return 2;
    }
    const std::string path = storeOrDefault(cmd.args);
    const auto stats = runner::gcStore(path, opt);
    if (!stats) {
        std::fprintf(stderr, "cache gc failed for %s\n", path.c_str());
        return 1;
    }
    std::printf("gc %s\n  %s\n", path.c_str(),
                stats->summary().c_str());
    return 0;
}

// ---------------------------------------------------------------------------
// serve / submit / status / wait: simulation as a service.

/** Atomic so the install/clear in serve and the read in the signal
 *  handler never race (a plain pointer here is a data race the
 *  concurrency checks rightly reject). */
std::atomic<serve::Server *> gServeInstance{nullptr};

/** SIGTERM/SIGINT → graceful drain.  requestShutdown() is an atomic
 *  store plus a self-pipe write(), both async-signal-safe; the
 *  signal-handler check cannot see through the member call, hence the
 *  justification NOLINT. */
void
serveSignalHandler(int)
{
    serve::Server *server =
        gServeInstance.load(std::memory_order_acquire);
    if (server != nullptr)
        server->requestShutdown(); // NOLINT(bugprone-signal-handler)
}

/** This binary's path, for exec'ing serve-worker children. */
std::string
selfExecutable()
{
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return "critics_cli"; // fall back to execvp's PATH lookup
}

/** --host/--port/--port-file: where a client finds the daemon. */
struct DaemonAddress
{
    std::string host = "127.0.0.1";
    unsigned short port = 0; ///< 0 = read portFile
    std::string portFile;

    /** The address rows, then `rows`. */
    std::vector<Flag>
    flags(std::vector<Flag> rows = {})
    {
        rows.insert(
            rows.begin(),
            {Flag::text("--host", "<ip>",
                        "daemon address (default 127.0.0.1)", host),
             Flag::integer("--port", "<n>", "daemon port", port),
             Flag::text("--port-file", "<f>",
                        "read the daemon port from <f> (as written by "
                        "serve --port-file)",
                        portFile)});
        return rows;
    }

    bool connect(serve::ServeClient &client);
};

bool
DaemonAddress::connect(serve::ServeClient &client)
{
    if (port == 0 && !portFile.empty()) {
        std::ifstream in(portFile);
        unsigned fromFile = 0;
        if (in >> fromFile)
            port = static_cast<unsigned short>(fromFile);
    }
    if (port == 0) {
        std::fprintf(stderr,
                     "need --port <n> or --port-file <f> to find the "
                     "daemon\n");
        return false;
    }
    std::string error;
    if (!client.connect(host, port, &error)) {
        std::fprintf(stderr, "cannot connect: %s\n", error.c_str());
        return false;
    }
    return true;
}

/** Stream a job's events to stdout until its "done" line; exit code
 *  0 only when the batch finished with zero failed jobs. */
int
streamJob(serve::ServeClient &client, const std::string &jobId)
{
    serve::Request request;
    request.op = serve::Request::Op::Wait;
    request.job = jobId;
    if (!client.sendLine(serve::renderRequest(request)))
        return 1;
    for (;;) {
        const auto line = client.readLine(-1);
        if (!line) {
            std::fprintf(stderr,
                         "connection lost; the job keeps running — "
                         "`critics_cli wait %s` resumes the stream\n",
                         jobId.c_str());
            return 1;
        }
        std::printf("%s\n", line->c_str());
        std::fflush(stdout);
        const auto doc = json::parseJson(*line);
        if (!doc)
            continue;
        if (const auto *ok = doc->find("ok")) {
            if (ok->asBool() == false)
                return 1; // protocol error (e.g. unknown job)
        }
        const auto *event = doc->find("event");
        if (event != nullptr &&
            event->asString().value_or("") == "done") {
            const auto *state = doc->find("state");
            const auto *failed = doc->find("failed");
            const bool clean =
                state != nullptr &&
                state->asString().value_or("") == "done" &&
                failed != nullptr && failed->asUint().value_or(1) == 0;
            return clean ? 0 : 1;
        }
    }
}

int
cmdServe(CommandLine &cmd)
{
    serve::ServerOptions options;
    std::string traceOut, statsOut;
    if (!cmd.parse({
        "critics_cli serve [options]",
        "job-queue daemon: JSONL submit/status/wait over TCP, warm "
        "jobs answered from the result store without simulating, "
        "cold jobs hash-sharded across long-lived serve-worker "
        "processes fed one batch line each on stdin (crash -> "
        "bounded restart); SIGTERM drains in-flight work, reaps the "
        "workers and exits",
        {Flag::text("--host", "<ip>",
                    "bind address (default 127.0.0.1)", options.host),
         Flag::integer("--port", "<n>",
                       "TCP port (0 = pick one; see --port-file)",
                       options.port),
         Flag::text("--port-file", "<f>",
                    "write the bound port here after listen",
                    options.portFile),
         Flag::integer("--workers", "<n>",
                       "long-lived worker processes (default 2, at "
                       "least 1)",
                       options.workers),
         Flag::integer("--max-restarts", "<n>",
                       "respawns per worker and batch (default 2)",
                       options.maxRestarts),
         Flag::integer("--attempts", "<n>",
                       "per-job attempt budget (default 2)",
                       options.maxAttempts),
         Flag::text("--cache-file", "<f>",
                    "result store (default: shared cache)",
                    options.cachePath),
         Flag::text("--trace-out", "<f>",
                    "merged Chrome trace: server request spans plus "
                    "every worker's job/stage spans, stitched per-pid "
                    "under one trace id per batch",
                    traceOut),
         Flag::text("--profile-dir", "<d>",
                    "each worker writes a sampling profile to "
                    "<d>/<batch>.worker-<k>.json",
                    options.profileDir),
         Flag::text("--stats-out", "<f>",
                    "serve.* stats JSON on shutdown", statsOut)}}))
        return cmd.status;
    options.workerExe = selfExecutable();

    stats::TraceEventWriter trace;
    if (!traceOut.empty())
        options.trace = &trace;

    serve::Server server(options);
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "serve: %s\n", error.c_str());
        return 1;
    }

    stats::StatRegistry reg;
    server.registerStats(reg);

    gServeInstance = &server;
    std::signal(SIGTERM, serveSignalHandler);
    std::signal(SIGINT, serveSignalHandler);

    std::printf("serving on %s:%u (pid %d, %u worker(s))\n",
                options.host.c_str(), server.port(),
                static_cast<int>(::getpid()), options.workers);
    std::fflush(stdout);

    server.wait();
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    gServeInstance = nullptr;

    if (!statsOut.empty()) {
        std::ofstream out(statsOut, std::ios::trunc);
        out << reg.toJson() << "\n";
    }
    if (!traceOut.empty() && trace.writeTo(traceOut)) {
        std::printf("trace: %s (%zu events)\n", traceOut.c_str(),
                    trace.size());
    }
    std::printf("serve: drained; %llu warm hit(s), %llu simulated, "
                "%llu failed, %llu worker restart(s)\n",
                static_cast<unsigned long long>(server.warmHits()),
                static_cast<unsigned long long>(server.simulated()),
                static_cast<unsigned long long>(server.failedJobs()),
                static_cast<unsigned long long>(
                    server.workerRestarts()));
    return 0;
}

int
cmdSubmit(CommandLine &cmd)
{
    DaemonAddress daemon;
    bool noWait = false;
    serve::SubmitRequest submit;
    if (!cmd.parse({"critics_cli submit [options]",
                    "submit a sweep to a daemon and stream its progress "
                    "events",
                    daemon.flags(
                        {Flag::text("--apps", "<list>", "as `run`",
                                    submit.apps),
                         Flag::text("--variants", "<list>", "as `run`",
                                    submit.variants),
                         Flag::integer("--insts", "<n>", "as `run`",
                                       submit.insts,
                                       runner::kMaxInsts),
                         Flag::text("--batch", "<name>", "as `run`",
                                    submit.batch),
                         Flag::toggle("--refresh", "as `run`",
                                      submit.refresh),
                         Flag::integer("--sleep-ms", "<n>",
                                       "hold each simulated job <n> ms (lets "
                                       "a test catch a worker mid-batch)",
                                       submit.sleepMs),
                         Flag::toggle("--no-wait",
                                      "print the job id and return",
                                      noWait)})}))
        return cmd.status;
    serve::Request request;
    request.op = serve::Request::Op::Submit;
    request.submit = submit;
    serve::ServeClient client;
    if (!daemon.connect(client))
        return 1;
    if (!client.sendLine(serve::renderRequest(request)))
        return 1;
    const auto reply = client.readLine(-1);
    if (!reply) {
        std::fprintf(stderr, "daemon closed the connection\n");
        return 1;
    }
    std::printf("%s\n", reply->c_str());
    const auto doc = json::parseJson(*reply);
    if (!doc)
        return 1;
    const auto *ok = doc->find("ok");
    if (ok == nullptr || ok->asBool() != true)
        return 1;
    const auto *job = doc->find("job");
    const std::string jobId =
        job != nullptr ? job->asString().value_or("") : "";
    if (jobId.empty())
        return 1;
    if (noWait)
        return 0;
    return streamJob(client, jobId);
}

int
cmdStatus(CommandLine &cmd)
{
    DaemonAddress daemon;
    if (!cmd.parse({"critics_cli status <job> [options]",
                    "one-line state of job <job> (serve-<n>)", daemon.flags(),
                    1, 1}))
        return cmd.status;
    serve::ServeClient client;
    if (!daemon.connect(client))
        return 1;
    serve::Request request;
    request.op = serve::Request::Op::Status;
    request.job = cmd.args[0];
    if (!client.sendLine(serve::renderRequest(request)))
        return 1;
    const auto reply = client.readLine(-1);
    if (!reply) {
        std::fprintf(stderr, "daemon closed the connection\n");
        return 1;
    }
    std::printf("%s\n", reply->c_str());
    const auto doc = json::parseJson(*reply);
    if (!doc)
        return 1;
    const auto *ok = doc->find("ok");
    return (ok != nullptr && ok->asBool() == true) ? 0 : 1;
}

int
cmdWait(CommandLine &cmd)
{
    DaemonAddress daemon;
    if (!cmd.parse({"critics_cli wait <job> [options]",
                    "stream job <job>'s events until done; exit 1 if any job "
                    "failed",
                    daemon.flags(), 1, 1}))
        return cmd.status;
    serve::ServeClient client;
    if (!daemon.connect(client))
        return 1;
    return streamJob(client, cmd.args[0]);
}

// ---------------------------------------------------------------------------
// top: the live daemon monitor.

/** Numeric field of the stats reply's "serve" object (optionally one
 *  level deeper); 0 when absent. */
double
serveStat(const json::JsonValue &doc, const char *outer,
          const char *inner = nullptr)
{
    const json::JsonValue *node = doc.find("serve");
    if (node != nullptr)
        node = node->find(outer);
    if (node != nullptr && inner != nullptr)
        node = node->find(inner);
    return node != nullptr ? node->asDouble().value_or(0.0) : 0.0;
}

/** Microseconds → "980us" / "1.2ms" / "3.40s". */
std::string
fmtUs(double us)
{
    char buf[32];
    if (us >= 1e6)
        std::snprintf(buf, sizeof buf, "%.2fs", us / 1e6);
    else if (us >= 1e3)
        std::snprintf(buf, sizeof buf, "%.1fms", us / 1e3);
    else
        std::snprintf(buf, sizeof buf, "%.0fus", us);
    return buf;
}

int
cmdTop(CommandLine &cmd)
{
    DaemonAddress daemon;
    double interval = 2.0;
    bool once = false;
    if (!cmd.parse({"critics_cli top [options]",
                    "live daemon monitor: queue depth, warm-hit ratio, "
                    "job-latency percentiles, worker states",
                    daemon.flags({Flag::real("--interval", "<sec>",
                                            "refresh period (default 2)",
                                            interval),
                                 Flag::toggle("--once",
                                              "print one snapshot and exit",
                                              once)})}))
        return cmd.status;
    if (interval <= 0.0)
        interval = 2.0;

    serve::ServeClient client;
    if (!daemon.connect(client))
        return 1;

    serve::Request request;
    request.op = serve::Request::Op::Stats;
    const std::string statsLine = serve::renderRequest(request);
    const bool tty = ::isatty(::fileno(stdout)) != 0;

    for (;;) {
        if (!client.sendLine(statsLine))
            return 1;
        const auto reply = client.readLine(-1);
        if (!reply) {
            std::fprintf(stderr, "daemon closed the connection\n");
            return 1;
        }
        const auto doc = json::parseJson(*reply);
        if (!doc || doc->find("serve") == nullptr) {
            std::fprintf(stderr, "malformed stats reply: %s\n",
                         reply->c_str());
            return 1;
        }
        // Home + clear keeps the panel in place between refreshes;
        // piped output just gets one panel per poll.
        if (!once && tty)
            std::printf("\x1b[H\x1b[2J");

        std::string runningBatch = "-";
        if (const auto *serve = doc->find("serve")) {
            if (const auto *batch = serve->find("runningBatch")) {
                const auto name = batch->asString().value_or("");
                if (!name.empty())
                    runningBatch = name;
            }
        }
        std::printf("critics serve @ %s — up %s\n", daemon.host.c_str(),
                    fmtUs(serveStat(*doc, "uptimeUs")).c_str());
        std::printf("%-16s %8.0f   %-16s %s\n", "queue depth",
                    serveStat(*doc, "queueDepth"), "running batch",
                    runningBatch.c_str());
        std::printf("%-16s %8.0f   %-16s %.0f\n", "active workers",
                    serveStat(*doc, "activeWorkers"),
                    "in-flight shards",
                    serveStat(*doc, "inFlightShards"));
        std::printf("%-16s %8.0f   %-16s %.1f%%\n", "warm hits",
                    serveStat(*doc, "warmHits"), "warm-hit ratio",
                    serveStat(*doc, "warmHitRatio") * 100.0);
        std::printf("%-16s %8.0f   %-16s %.0f\n", "simulated",
                    serveStat(*doc, "simulated"), "failed jobs",
                    serveStat(*doc, "failedJobs"));
        std::printf("%-16s %8.0f   %-16s %.0f\n", "worker crashes",
                    serveStat(*doc, "workerCrashes"), "restarts",
                    serveStat(*doc, "workerRestarts"));
        std::printf("job latency  n=%-6.0f p50 %-8s p90 %-8s p99 %-8s"
                    " mean %s\n",
                    serveStat(*doc, "jobLatency", "count"),
                    fmtUs(serveStat(*doc, "jobLatency", "p50Us"))
                        .c_str(),
                    fmtUs(serveStat(*doc, "jobLatency", "p90Us"))
                        .c_str(),
                    fmtUs(serveStat(*doc, "jobLatency", "p99Us"))
                        .c_str(),
                    fmtUs(serveStat(*doc, "jobLatency", "meanUs"))
                        .c_str());
        std::printf("queue wait   n=%-6.0f p50 %-8s p99 %s\n",
                    serveStat(*doc, "queueWait", "count"),
                    fmtUs(serveStat(*doc, "queueWait", "p50Us"))
                        .c_str(),
                    fmtUs(serveStat(*doc, "queueWait", "p99Us"))
                        .c_str());
        std::fflush(stdout);
        if (once)
            return 0;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(interval));
    }
}

// ---------------------------------------------------------------------------
// prof: profile report pretty-printer.

int
cmdProfReport(CommandLine &cmd)
{
    std::size_t topN = 20;
    if (!cmd.parse({"critics_cli prof report <file> [options]",
                    "pretty-print a --profile report",
                    {Flag::integer("--top", "<n>",
                                   "symbols to list (default 20)", topN)},
                    1, 1}))
        return cmd.status;
    std::ifstream in(cmd.args[0]);
    if (!in) {
        std::fprintf(stderr, "cannot read %s\n", cmd.args[0].c_str());
        return 1;
    }
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    return obs::printProfileReport(text, topN) ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Dispatch.

struct Subcommand
{
    const char *word; ///< first argument; "cache gc" takes two
    int (*main)(CommandLine &cmd);
};

/** In usage order.  Two-word entries precede their one-word prefix. */
const Subcommand kSubcommands[] = {
    {"run", cmdRun},
    {"report", cmdReport},
    {"cache compact", cmdCacheCompact},
    {"cache gc", cmdCacheGc},
    {"cache", cmdCache},
    {"lint", cmdLint},
    {"diff", cmdDiff},
    {"serve", cmdServe},
    {"submit", cmdSubmit},
    {"status", cmdStatus},
    {"wait", cmdWait},
    {"top", cmdTop},
    {"prof report", cmdProfReport},
};

int
usage(const std::string &why)
{
    if (!why.empty())
        std::fprintf(stderr, "critics_cli: %s\n", why.c_str());
    std::string text = "critics_cli — experiment orchestrator driver\n\n";
    CommandLine helpMode;
    helpMode.help = &text;
    for (const Subcommand &sub : kSubcommands)
        sub.main(helpMode);
    std::string apps;
    for (const auto &profile : workload::allApps())
        apps += (apps.empty() ? "" : ", ") + profile.name;
    text += FlagTable{"apps:", apps, {}}.help();
    std::string variants;
    for (const auto &name : sim::allVariantNames())
        variants += (variants.empty() ? "" : ", ") + name;
    text += FlagTable{"variants:", variants, {}}.help();
    std::fputs(text.c_str(), stdout);
    return 2;
}

} // namespace

int
run(int argc, char **argv)
{
    setQuiet(true);
    // Read once here, so a bad CRITICS_VERIFY or CRITICS_THREADS exits
    // 2 before any work.
    verify::levelFromEnv();
    runner::threadsFromEnv();
    const std::string first = argc > 1 ? argv[1] : "";
    const std::string firstTwo = argc > 2 ? first + " " + argv[2] : "";
    if (first == "--help" || first == "-h" || first == "help") {
        usage();
        return 0;
    }
    // Started by serve, one per shard; its table is in serve/worker.cc.
    if (first == "serve-worker")
        return serve::serveWorkerMain(argc - 2, argv + 2);
    CommandLine cmd;
    for (const Subcommand &sub : kSubcommands) {
        const int words =
            sub.word == firstTwo ? 2 : sub.word == first ? 1 : 0;
        if (words > 0) {
            cmd.argc = argc - 1 - words;
            cmd.argv = argv + 1 + words;
            return sub.main(cmd);
        }
    }
    return usage(first.empty() ? "no command given"
                               : "unknown command '" + first + "'");
}

int
main(int argc, char **argv)
{
    // Bad input (unknown app, malformed number) surfaces as an
    // exception from the layer that rejected it; exit cleanly
    // instead of std::terminate.
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
    }
    return 2;
}
