/**
 * @file
 * Command-line driver for the experiment orchestrator.
 *
 * Subcommands:
 *   critics_cli run --apps Acrobat,Office --variants baseline,critic
 *       Run an (apps × variants) sweep through the runner: cached
 *       design points are served from the persistent JSONL store, the
 *       rest simulate on the thread pool; prints a speedup table and
 *       the manifest summary.
 *   critics_cli report [manifest.json ...]
 *       Summarize run manifests (default: every manifest in the cache
 *       directory); exits non-zero if any batch recorded a failed job.
 *   critics_cli cache [stats|path|clear]
 *       Inspect or clear the persistent result cache.
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
 *
 * The original single-run interface still works:
 *   critics_cli --app Acrobat --variant critic [--json]
 *   critics_cli --list
 *
 * Variants: baseline, hoist, critic, critic-ideal, critic-branchpair,
 *           opp16, compress, opp16+critic, prefetch, aluprio,
 *           backendprio, efetch, perfectbr, icache4x, 2xfd, allhw
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <functional>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "analysis/criticality.hh"
#include "analysis/miner.hh"
#include "analysis/mode.hh"
#include "obs/obs.hh"
#include "obs/profiler.hh"
#include "program/emit.hh"
#include "runner/manifest.hh"

#include "runner/cache_admin.hh"
#include "runner/orchestrator.hh"
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
using sim::parseVariant;
using sim::splitList;

int
usage()
{
    std::printf(
        "critics_cli — experiment orchestrator driver\n\n"
        "critics_cli run [options]     run an apps × variants sweep\n"
        "  --apps <list>       comma list of app names, or one of\n"
        "                      mobile|specint|specfloat|all\n"
        "  --variants <list>   comma list of variant names\n"
        "  --insts <n>         dynamic instructions per sample\n"
        "  --batch <name>      manifest name (default 'cli')\n"
        "  --no-cache          bypass the persistent result cache\n"
        "  --refresh           ignore cached records, re-simulate\n"
        "  --shard K/N         run only slice K of an N-way hash\n"
        "                      partition of the batch; results land\n"
        "                      in a per-shard store (merge with\n"
        "                      `cache merge`), the manifest is named\n"
        "                      <batch>.shard-K-of-N\n"
        "  --cache-file <f>    result store path (default: the shared\n"
        "                      cache; sharded runs default to\n"
        "                      results.shard-K-of-N.jsonl)\n"
        "  --json              emit per-job comparison JSON\n"
        "  --stats-interval <n> sample all stats every n committed\n"
        "                      insts; JSONL to --stats-out\n"
        "                      (simulated jobs only — use --refresh\n"
        "                      to force fresh runs)\n"
        "  --stats-out <file>  interval JSONL path\n"
        "                      (default stats_cli.jsonl)\n"
        "  --trace-out <file>  Chrome trace of runner phases, per-job\n"
        "                      spans and pipeline-stage spans (load in\n"
        "                      Perfetto)\n"
        "  --profile <file>    sample this process with SIGPROF and\n"
        "                      write a per-stage/per-symbol profile\n"
        "                      (inspect with `prof report`)\n"
        "critics_cli bench [options]   tracked simulator microbench:\n"
        "                      N repetitions of a fixed app/variant\n"
        "                      matrix, median sim-insts/s per stage\n"
        "                      (emit, analyze, simulate); appends the\n"
        "                      measurement to BENCH_sim.json\n"
        "  --quick             small matrix for CI smoke\n"
        "  --reps <n>          repetitions (default 5; 3 with --quick)\n"
        "  --insts <n>         dynamic insts per app (default 400000)\n"
        "  --apps/--variants   override the fixed matrix\n"
        "  --label <text>      measurement label (default full/quick)\n"
        "  --out <file>        trajectory file (default BENCH_sim.json)\n"
        "  --baseline <file>   print per-stage deltas vs the last\n"
        "                      measurement in <file> (non-gating)\n"
        "  --profile <file>    sampling profile of the bench process\n"
        "critics_cli report [file ...] summarize run manifests\n"
        "                      (default: all manifests in the cache\n"
        "                      dir); exit 1 on any failed job\n"
        "critics_cli cache [stats|path|clear]\n"
        "critics_cli cache merge <out> <in...>\n"
        "                      concatenate result stores into <out>\n"
        "                      (later record wins per content hash;\n"
        "                      old-schema/malformed lines dropped;\n"
        "                      surviving lines copied byte-exactly)\n"
        "critics_cli cache compact [file]\n"
        "                      rewrite a store dropping superseded,\n"
        "                      old-schema and collision/orphan\n"
        "                      records; reports bytes reclaimed\n"
        "critics_cli cache gc [--max-age <dur>] [--max-bytes <n>]\n"
        "                      [file]  compact, then bound the store:\n"
        "                      drop records older than <dur>\n"
        "                      (30d, 12h, 900s, plain seconds) and\n"
        "                      evict oldest-first past <n> bytes\n"
        "                      (512K, 512M, 2G, plain bytes)\n"
        "critics_cli lint [options]    verify every variant's passes\n"
        "  --apps <list>       apps or suite (default mobile)\n"
        "  --variants <list>   variant names (default: all)\n"
        "  --insts <n>         synthesis budget per app\n"
        "  --min-run <n>       unconverted-run lint threshold\n"
        "                      (default 3)\n"
        "  --trace             also replay each variant's re-emitted\n"
        "                      trace against its transformed program\n"
        "                      (verify.trace.* conformance checks,\n"
        "                      incl. the taken-bias bound)\n"
        "  --out <file>        JSON report path\n"
        "                      (default lint_report.json)\n"
        "                      exit 1 on any error-severity finding\n"
        "critics_cli diff <before> <after> [options]\n"
        "                      compare two runs metric-by-metric;\n"
        "                      exit 1 on any drift beyond noise.\n"
        "                      each side: manifest .json or result\n"
        "                      store .jsonl\n"
        "  --rel <frac>        relative noise threshold (default 0.01)\n"
        "  --abs <eps>         absolute noise floor (default 1e-9)\n"
        "  --store <file>      result store for manifest sides\n"
        "                      (default: the shared cache)\n"
        "critics_cli serve [options]   job-queue daemon: JSONL\n"
        "                      submit/status/wait over TCP, warm jobs\n"
        "                      answered from the result store without\n"
        "                      simulating, cold jobs hash-sharded\n"
        "                      across forked serve-worker processes\n"
        "                      (crash -> bounded restart); SIGTERM\n"
        "                      drains in-flight work and exits\n"
        "  --host <ip>         bind address (default 127.0.0.1)\n"
        "  --port <n>          TCP port (0 = pick one; see below)\n"
        "  --port-file <f>     write the bound port here after listen\n"
        "  --workers <n>       worker processes per batch (default 2;\n"
        "                      0 = run jobs in-process)\n"
        "  --max-restarts <n>  respawns per crashed worker (default 2)\n"
        "  --attempts <n>      per-job attempt budget (default 2)\n"
        "  --cache-file <f>    result store (default: shared cache)\n"
        "  --trace-out <f>     merged Chrome trace: server request\n"
        "                      spans plus every worker's job/stage\n"
        "                      spans, stitched per-pid under one\n"
        "                      trace id per batch\n"
        "  --profile-dir <d>   each worker writes a sampling profile\n"
        "                      to <d>/<batch>.worker-<k>.json\n"
        "  --stats-out <f>     serve.* stats JSON on shutdown\n"
        "critics_cli submit [options]  submit a sweep to a daemon and\n"
        "                      stream its progress events\n"
        "  --host/--port/--port-file   daemon address\n"
        "  --apps/--variants/--insts/--batch/--refresh   as `run`\n"
        "  --no-wait           print the job id and return\n"
        "critics_cli status <job> [--host ...] one-line job state\n"
        "critics_cli wait <job> [--host ...]   stream events until\n"
        "                      done; exit 1 if any job failed\n"
        "critics_cli top [options]     live daemon monitor: queue\n"
        "                      depth, warm-hit ratio, job-latency\n"
        "                      percentiles, worker states\n"
        "  --host/--port/--port-file   daemon address\n"
        "  --interval <sec>    refresh period (default 2)\n"
        "  --once              print one snapshot and exit\n"
        "critics_cli prof report <file> [--top <n>]\n"
        "                      pretty-print a --profile report\n\n"
        "critics_cli --app <name> --variant <name> [--insts n]\n"
        "                      [--json] [--stats-interval n]\n"
        "                      [--stats-out f] [--trace-out f]\n"
        "                      single run (legacy); --trace-out here\n"
        "                      traces the CPU pipeline stages\n"
        "critics_cli --list    list registered apps\n\n"
        "  variants: baseline|hoist|critic|critic-ideal|\n"
        "            critic-branchpair|opp16|compress|opp16+critic|\n"
        "            prefetch|aluprio|backendprio|efetch|perfectbr|\n"
        "            icache4x|2xfd|allhw\n");
    return 2;
}

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
cmdDiff(int argc, char **argv)
{
    stats::DiffOptions opt;
    std::string storePath;
    std::vector<std::string> paths;

    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                critics_fatal(arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--rel") {
            opt.relThreshold = doubleFlag(arg, next());
        } else if (arg == "--abs") {
            opt.absThreshold = doubleFlag(arg, next());
        } else if (arg == "--store") {
            storePath = next();
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.size() != 2)
        return usage();
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
cmdLint(int argc, char **argv)
{
    std::string appsArg = "mobile";
    std::string variantsArg = "all";
    std::uint64_t insts = 400000;
    unsigned minRun = 3;
    bool withTrace = false;
    std::string outPath = "lint_report.json";

    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                critics_fatal(arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--apps") {
            appsArg = next();
        } else if (arg == "--variants") {
            variantsArg = next();
        } else if (arg == "--insts") {
            insts = uintFlag(arg, next());
        } else if (arg == "--min-run") {
            minRun = static_cast<unsigned>(uintFlag(arg, next(), UINT_MAX));
        } else if (arg == "--trace") {
            withTrace = true;
        } else if (arg == "--out") {
            outPath = next();
        } else {
            return usage();
        }
    }

    const auto apps = parseApps(appsArg);
    std::vector<std::string> variantNames;
    if (variantsArg == "all")
        variantNames = sim::allVariantNames();
    else
        variantNames = splitList(variantsArg);
    if (variantNames.empty())
        critics_fatal("--variants needs at least one variant");

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
        for (const auto &name : variantNames) {
            const sim::Variant variant = parseVariant(name);
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
                apps.size(), variantNames.size(), totalErrors,
                totalWarnings, totalAdvice,
                totalAdvice == 1 ? "y" : "ies", outPath.c_str());
    return totalErrors > 0 ? 1 : 0;
}

// ---------------------------------------------------------------------------
// bench: the tracked simulator microbenchmark.

/** One stage's timings across repetitions. */
struct StageSamples
{
    std::vector<double> instsPerSec; ///< one entry per repetition

    double
    median() const
    {
        if (instsPerSec.empty())
            return 0.0;
        std::vector<double> sorted = instsPerSec;
        std::sort(sorted.begin(), sorted.end());
        return sorted[sorted.size() / 2];
    }
};

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Median insts/s of one stage of the last measurement in a
 *  BENCH_sim.json document; 0 when absent/unreadable. */
double
lastStageRate(const json::JsonValue &doc, const char *stage,
              std::string *label)
{
    const json::JsonValue *ms = doc.find("measurements");
    if (ms == nullptr || !ms->isArray() || ms->elements.empty())
        return 0.0;
    const json::JsonValue &last = ms->elements.back();
    if (label != nullptr) {
        if (const auto *l = last.find("label"))
            *label = l->asString().value_or("");
    }
    const json::JsonValue *stages = last.find("stages");
    if (stages == nullptr)
        return 0.0;
    const json::JsonValue *s = stages->find(stage);
    if (s == nullptr)
        return 0.0;
    if (const auto *rate = s->find("medianInstsPerSec"))
        return rate->asDouble().value_or(0.0);
    return 0.0;
}

int
cmdBench(int argc, char **argv)
{
    bool quick = false;
    std::string appsArg, variantsArg, label, baselinePath;
    std::string profilePath;
    std::string outPath = "BENCH_sim.json";
    std::uint64_t insts = 0;
    unsigned reps = 0;

    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                critics_fatal(arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--apps") {
            appsArg = next();
        } else if (arg == "--variants") {
            variantsArg = next();
        } else if (arg == "--insts") {
            insts = uintFlag(arg, next());
        } else if (arg == "--reps") {
            reps = static_cast<unsigned>(uintFlag(arg, next(), UINT_MAX));
        } else if (arg == "--label") {
            label = next();
        } else if (arg == "--out") {
            outPath = next();
        } else if (arg == "--baseline") {
            baselinePath = next();
        } else if (arg == "--profile") {
            profilePath = next();
        } else {
            return usage();
        }
    }

    // The fixed matrix: stable across releases so the recorded
    // trajectory stays comparable.  --quick shrinks it for CI smoke.
    if (appsArg.empty())
        appsArg = quick ? "Acrobat,Office" : "Acrobat,Angrybirds,Office,Browser";
    if (variantsArg.empty())
        variantsArg = quick ? "baseline,critic" : "baseline,critic,opp16,allhw";
    if (insts == 0)
        insts = quick ? 150000 : 400000;
    if (reps == 0)
        reps = quick ? 3 : 5;
    if (label.empty())
        label = quick ? "quick" : "full";

    const auto apps = parseApps(appsArg);
    std::vector<sim::Variant> variants;
    for (const auto &name : splitList(variantsArg))
        variants.push_back(parseVariant(name));
    if (variants.empty())
        critics_fatal("--variants needs at least one variant");

    sim::ExperimentOptions expOptions;
    expOptions.traceInsts = insts;

    // One experiment per app, built untimed: synthesis and the control
    // walk are one-time costs the paper sweeps never repeat.
    std::vector<std::unique_ptr<sim::AppExperiment>> exps;
    std::uint64_t matrixInsts = 0;
    for (const auto &profile : apps) {
        exps.push_back(
            std::make_unique<sim::AppExperiment>(profile, expOptions));
        matrixInsts += exps.back()->baseTrace().size();
    }

    // --profile: sample the timed stages (construction above is the
    // one-time untimed cost).  The explicit StageScopes below mirror
    // the bench's own stage split, because stage 2 calls the analysis
    // passes directly rather than through AppExperiment's accessors.
    obs::SamplingProfiler profiler;
    if (!profilePath.empty() && !profiler.start())
        profilePath.clear();

    StageSamples emitStage, analyzeStage, simulateStage;
    for (unsigned rep = 0; rep < reps; ++rep) {
        // Stage 1: trace emission (the per-variant re-emission cost).
        auto t0 = std::chrono::steady_clock::now();
        {
            obs::StageScope stage(obs::Stage::Emit);
            for (const auto &exp : exps) {
                const program::Trace trace = program::emitTrace(
                    exp->baseProgram(), exp->path());
                critics_assert(trace.size() > 0, "empty bench trace");
            }
        }
        emitStage.instsPerSec.push_back(
            static_cast<double>(matrixInsts) / secondsSince(t0));

        // Stage 2: offline criticality analysis (fanout, chains,
        // mining), always from scratch so result caching cannot hide
        // cost.  The per-app location table IS shared across reps —
        // it indexes the static program, not the dynamic stream, and
        // AppExperiment likewise builds one and shares it across all
        // minedAt() calls, so rebuilding it per rep would bill the
        // pipeline for work production never repeats.
        t0 = std::chrono::steady_clock::now();
        {
            obs::StageScope stage(obs::Stage::Analyze);
            for (const auto &exp : exps) {
                const auto fanout = analysis::computeFanout(
                    exp->baseTrace(), expOptions.crit);
                const auto chains = analysis::extractChains(
                    exp->baseTrace(), fanout, expOptions.crit);
                const analysis::LocTable *locs =
                    analysis::flatAnalyzeEnabled()
                        ? &exp->locTable() : nullptr;
                const auto mined = analysis::mineCritIcs(
                    exp->baseTrace(), exp->baseProgram(), chains,
                    fanout, expOptions.crit,
                    expOptions.profileFraction, locs);
                critics_assert(!mined.chains.empty() || true,
                               "unused");
            }
        }
        analyzeStage.instsPerSec.push_back(
            static_cast<double>(matrixInsts) / secondsSince(t0));

        // Stage 3: the simulate-one-job path, exactly as the runner
        // drives it (transform + re-emission/memo + pipeline model).
        t0 = std::chrono::steady_clock::now();
        std::uint64_t simInsts = 0;
        for (const auto &exp : exps) {
            for (const auto &variant : variants) {
                const auto result = exp->run(variant);
                critics_assert(result.cpu.cycles > 0, "empty run");
                simInsts += exp->baseTrace().size();
            }
        }
        simulateStage.instsPerSec.push_back(
            static_cast<double>(simInsts) / secondsSince(t0));
    }

    if (!profilePath.empty()) {
        profiler.stop();
        const std::string report = profiler.reportJson();
        if (profiler.writeReport(profilePath))
            std::printf("profile: %s\n", profilePath.c_str());
        obs::printProfileReport(report);
    }

    // ---- Report ------------------------------------------------------
    Table table({"stage", "median insts/s", "min", "max"});
    auto addRow = [&](const char *name, const StageSamples &s) {
        const auto [lo, hi] = std::minmax_element(
            s.instsPerSec.begin(), s.instsPerSec.end());
        table.addRow({name, fmt(s.median(), 0), fmt(*lo, 0),
                      fmt(*hi, 0)});
    };
    addRow("emit", emitStage);
    addRow("analyze", analyzeStage);
    addRow("simulate", simulateStage);
    std::printf("%s\n", table.render().c_str());

    // ---- Persist the trajectory --------------------------------------
    // BENCH_sim.json accumulates measurements; the newest is appended
    // so the perf history of the simulator is recorded in-tree.
    double prevRate = 0.0;
    std::string prevLabel;

    json::JsonWriter w;
    w.beginObject();
    w.field("schema", 1);
    w.field("tool", "critics_cli bench");
    w.beginArray("measurements");

    // Copy prior measurements structurally (the writer re-serializes
    // the parsed document, then the new entry is appended).
    std::function<void(const json::JsonValue &, const char *)>
        copyMember;
    copyMember = [&](const json::JsonValue &v, const char *key) {
        switch (v.kind) {
          case json::JsonValue::Kind::Object:
            if (key)
                w.beginObject(key);
            else
                w.elementObject();
            for (const auto &[k, member] : v.members)
                copyMember(member, k.c_str());
            w.endObject();
            break;
          case json::JsonValue::Kind::Array:
            w.beginArray(key);
            for (const auto &el : v.elements)
                copyMember(el, nullptr);
            w.endArray();
            break;
          case json::JsonValue::Kind::String:
            if (key)
                w.field(key, v.text);
            else
                w.element(v.text);
            break;
          case json::JsonValue::Kind::Number:
            // Preserve the original spelling via a raw double/uint.
            if (v.text.find_first_of(".eE") == std::string::npos) {
                if (key)
                    w.field(key, v.asUint().value_or(0));
                else
                    w.element(static_cast<double>(
                        v.asDouble().value_or(0.0)));
            } else {
                if (key)
                    w.fieldReadable(key, v.asDouble().value_or(0.0));
                else
                    w.element(v.asDouble().value_or(0.0));
            }
            break;
          case json::JsonValue::Kind::Bool:
            if (key)
                w.field(key, v.boolean);
            break;
          case json::JsonValue::Kind::Null:
            break;
        }
    };
    // Snapshot the baseline before appending, so --out and --baseline
    // may name the same file (the new measurement never compares
    // against itself).
    std::string baselineText;
    if (!baselinePath.empty()) {
        std::ifstream in(baselinePath);
        if (in)
            baselineText.assign((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
    }
    {
        std::ifstream in(outPath);
        if (in) {
            const std::string text(
                (std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
            if (const auto doc = json::parseJson(text)) {
                prevRate = lastStageRate(*doc, "simulate", &prevLabel);
                if (const auto *ms = doc->find("measurements");
                    ms != nullptr && ms->isArray()) {
                    for (const auto &m : ms->elements)
                        copyMember(m, nullptr);
                }
            }
        }
    }

    w.elementObject();
    w.field("label", label);
    w.field("git", runner::gitDescribe());
    w.field("quick", quick);
    w.field("analyzePath",
            analysis::flatAnalyzeEnabled() ? "flat" : "legacy");
    w.field("apps", appsArg);
    w.field("variants", variantsArg);
    w.field("insts", insts);
    w.field("reps", reps);
    w.beginObject("stages");
    auto writeStage = [&](const char *name, const StageSamples &s) {
        w.beginObject(name);
        w.fieldReadable("medianInstsPerSec", s.median());
        w.beginArray("perRep");
        for (const double r : s.instsPerSec)
            w.element(r);
        w.endArray();
        w.endObject();
    };
    writeStage("emit", emitStage);
    writeStage("analyze", analyzeStage);
    writeStage("simulate", simulateStage);
    w.endObject();
    w.endObject();
    w.endArray();
    w.endObject();

    std::ofstream out(outPath, std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
        return 2;
    }
    out << w.str() << "\n";
    std::printf("bench: %s (%s, %u rep(s), %s insts/app)\n",
                outPath.c_str(), label.c_str(), reps,
                fmt(double(insts), 0).c_str());

    // Delta against the previous in-file measurement, and optionally
    // against a committed baseline file (CI's non-gating perf-smoke).
    const double nowRate = simulateStage.median();
    if (prevRate > 0.0) {
        std::printf("simulate: %s insts/s vs %s insts/s (%s) -> %.2fx\n",
                    fmt(nowRate, 0).c_str(), fmt(prevRate, 0).c_str(),
                    prevLabel.c_str(), nowRate / prevRate);
    }
    if (!baselinePath.empty()) {
        if (!baselineText.empty()) {
            const std::string &text = baselineText;
            std::string baseLabel;
            bool any = false;
            if (const auto doc = json::parseJson(text)) {
                const struct
                {
                    const char *name;
                    const StageSamples *samples;
                } deltas[] = {{"emit", &emitStage},
                              {"analyze", &analyzeStage},
                              {"simulate", &simulateStage}};
                for (const auto &d : deltas) {
                    const double baseRate =
                        lastStageRate(*doc, d.name, &baseLabel);
                    if (baseRate <= 0.0)
                        continue;
                    any = true;
                    std::printf(
                        "%-8s vs baseline %s (%s): %.2fx\n", d.name,
                        baselinePath.c_str(), baseLabel.c_str(),
                        d.samples->median() / baseRate);
                }
            }
            if (!any) {
                std::printf("baseline %s: no stage rates found\n",
                            baselinePath.c_str());
            }
        } else {
            std::printf("baseline %s: unreadable\n",
                        baselinePath.c_str());
        }
    }
    return 0;
}

int
cmdRun(int argc, char **argv)
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

    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                critics_fatal(arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--apps") {
            appsArg = next();
        } else if (arg == "--variants") {
            variantsArg = next();
        } else if (arg == "--insts") {
            insts = uintFlag(arg, next());
        } else if (arg == "--batch") {
            batchName = next();
        } else if (arg == "--no-cache") {
            options.useCache = false;
        } else if (arg == "--refresh") {
            options.refresh = true;
        } else if (arg == "--shard") {
            const std::string value = next();
            const auto parsed = runner::ShardSpec::parse(value);
            if (!parsed) {
                critics_fatal("--shard wants K/N with 1 <= K <= N, "
                              "got '", value, "'");
            }
            options.shard = *parsed;
        } else if (arg == "--cache-file") {
            options.cachePath = next();
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--stats-interval") {
            statsInterval = uintFlag(arg, next());
        } else if (arg == "--stats-out") {
            statsOut = next();
        } else if (arg == "--trace-out") {
            traceOut = next();
        } else if (arg == "--profile") {
            profilePath = next();
        } else {
            return usage();
        }
    }

    const auto apps = parseApps(appsArg);
    // `all` expands to every variant, as in lint — the analyze-drift
    // CI sweep runs the complete matrix.
    std::vector<std::string> variantNames;
    if (variantsArg == "all")
        variantNames = sim::allVariantNames();
    else
        variantNames = splitList(variantsArg);
    std::vector<sim::Variant> variants;
    for (const auto &name : variantNames)
        variants.push_back(parseVariant(name));
    if (variants.empty())
        critics_fatal("--variants needs at least one variant");

    // Each shard appends to its own disjoint store; `cache merge`
    // folds them back into the shared one.
    if (options.shard.enabled() && options.cachePath.empty()) {
        options.cachePath =
            runner::shardStorePath(runner::cacheDir(), options.shard);
    }

    sim::ExperimentOptions expOptions;
    expOptions.traceInsts = insts;

    stats::TraceEventWriter trace;
    if (!traceOut.empty()) {
        options.trace = &trace;
        // Route the pipeline's StageScope spans into the same writer.
        // Both clocks are CLOCK_MONOTONIC; re-basing on an epoch taken
        // here puts the stage spans on the runner's 0-based timeline,
        // nested under the job spans of the same pool thread.
        const std::uint64_t epochUs = obs::monotonicMicros();
        obs::setSpanSink([&trace, epochUs](const obs::SpanRecord &s) {
            trace.complete(s.name, s.category,
                           s.startUs > epochUs ? s.startUs - epochUs
                                               : 0,
                           s.durUs, 0, trace.tidForCurrentThread());
        });
    }

    // Interval sampling rides the executor: each simulated job runs
    // with its own series (cache hits never execute, so they produce
    // no rows) and appends its JSONL under the batch lock.
    std::mutex statsLock;
    std::string statsJsonl;
    if (statsInterval > 0) {
        options.executor = [&statsLock, &statsJsonl, statsInterval](
                               const runner::JobSpec &spec,
                               sim::AppExperiment &experiment) {
            sim::RunHooks hooks;
            stats::IntervalSeries series;
            hooks.statsInterval = statsInterval;
            hooks.intervals = &series;
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
    } else if (options.shard.enabled()) {
        // A shard holds an arbitrary slice of the grid, so the
        // apps × variants speedup table cannot be filled in; list
        // the owned jobs instead and leave comparisons to a
        // post-merge `critics_cli diff`/report.
        for (std::size_t i = 0; i < batch.jobs.size(); ++i) {
            const auto &job = batch.jobs[i];
            const auto &outcome = batch.outcomes[i];
            std::printf("%-12s %-16s %s\n", job.profile.name.c_str(),
                        job.variant.label.c_str(),
                        outcome.ok
                            ? (fmt(double(outcome.result.cpu.cycles),
                                   0) + " cyc").c_str()
                            : "FAILED");
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

int
cmdReport(int argc, char **argv)
{
    std::vector<std::string> paths;
    for (int i = 0; i < argc; ++i)
        paths.emplace_back(argv[i]);
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

/** `flag`'s value "900", "900s", "15m", "12h" or "30d" → seconds. */
std::uint64_t
parseDuration(const std::string &flag, const std::string &text)
{
    std::uint64_t scale = 1;
    std::string digits = text;
    switch (text.empty() ? '\0' : text.back()) {
      case 'd': scale = 86400; digits.pop_back(); break;
      case 'h': scale = 3600; digits.pop_back(); break;
      case 'm': scale = 60; digits.pop_back(); break;
      case 's': scale = 1; digits.pop_back(); break;
      default: break;
    }
    const auto value = parseUint(digits, kUintMax / scale);
    if (!value) {
        critics_fatal(flag, " wants a duration like 900, 900s, 15m, ",
                      "12h or 30d, got '", text, "'");
    }
    return *value * scale;
}

/** `flag`'s value "65536", "512K", "512M" or "2G" → bytes. */
std::uintmax_t
parseBytes(const std::string &flag, const std::string &text)
{
    std::uintmax_t scale = 1;
    std::string digits = text;
    switch (text.empty() ? '\0' : text.back()) {
      case 'K': case 'k': scale = 1024ull; digits.pop_back(); break;
      case 'M': case 'm': scale = 1024ull << 10; digits.pop_back(); break;
      case 'G': case 'g': scale = 1024ull << 20; digits.pop_back(); break;
      default: break;
    }
    const auto value = parseUint(digits, kUintMax / scale);
    if (!value) {
        critics_fatal(flag, " wants a size like 65536, 512K, 512M or ",
                      "2G, got '", text, "'");
    }
    return *value * scale;
}

int
cmdCacheMerge(int argc, char **argv)
{
    std::vector<std::string> paths;
    for (int i = 0; i < argc; ++i)
        paths.emplace_back(argv[i]);
    if (paths.size() < 2) {
        std::fprintf(stderr,
                     "cache merge wants <out> <in...> (one output, at "
                     "least one input)\n");
        return 2;
    }
    const std::string out = paths.front();
    paths.erase(paths.begin());
    const auto stats = runner::mergeStores(out, paths);
    if (!stats) {
        std::fprintf(stderr, "cache merge failed\n");
        return 1;
    }
    std::printf("merged %zu store(s) -> %s\n  %s\n", stats->filesRead,
                out.c_str(), stats->summary().c_str());
    return 0;
}

int
cmdCacheCompact(int argc, char **argv)
{
    const std::string path = argc > 0
        ? argv[0] : runner::cacheDir() + "/results.jsonl";
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
cmdCacheGc(int argc, char **argv)
{
    runner::GcOptions opt;
    std::string path;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                critics_fatal(arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--max-age") {
            opt.maxAgeSeconds = parseDuration(arg, next());
        } else if (arg == "--max-bytes") {
            opt.maxBytes = parseBytes(arg, next());
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            path = arg;
        }
    }
    if (opt.maxAgeSeconds == 0 && opt.maxBytes == 0) {
        std::fprintf(stderr,
                     "cache gc wants --max-age and/or --max-bytes\n");
        return 2;
    }
    if (path.empty())
        path = runner::cacheDir() + "/results.jsonl";
    const auto stats = runner::gcStore(path, opt);
    if (!stats) {
        std::fprintf(stderr, "cache gc failed for %s\n", path.c_str());
        return 1;
    }
    std::printf("gc %s\n  %s\n", path.c_str(),
                stats->summary().c_str());
    return 0;
}

int
cmdCache(int argc, char **argv)
{
    const std::string action = argc > 0 ? argv[0] : "stats";
    if (action == "merge")
        return cmdCacheMerge(argc - 1, argv + 1);
    if (action == "compact")
        return cmdCacheCompact(argc - 1, argv + 1);
    if (action == "gc")
        return cmdCacheGc(argc - 1, argv + 1);
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
    return usage();
}

// ---------------------------------------------------------------------------
// serve / submit / status / wait: simulation as a service.

/** Atomic so the install/clear in cmdServe and the read in the signal
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

/** --port / --port-file → a port number; 0 when neither resolves. */
unsigned short
resolvePort(const std::string &portArg, const std::string &portFile)
{
    if (!portArg.empty())
        return static_cast<unsigned short>(
            uintFlag("--port", portArg, 65535));
    if (!portFile.empty()) {
        std::ifstream in(portFile);
        unsigned port = 0;
        if (in >> port)
            return static_cast<unsigned short>(port);
    }
    return 0;
}

bool
connectDaemon(serve::ServeClient &client, const std::string &host,
              const std::string &portArg, const std::string &portFile)
{
    const unsigned short port = resolvePort(portArg, portFile);
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
cmdServe(int argc, char **argv)
{
    serve::ServerOptions options;
    std::string traceOut, statsOut;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                critics_fatal(arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--host") {
            options.host = next();
        } else if (arg == "--port") {
            options.port = static_cast<unsigned short>(
                uintFlag(arg, next(), 65535));
        } else if (arg == "--port-file") {
            options.portFile = next();
        } else if (arg == "--workers") {
            options.workers =
                static_cast<unsigned>(uintFlag(arg, next(), UINT_MAX));
        } else if (arg == "--max-restarts") {
            options.maxRestarts =
                static_cast<unsigned>(uintFlag(arg, next(), UINT_MAX));
        } else if (arg == "--attempts") {
            options.maxAttempts =
                static_cast<unsigned>(uintFlag(arg, next(), UINT_MAX));
        } else if (arg == "--cache-file") {
            options.cachePath = next();
        } else if (arg == "--trace-out") {
            traceOut = next();
        } else if (arg == "--profile-dir") {
            options.profileDir = next();
        } else if (arg == "--stats-out") {
            statsOut = next();
        } else {
            return usage();
        }
    }
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
cmdSubmit(int argc, char **argv)
{
    std::string host = "127.0.0.1", portArg, portFile;
    bool noWait = false;
    serve::Request request;
    request.op = serve::Request::Op::Submit;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                critics_fatal(arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--host") {
            host = next();
        } else if (arg == "--port") {
            portArg = next();
        } else if (arg == "--port-file") {
            portFile = next();
        } else if (arg == "--apps") {
            request.submit.apps = next();
        } else if (arg == "--variants") {
            request.submit.variants = next();
        } else if (arg == "--insts") {
            request.submit.insts = uintFlag(arg, next());
        } else if (arg == "--batch") {
            request.submit.batch = next();
        } else if (arg == "--refresh") {
            request.submit.refresh = true;
        } else if (arg == "--sleep-ms") {
            request.submit.sleepMs = uintFlag(arg, next());
        } else if (arg == "--no-wait") {
            noWait = true;
        } else {
            return usage();
        }
    }

    serve::ServeClient client;
    if (!connectDaemon(client, host, portArg, portFile))
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
cmdStatus(int argc, char **argv)
{
    std::string host = "127.0.0.1", portArg, portFile, jobId;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                critics_fatal(arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--host") {
            host = next();
        } else if (arg == "--port") {
            portArg = next();
        } else if (arg == "--port-file") {
            portFile = next();
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            jobId = arg;
        }
    }
    if (jobId.empty()) {
        std::fprintf(stderr, "status wants a job id (serve-<n>)\n");
        return 2;
    }
    serve::ServeClient client;
    if (!connectDaemon(client, host, portArg, portFile))
        return 1;
    serve::Request request;
    request.op = serve::Request::Op::Status;
    request.job = jobId;
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
cmdWait(int argc, char **argv)
{
    std::string host = "127.0.0.1", portArg, portFile, jobId;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                critics_fatal(arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--host") {
            host = next();
        } else if (arg == "--port") {
            portArg = next();
        } else if (arg == "--port-file") {
            portFile = next();
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            jobId = arg;
        }
    }
    if (jobId.empty()) {
        std::fprintf(stderr, "wait wants a job id (serve-<n>)\n");
        return 2;
    }
    serve::ServeClient client;
    if (!connectDaemon(client, host, portArg, portFile))
        return 1;
    return streamJob(client, jobId);
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
cmdTop(int argc, char **argv)
{
    std::string host = "127.0.0.1", portArg, portFile;
    double interval = 2.0;
    bool once = false;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                critics_fatal(arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--host") {
            host = next();
        } else if (arg == "--port") {
            portArg = next();
        } else if (arg == "--port-file") {
            portFile = next();
        } else if (arg == "--interval") {
            interval = doubleFlag(arg, next());
        } else if (arg == "--once") {
            once = true;
        } else {
            return usage();
        }
    }
    if (interval <= 0.0)
        interval = 2.0;

    serve::ServeClient client;
    if (!connectDaemon(client, host, portArg, portFile))
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
        std::printf("critics serve @ %s — up %s\n", host.c_str(),
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
cmdProf(int argc, char **argv)
{
    if (argc < 1 || std::string(argv[0]) != "report")
        return usage();
    std::string path;
    std::size_t topN = 20;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--top") {
            if (i + 1 >= argc)
                critics_fatal("--top needs a value");
            topN = uintFlag(arg, argv[++i]);
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            path = arg;
        }
    }
    if (path.empty()) {
        std::fprintf(stderr,
                     "prof report wants a --profile JSON file\n");
        return 2;
    }
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot read %s\n", path.c_str());
        return 1;
    }
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    return obs::printProfileReport(text, topN) ? 0 : 1;
}

int
legacySingleRun(int argc, char **argv)
{
    std::string app = "Acrobat";
    std::string variantName = "critic";
    std::uint64_t insts = 400000;
    std::uint64_t statsInterval = 0;
    std::string statsOut = "stats_single.jsonl";
    std::string traceOut;
    bool json = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                critics_fatal(arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--app") {
            app = next();
        } else if (arg == "--variant") {
            variantName = next();
        } else if (arg == "--insts") {
            insts = uintFlag(arg, next());
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--stats-interval") {
            statsInterval = uintFlag(arg, next());
        } else if (arg == "--stats-out") {
            statsOut = next();
        } else if (arg == "--trace-out") {
            traceOut = next();
        } else if (arg == "--list") {
            for (const auto &profile : workload::allApps()) {
                std::printf("%-12s %-10s %s\n", profile.name.c_str(),
                            workload::suiteName(profile.suite),
                            profile.activity.c_str());
            }
            return 0;
        } else {
            return usage();
        }
    }

    sim::ExperimentOptions options;
    options.traceInsts = insts;
    sim::AppExperiment exp(workload::findApp(app), options);
    const sim::Variant variant = parseVariant(variantName);
    const auto &base = exp.baseline();

    sim::RunHooks hooks;
    stats::IntervalSeries series;
    stats::TraceEventWriter trace;
    hooks.statsInterval = statsInterval;
    if (statsInterval > 0)
        hooks.intervals = &series;
    if (!traceOut.empty())
        hooks.trace = &trace;
    const auto result = exp.run(variant, hooks);

    if (statsInterval > 0) {
        std::ofstream out(statsOut, std::ios::trunc);
        out << series.toJsonl(app + "/" + variantName);
        std::fprintf(stderr, "stats: %s (%zu rows)\n",
                     statsOut.c_str(), series.size());
    }
    if (!traceOut.empty() && trace.writeTo(traceOut)) {
        std::fprintf(stderr, "trace: %s (%zu events)\n",
                     traceOut.c_str(), trace.size());
    }

    if (json) {
        std::printf("%s\n",
                    sim::comparisonJson(base, result, variantName)
                        .c_str());
        return 0;
    }

    Table table({"metric", "baseline", variantName});
    table.addRow({"cycles", fmt(double(base.cpu.cycles), 0),
                  fmt(double(result.cpu.cycles), 0)});
    table.addRow({"IPC", fmt(base.cpu.ipc()), fmt(result.cpu.ipc())});
    table.addRow({"F.StallForI", pct(base.cpu.fracStallForI()),
                  pct(result.cpu.fracStallForI())});
    table.addRow({"F.StallForR+D", pct(base.cpu.fracStallForRd()),
                  pct(result.cpu.fracStallForRd())});
    table.addRow({"dyn 16-bit", pct(base.dynThumbFraction),
                  pct(result.dynThumbFraction)});
    table.addRow({"SoC energy (norm.)", fmt(1.0),
                  fmt(result.energy.total() / base.energy.total(), 4)});
    std::printf("%s (%s) under '%s'\n%s\nspeedup: %s\n",
                app.c_str(),
                workload::suiteName(exp.profile().suite),
                variantName.c_str(), table.render().c_str(),
                gainPct(exp.speedup(result)).c_str());
    return 0;
}

} // namespace

int
run(int argc, char **argv)
{
    setQuiet(true);
    if (argc > 1) {
        const std::string command = argv[1];
        if (command == "run")
            return cmdRun(argc - 2, argv + 2);
        if (command == "bench")
            return cmdBench(argc - 2, argv + 2);
        if (command == "report")
            return cmdReport(argc - 2, argv + 2);
        if (command == "cache")
            return cmdCache(argc - 2, argv + 2);
        if (command == "diff")
            return cmdDiff(argc - 2, argv + 2);
        if (command == "lint")
            return cmdLint(argc - 2, argv + 2);
        if (command == "serve")
            return cmdServe(argc - 2, argv + 2);
        if (command == "serve-worker")
            return serve::serveWorkerMain(argc - 2, argv + 2);
        if (command == "submit")
            return cmdSubmit(argc - 2, argv + 2);
        if (command == "status")
            return cmdStatus(argc - 2, argv + 2);
        if (command == "wait")
            return cmdWait(argc - 2, argv + 2);
        if (command == "top")
            return cmdTop(argc - 2, argv + 2);
        if (command == "prof")
            return cmdProf(argc - 2, argv + 2);
        if (command == "--help" || command == "-h" ||
            command == "help") {
            usage();
            return 0;
        }
    }
    return legacySingleRun(argc, argv);
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
