#include "serve/worker.hh"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "obs/obs.hh"
#include "obs/profiler.hh"
#include "obs/span.hh"
#include "runner/orchestrator.hh"
#include "serve/protocol.hh"
#include "sim/variants.hh"
#include "support/flags.hh"

namespace critics::serve
{

namespace
{

/** stdout is the event channel: one whole line per write, flushed
 *  immediately so the supervisor sees events as jobs finish, under a
 *  mutex because the executor runs on the Runner's pool threads. */
std::mutex stdoutLock;

void
emitLine(const std::string &line)
{
    std::lock_guard<std::mutex> guard(stdoutLock);
    std::fputs(line.c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
}

JobEvent
eventOf(const runner::JobSpec &spec)
{
    JobEvent event;
    event.hash = spec.hashHex();
    event.app = spec.profile.name;
    event.variant = spec.variant.label;
    return event;
}

} // namespace

int
serveWorkerMain(int argc, char **argv)
{
    std::string batch = "serve";
    std::string appsArg, variantsArg, storePath, hashesPath;
    std::uint64_t insts = 400000;
    unsigned maxAttempts = 2;
    std::uint64_t sleepMs = 0;
    std::string traceId, profilePath;

    auto bad = [](const std::string &what) {
        std::fprintf(stderr, "serve-worker: %s\n", what.c_str());
        return 2;
    };
    const FlagTable table{
        "critics_cli serve-worker [options]",
        "one forked shard executor of a serve batch (started by serve)",
        {Flag::text("--batch", "<name>", "batch name", batch),
         Flag::text("--apps", "<list>", "the batch's apps", appsArg),
         Flag::text("--variants", "<list>", "the batch's variants",
                    variantsArg),
         Flag::integer("--insts", "<n>", "the batch's insts", insts),
         Flag::text("--store", "<file>", "this shard's result store",
                    storePath),
         Flag::text("--hashes", "<file>",
                    "job hashes this shard owns, one per line",
                    hashesPath),
         Flag::integer("--attempts", "<n>", "per-job attempt budget",
                       maxAttempts),
         Flag::integer("--sleep-ms", "<n>", "hold each simulated job",
                       sleepMs),
         Flag::text("--trace-id", "<id>",
                    "stream the Runner's and the pipeline's spans "
                    "tagged with this trace id",
                    traceId),
         Flag::text("--profile", "<file>", "write a sampling profile",
                    profilePath)}};
    std::string why;
    if (!table.parse(argc, argv, nullptr, &why)) {
        bad(why);
        std::fputs(table.help().c_str(), stderr);
        return 2;
    }
    if (appsArg.empty() || variantsArg.empty() || storePath.empty() ||
        hashesPath.empty()) {
        return bad("--apps, --variants, --store and --hashes are "
                   "required");
    }

    std::string error;
    const auto apps = sim::tryParseApps(appsArg, &error);
    if (!apps)
        return bad(error);
    const auto variants = sim::tryParseVariants(variantsArg, &error);
    if (!variants)
        return bad(error);

    std::unordered_set<std::string> owned;
    {
        std::ifstream in(hashesPath);
        if (!in)
            return bad("cannot read hash file " + hashesPath);
        std::string line;
        while (std::getline(in, line)) {
            if (!line.empty())
                owned.insert(line);
        }
    }

    sim::ExperimentOptions expOptions;
    expOptions.traceInsts = insts;
    std::vector<runner::JobSpec> jobs;
    for (auto &spec : runner::makeGrid(*apps, *variants, expOptions)) {
        if (owned.count(spec.hashHex()) > 0)
            jobs.push_back(std::move(spec));
    }

    // --trace-id: every StageScope — the Runner's phase and job spans
    // and the pipeline's stage spans — streams a span event up the
    // existing stdout channel, tagged with the batch's trace context;
    // the server stitches them under this worker's pid.
    if (!traceId.empty()) {
        obs::setSpanSink([traceId](const obs::SpanRecord &span) {
            emitLine(obs::renderSpanEvent(span, traceId));
        });
    }
    obs::SamplingProfiler profiler;
    if (!profilePath.empty())
        profiler.start();

    runner::RunnerOptions options;
    options.cachePath = storePath;
    options.maxAttempts = maxAttempts;
    options.progress = false;
    // The supervisor's event stream is the record of this shard; a run
    // manifest in the shared cache dir would just accumulate.
    options.writeManifest = false;
    options.executor = [sleepMs](const runner::JobSpec &spec,
                                 sim::AppExperiment &experiment) {
        const std::uint64_t startUs = obs::monotonicMicros();
        auto result = experiment.run(spec.variant);
        if (sleepMs > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(sleepMs));
        }
        JobEvent event = eventOf(spec);
        event.ok = true;
        event.wallSeconds = static_cast<double>(
                                obs::monotonicMicros() - startUs) /
                            1e6;
        emitLine(renderJobEvent(event));
        return result;
    };

    runner::Runner runner(options);
    const auto result = runner.run(batch, jobs);

    if (profiler.running()) {
        profiler.stop();
        profiler.writeReport(profilePath);
    }
    obs::setSpanSink(nullptr);

    // Simulated successes streamed live from the executor; account for
    // everything else (cache answers, exhausted-retry failures) here.
    // A respawned worker finds its earlier work in the shard store, so
    // this sweep is what re-emits the pre-crash events.
    ShardDone done;
    done.total = result.jobs.size();
    for (std::size_t i = 0; i < result.jobs.size(); ++i) {
        const auto &outcome = result.outcomes[i];
        if (outcome.ok && !outcome.fromCache)
            continue;
        JobEvent event = eventOf(result.jobs[i]);
        event.ok = outcome.ok;
        event.fromCache = outcome.fromCache;
        event.error = outcome.error;
        emitLine(renderJobEvent(event));
    }
    for (const auto &outcome : result.outcomes)
        done.failed += outcome.ok ? 0 : 1;
    emitLine(renderShardDone(done));
    return 0;
}

} // namespace critics::serve
