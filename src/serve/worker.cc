#include "serve/worker.hh"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

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

/** The experiment a worker carries from one batch to the next (see
 *  worker.hh). */
struct KeptExperiment
{
    std::string key; ///< its JobSpec::appKey()
    std::shared_ptr<sim::AppExperiment> experiment;
};

/** Run the jobs of one batch line and account for each of them on
 *  stdout; false (with *error set) when the line names an unknown app
 *  or variant. */
bool
runBatch(const WorkerBatch &line, unsigned maxAttempts,
         KeptExperiment &kept, std::string *error)
{
    const auto apps = sim::tryParseApps(line.apps, error);
    if (!apps)
        return false;
    const auto variants = sim::tryParseVariants(line.variants, error);
    if (!variants)
        return false;

    const std::unordered_set<std::string> owned(line.hashes.begin(),
                                                line.hashes.end());
    sim::ExperimentOptions expOptions;
    expOptions.traceInsts = line.insts;
    std::vector<runner::JobSpec> jobs;
    for (auto &spec : runner::makeGrid(*apps, *variants, expOptions)) {
        if (owned.count(spec.hashHex()) > 0)
            jobs.push_back(std::move(spec));
    }

    // Reuse the kept experiment for jobs of its own key; otherwise free
    // it before this batch builds its own.
    const runner::JobSpec *reuse = nullptr;
    for (const auto &spec : jobs) {
        if (spec.appKey() == kept.key) {
            reuse = &spec;
            break;
        }
    }
    if (reuse == nullptr)
        kept = KeptExperiment();

    // A trace id: every StageScope — the Runner's phase and job spans
    // and the pipeline's stage spans — streams a span event up the
    // stdout channel, tagged with the batch's trace context; the
    // server stitches them under this worker's pid.
    if (!line.traceId.empty()) {
        obs::setSpanSink([traceId = line.traceId](
                             const obs::SpanRecord &span) {
            emitLine(obs::renderSpanEvent(span, traceId));
        });
    }
    obs::SamplingProfiler profiler;
    if (!line.profile.empty())
        profiler.start();

    // The daemon is the store's only writer: a worker reads no store
    // and sends each result up on its job event.
    runner::RunnerOptions options;
    options.useCache = false;
    options.maxAttempts = maxAttempts;
    options.progress = false;
    // The supervisor's event stream is the record of this shard; a run
    // manifest in the shared cache dir would just accumulate.
    options.writeManifest = false;
    // The batch's last app is the one whose experiment is kept: the
    // Runner reaches it after the batch's other apps, whose experiments
    // it frees as they finish.
    const std::string lastKey = jobs.empty() ? "" : jobs.back().appKey();
    std::mutex keptLock;
    options.executor = [&, sleepMs = line.sleepMs](
                           const runner::JobSpec &spec,
                           sim::AppExperiment &experiment) {
        if (spec.appKey() == lastKey) {
            std::lock_guard<std::mutex> guard(keptLock);
            if (kept.experiment.get() != &experiment)
                kept = KeptExperiment{lastKey, experiment.shared_from_this()};
        }
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
        event.result = result;
        emitLine(renderJobEvent(event));
        return result;
    };

    runner::Runner runner(options);
    if (reuse != nullptr)
        runner.pin(*reuse, kept.experiment);
    const auto result = runner.run(line.batch, jobs);
    // Between batches the kept experiment holds its offline profile
    // only, no more than a fresh worker would build.
    if (kept.experiment)
        kept.experiment->dropTransforms();

    if (profiler.running()) {
        profiler.stop();
        profiler.writeReport(line.profile);
    }
    obs::setSpanSink(nullptr);

    // Successes streamed live from the executor; account for the
    // failures (attempts used up) here.
    for (std::size_t i = 0; i < result.jobs.size(); ++i) {
        const auto &outcome = result.outcomes[i];
        if (outcome.ok)
            continue;
        JobEvent event = eventOf(result.jobs[i]);
        event.error = outcome.error;
        emitLine(renderJobEvent(event));
    }
    emitLine(renderShardDone());
    return true;
}

} // namespace

int
serveWorkerMain(int argc, char **argv)
{
    unsigned maxAttempts = 2;
    auto bad = [](const std::string &what) {
        std::fprintf(stderr, "serve-worker: %s\n", what.c_str());
        return 2;
    };
    const FlagTable table{
        "critics_cli serve-worker [options]",
        "one long-lived worker of a serve daemon (started by serve): "
        "runs each batch line read on stdin, exits when stdin closes",
        {Flag::integer("--attempts", "<n>", "per-job attempt budget",
                       maxAttempts)}};
    std::string why;
    if (!table.parse(argc, argv, nullptr, &why)) {
        bad(why);
        std::fputs(table.help().c_str(), stderr);
        return 2;
    }

#if defined(__GLIBC__)
    // A long-lived worker frees one experiment's large arrays and
    // builds the next.  glibc raises its mmap threshold to the largest
    // block freed, so later large arrays come from the heap, which
    // fragments and does not shrink (a serve_mixed run peaked 5 MB
    // higher).  Pinning the threshold at glibc's default keeps them
    // mmapped, so each goes back to the OS when freed.
    ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif

    KeptExperiment kept;
    LineReader lines;
    char buf[4096];
    for (;;) {
        const ssize_t got = ::read(STDIN_FILENO, buf, sizeof(buf));
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            return 0; // the daemon closed our stdin, or died
        lines.feed(buf, static_cast<std::size_t>(got));
        while (const auto line = lines.nextLine()) {
            std::string error;
            const auto batch = parseWorkerBatch(*line, &error);
            if (!batch || !runBatch(*batch, maxAttempts, kept, &error))
                return bad(error);
        }
        if (lines.overflowed()) {
            return bad("batch line longer than " +
                       std::to_string(kMaxLineBytes) + " bytes");
        }
    }
}

} // namespace critics::serve
