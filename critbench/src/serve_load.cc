/**
 * @file
 * serve_mixed: one `critics_cli serve` daemon driven by one in-process
 * ServeClient connection in a closed loop (the next grid is submitted
 * when the previous one is done).
 *
 * Each grid is one mobile app x 4 variants at a slot-specific
 * instruction count.  A slot (app, insts) starts with 3 of its 16
 * variants prefilled; every grid takes 1 or 2 variants the slot has
 * never run, one grid of each pair taking 1 and the other 2 in a seeded
 * order (cold: hash-sharded across the forked workers, then
 * merged into the store and reloaded) and fills the rest from variants
 * it has run (warm: answered at submit).  So the warm count of every
 * grid is known from the seed, and the store grows from its stated
 * prefill by the cold jobs of the run.
 */

#include <algorithm>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <map>
#include <poll.h>
#include <spawn.h>
#include <thread>
#include <unistd.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include "runner/result_store.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "sim/report.hh"
#include "sim/variants.hh"
#include "stats/diff.hh"
#include "stats/registry.hh"
#include "support/json.hh"
#include "support/rng.hh"
#include "workloads.hh"

extern char **environ;

namespace critbench
{

namespace
{

using namespace critics;
using runner::JobSpec;

constexpr std::uint64_t kServeInsts = 50000;
/** Enough slots (~8.7 grids each) for ~1250 grids, 1.8x what a 40 s
 *  run on the development host completes at its fastest. */
constexpr std::size_t kSlots = 144;
constexpr std::size_t kPrefillPerSlot = 3;
constexpr std::size_t kGridVariants = 4;
constexpr int kReplyTimeoutMs = 60000;
/** Served cold results re-run in-process and diffed at rel 0 / abs 0. */
constexpr std::size_t kSampleChecks = 6;

struct BatchPlan
{
    std::string app;
    std::uint64_t insts = 0;
    std::vector<std::string> variants; ///< submit order
    std::vector<std::string> cold;     ///< never run before
    std::size_t warm = 0;
};

std::string
joined(const std::vector<std::string> &items)
{
    std::string out;
    for (const auto &item : items)
        out += (out.empty() ? "" : ",") + item;
    return out;
}

std::vector<JobSpec>
specsOf(const std::string &app, const std::vector<std::string> &variants,
        std::uint64_t insts)
{
    sim::ExperimentOptions options;
    options.traceInsts = insts;
    return runner::makeGrid(*sim::tryParseApps(app),
                            *sim::tryParseVariants(joined(variants)),
                            options);
}

class ServePlan
{
  public:
    explicit ServePlan(std::uint64_t seed) : rng_(seed)
    {
        // Slots take the apps in seeded rounds of all ten, so every run
        // meets each app about equally often, whatever its seed.
        std::vector<std::string> apps;
        for (const auto &app : workload::mobileApps())
            apps.push_back(app.name);
        for (std::size_t s = 0; s < kSlots; ++s) {
            if (s % apps.size() == 0)
                shuffle(apps);
            Slot slot;
            slot.app = apps[s % apps.size()];
            slot.insts = kServeInsts + 16 * s + rng_.below(16);
            slot.unseen = sim::allVariantNames();
            shuffle(slot.unseen);
            slot.seen.assign(slot.unseen.begin(),
                             slot.unseen.begin() + kPrefillPerSlot);
            slot.unseen.erase(slot.unseen.begin(),
                              slot.unseen.begin() + kPrefillPerSlot);
            for (const auto &spec : specsOf(slot.app, slot.seen, slot.insts))
                prefill_.push_back(spec);
            slots_.push_back(std::move(slot));
        }
    }

    const std::vector<JobSpec> &prefill() const { return prefill_; }

    /** The next grid, or nullopt when every slot is used up. */
    std::optional<BatchPlan> next()
    {
        // At most 2 cold jobs per grid: a worker's peak RSS grows with
        // the transformed jobs it holds, and a rare 3-on-one-worker
        // grid would make the run's peak depend on luck.  Each pair of
        // grids has one 1-cold and one 2-cold grid in a seeded order,
        // so every run simulates the same share of its jobs.
        if (grids_++ % 2 == 0)
            firstCold_ = 1 + rng_.below(2);
        const std::size_t cold = grids_ % 2 == 1 ? firstCold_ : 3 - firstCold_;
        while (current_ < slots_.size() &&
               slots_[current_].unseen.size() < cold)
            current_++;
        if (current_ == slots_.size())
            return std::nullopt;
        Slot &slot = slots_[current_];
        BatchPlan plan;
        plan.app = slot.app;
        plan.insts = slot.insts;
        plan.warm = kGridVariants - cold;
        shuffle(slot.seen);
        plan.variants.assign(slot.seen.begin(),
                             slot.seen.begin() + plan.warm);
        plan.cold.assign(slot.unseen.begin(), slot.unseen.begin() + cold);
        slot.unseen.erase(slot.unseen.begin(), slot.unseen.begin() + cold);
        slot.seen.insert(slot.seen.end(), plan.cold.begin(),
                         plan.cold.end());
        plan.variants.insert(plan.variants.end(), plan.cold.begin(),
                             plan.cold.end());
        shuffle(plan.variants);
        return plan;
    }

    Rng &rng() { return rng_; }

  private:
    struct Slot
    {
        std::string app;
        std::uint64_t insts = 0;
        std::vector<std::string> seen;
        std::vector<std::string> unseen;
    };

    void shuffle(std::vector<std::string> &items)
    {
        for (std::size_t i = items.size(); i > 1; --i)
            std::swap(items[i - 1], items[rng_.below(i)]);
    }

    Rng rng_;
    std::vector<Slot> slots_;
    std::size_t current_ = 0;
    std::size_t grids_ = 0;     ///< grids planned so far
    std::size_t firstCold_ = 1; ///< cold jobs of the pair's first grid
    std::vector<JobSpec> prefill_;
};

/** Client-side timestamps of one grid, in ms. */
struct BatchTiming
{
    double totalMs = 0.0;      ///< submit -> done
    double ackMs = 0.0;        ///< submit -> accepted
    double firstColdMs = -1.0; ///< accepted -> first simulated job event
    double tailMs = 0.0;       ///< last job event -> done
    bool traced = false;       ///< the three spans above were taken
};

std::optional<json::JsonValue>
readJson(serve::ServeClient &client)
{
    const auto line = client.readLine(kReplyTimeoutMs);
    if (!line)
        return std::nullopt;
    return json::parseJson(*line);
}

std::uint64_t
uintField(const json::JsonValue &doc, const char *key)
{
    const auto *v = doc.find(key);
    return v ? v->asUint().value_or(~0ULL) : ~0ULL;
}

std::string
stringField(const json::JsonValue &doc, const char *key)
{
    const auto *v = doc.find(key);
    return v ? v->asString().value_or("") : "";
}

std::vector<std::string>
daemonArgs(const Context &ctx, const std::string &portFile,
           const std::string &storePath)
{
    return {ctx.cliPath,   "serve",       "--port",
            "0",           "--port-file", portFile,
            "--workers",   std::to_string(ctx.workers),
            "--cache-file", storePath};
}

/** The pinned environment, with each worker's runner pool given its
 *  share of the thread budget. */
std::vector<std::string>
daemonEnv(const Context &ctx)
{
    std::vector<std::string> env;
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "CRITICS_THREADS=", 16) != 0)
            env.emplace_back(*e);
    }
    env.push_back("CRITICS_THREADS=" +
                  std::to_string(std::max(1u, ctx.threads / ctx.workers)));
    return env;
}

/**
 * Starts the daemon from a small launcher process forked before the
 * benchmark allocates anything large.  The launcher spawns the daemon
 * on request, reaps it, and reports getrusage(RUSAGE_CHILDREN): the
 * peak RSS of the daemon and the workers it reaped.  Spawning from
 * the benchmark itself would not do: a process that execs keeps its
 * parent's peak RSS, so the figure would show the benchmark's prefill.
 */
class DaemonLauncher
{
  public:
    DaemonLauncher(std::vector<std::string> args,
                   std::vector<std::string> env, const std::string &log)
        : args_(std::move(args)), env_(std::move(env))
    {
        std::vector<char *> argv, envp;
        for (auto &a : args_)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        for (auto &e : env_)
            envp.push_back(e.data());
        envp.push_back(nullptr);
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, STDIN_FILENO,
                                         "/dev/null", O_RDONLY, 0);
        posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                         log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
        posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO,
                                         STDERR_FILENO);
        int go[2], back[2];
        if (::pipe(go) != 0 || ::pipe(back) != 0)
            return;
        std::fflush(nullptr);
        launcher_ = ::fork();
        if (launcher_ == 0) {
            // Only async-signal-safe calls from here on.
            ::close(go[1]);
            ::close(back[0]);
            char c = 0;
            if (::read(go[0], &c, 1) != 1)
                ::_exit(1);
            pid_t pid = -1;
            if (::posix_spawn(&pid, argv[0], &actions, nullptr,
                              argv.data(), envp.data()) != 0)
                pid = -1;
            if (::write(back[1], &pid, sizeof pid) != sizeof pid)
                ::_exit(1);
            int status = 0;
            while (pid > 0 && ::waitpid(pid, &status, 0) < 0 &&
                   errno == EINTR) {
            }
            rusage usage{};
            ::getrusage(RUSAGE_CHILDREN, &usage);
            const long rss = usage.ru_maxrss;
            ::_exit(::write(back[1], &rss, sizeof rss) == sizeof rss ? 0 : 1);
        }
        posix_spawn_file_actions_destroy(&actions);
        ::close(go[0]);
        ::close(back[1]);
        go_ = go[1];
        back_ = back[0];
    }

    ~DaemonLauncher()
    {
        bool drained = true;
        stop(60.0, drained);
    }

    DaemonLauncher(const DaemonLauncher &) = delete;
    DaemonLauncher &operator=(const DaemonLauncher &) = delete;

    bool start()
    {
        if (launcher_ <= 0 || ::write(go_, "g", 1) != 1 ||
            ::read(back_, &daemon_, sizeof daemon_) != sizeof daemon_)
            daemon_ = -1;
        return daemon_ > 0;
    }

    /** The launcher reaped the daemon (its RSS report is readable). */
    bool daemonExited() const
    {
        pollfd pfd{back_, POLLIN, 0};
        return ::poll(&pfd, 1, 0) > 0;
    }

    /** SIGTERM the daemon and wait up to `timeoutS` for it to drain
     *  (then SIGKILL, and `drained` is false).  Returns the peak RSS
     *  of the daemon tree in MB, or -1 when no daemon ran. */
    double stop(double timeoutS, bool &drained)
    {
        if (launcher_ <= 0)
            return -1.0;
        long rss = -1;
        if (daemon_ > 0) {
            ::kill(daemon_, SIGTERM);
            pollfd pfd{back_, POLLIN, 0};
            if (::poll(&pfd, 1, static_cast<int>(timeoutS * 1e3)) <= 0) {
                drained = false;
                ::kill(daemon_, SIGKILL);
            }
            if (::read(back_, &rss, sizeof rss) != sizeof rss)
                rss = -1;
        }
        ::close(go_);
        ::close(back_);
        int status = 0;
        while (::waitpid(launcher_, &status, 0) < 0 && errno == EINTR) {
        }
        launcher_ = -1;
        daemon_ = -1;
        return rss < 0 ? -1.0 : static_cast<double>(rss) / 1024.0;
    }

  private:
    std::vector<std::string> args_;
    std::vector<std::string> env_;
    pid_t launcher_ = -1;
    pid_t daemon_ = -1;
    int go_ = -1;   ///< write "g" to spawn the daemon
    int back_ = -1; ///< daemon pid, then its tree's peak RSS
};

/** The daemon and the connection the closed loop drives it through. */
class ServeSession
{
  public:
    ServeSession(const Context &ctx, const std::string &dir, Report &report)
        : ctx_(ctx),
          dir_(dir),
          report_(report),
          plan_(ctx.seed),
          storePath_(dir + "/store/results.jsonl"),
          launcher_(daemonArgs(ctx, dir + "/port", storePath_),
                    daemonEnv(ctx), dir + "/daemon.log")
    {
    }

    ServeSession(const ServeSession &) = delete;
    ServeSession &operator=(const ServeSession &) = delete;

    /** Prefill, start the daemon, wait for its first ping reply and run
     *  one discarded warm-up grid. */
    bool setUp()
    {
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        {
            runner::RunnerOptions options;
            options.cachePath = storePath_;
            options.manifestDir = dir_ + "/manifests";
            options.progress = false;
            runner::Runner prefill(options);
            if (!prefill.run("serve_prefill", plan_.prefill()).allOk())
                return fail("store prefill failed");
            recordsStart_ = prefill.store().size();
        }
        if (!startDaemon())
            return false;
        return runBatch(false).has_value();
    }

    /** Closed loop until `seconds` passed and `minBatches` ran; with
     *  `alternate`, every second grid is traced, so traced and
     *  untraced grids meet the same store sizes. */
    std::vector<BatchTiming> loop(double seconds, std::size_t minBatches,
                                  bool alternate)
    {
        std::vector<BatchTiming> timings;
        const auto start = Clock::now();
        while (timings.size() < minBatches ||
               secondsSince(start) < seconds) {
            const auto timing =
                runBatch(alternate && timings.size() % 2 == 1);
            if (!timing)
                break;
            timings.push_back(*timing);
        }
        return timings;
    }

    /** The daemon's `stats` op. */
    std::optional<json::JsonValue> stats()
    {
        serve::Request request;
        request.op = serve::Request::Op::Stats;
        if (!client_.sendLine(serve::renderRequest(request)))
            return std::nullopt;
        const auto reply = readJson(client_);
        if (!reply || reply->find("serve") == nullptr)
            return std::nullopt;
        return *reply->find("serve");
    }

    /** Drain and reap the daemon; then re-run a seeded sample of the
     *  served cold jobs in-process and diff them at rel 0 / abs 0.
     *  Returns the daemon tree's peak RSS. */
    double finish()
    {
        const double peakRss = stopDaemon();
        const auto records = runner::readResultRecords(storePath_);
        std::map<std::string, sim::RunResult> served;
        for (const auto &record : records)
            served[record.hash] = record.result;

        std::vector<JobSpec> sample;
        for (std::size_t i = 0; i < kSampleChecks && !coldSpecs_.empty();
             ++i) {
            const std::size_t pick = plan_.rng().below(coldSpecs_.size());
            sample.push_back(coldSpecs_[pick]);
            coldSpecs_.erase(coldSpecs_.begin() +
                             static_cast<std::ptrdiff_t>(pick));
        }
        runner::RunnerOptions options;
        options.cachePath = dir_ + "/direct/results.jsonl";
        options.manifestDir = dir_ + "/direct/manifests";
        options.progress = false;
        runner::Runner direct(options);
        const auto batch = direct.run("serve_direct", sample);
        stats::DiffOptions exact;
        exact.relThreshold = 0.0;
        exact.absThreshold = 0.0;
        for (std::size_t i = 0; i < sample.size(); ++i) {
            const auto it = served.find(sample[i].hashHex());
            bool same = it != served.end() && batch.outcomes[i].ok;
            if (same) {
                stats::StatRegistry a, b;
                sim::bindRunResult(a, it->second);
                sim::bindRunResult(b, batch.outcomes[i].result);
                const auto diff =
                    stats::diffSnapshots(a.snapshot(), b.snapshot(), exact);
                same = !diff.hasRegressions();
            }
            report_.operation(same);
            if (!same)
                report_.fail("served " + sample[i].profile.name + "/" +
                             sample[i].variant.label +
                             " differs from a direct run");
        }
        report_.note("serve_mixed: store " + std::to_string(recordsStart_) +
                     " records at start (prefill), " +
                     std::to_string(records.size()) + " at end; " +
                     std::to_string(sample.size()) +
                     " served cold results diffed against direct runs");
        return peakRss;
    }

  private:
    bool fail(const std::string &why)
    {
        report_.fail(why);
        return false;
    }

    bool startDaemon()
    {
        if (!launcher_.start())
            return fail("cannot start " + ctx_.cliPath);
        const std::string portFile = dir_ + "/port";
        unsigned port = 0;
        const auto start = Clock::now();
        while (port == 0 && secondsSince(start) < 30.0) {
            std::ifstream in(portFile);
            if (in >> port)
                break;
            port = 0;
            if (launcher_.daemonExited())
                return fail("daemon exited at start-up (see " + dir_ +
                            "/daemon.log)");
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        std::string error;
        if (port == 0 ||
            !client_.connect("127.0.0.1", static_cast<unsigned short>(port),
                             &error))
            return fail("cannot reach the daemon: " + error);
        serve::Request ping;
        ping.op = serve::Request::Op::Ping;
        if (!client_.sendLine(serve::renderRequest(ping)) ||
            !readJson(client_))
            return fail("no ping reply from the daemon");
        return true;
    }

    /** Drain the daemon; returns its tree's peak RSS (MB), -1 if none. */
    double stopDaemon()
    {
        client_.close();
        bool drained = true;
        const double rss = launcher_.stop(60.0, drained);
        if (!drained)
            report_.fail("daemon did not drain within 60 s");
        return rss;
    }

    /** One grid: submit, then wait for its done line.  nullopt when
     *  the plan is used up or the daemon stopped answering; a grid
     *  that fails a check counts as a failed operation. */
    std::optional<BatchTiming> runBatch(bool traced)
    {
        const auto plan = plan_.next();
        if (!plan)
            return std::nullopt;
        serve::Request submit;
        submit.op = serve::Request::Op::Submit;
        submit.submit.batch = "critbench";
        submit.submit.apps = plan->app;
        submit.submit.variants = joined(plan->variants);
        submit.submit.insts = plan->insts;

        BatchTiming timing;
        timing.traced = traced;
        bool ok = true;
        auto lost = [&](const std::string &why) {
            report_.operation(false);
            fail(why);
            return std::nullopt;
        };
        auto check = [&](bool cond, const std::string &why) {
            if (!cond && ok)
                report_.fail("grid " + plan->app + "@" +
                             std::to_string(plan->insts) + ": " + why);
            ok = ok && cond;
        };
        const auto start = Clock::now();
        if (!client_.sendLine(serve::renderRequest(submit)))
            return lost("submit not sent");
        const auto ack = readJson(client_);
        const auto acked = Clock::now();
        if (!ack || stringField(*ack, "job").empty())
            return lost("submit not accepted");
        check(uintField(*ack, "warm") == plan->warm,
              "warm count at submit differs from the plan");

        serve::Request wait;
        wait.op = serve::Request::Op::Wait;
        wait.job = stringField(*ack, "job");
        if (!client_.sendLine(serve::renderRequest(wait)))
            return lost("wait not sent");
        auto lastEvent = acked;
        for (;;) {
            const auto doc = readJson(client_);
            const auto now = Clock::now();
            if (!doc)
                return lost("no reply within the timeout");
            const std::string event = stringField(*doc, "event");
            if (event == "job") {
                const auto *fromCache = doc->find("from-cache");
                const auto *jobOk = doc->find("ok");
                check(jobOk && jobOk->asBool().value_or(false),
                      "job failed: " + stringField(*doc, "error"));
                if (traced && timing.firstColdMs < 0 && fromCache &&
                    !fromCache->asBool().value_or(true))
                    timing.firstColdMs =
                        std::chrono::duration<double, std::milli>(now - acked)
                            .count();
                lastEvent = now;
            } else if (event == "done") {
                check(stringField(*doc, "state") == "done",
                      "batch state " + stringField(*doc, "state"));
                check(uintField(*doc, "failed") == 0, "failed jobs");
                check(uintField(*doc, "warm") == plan->warm,
                      "warm count differs from the plan");
                check(uintField(*doc, "simulated") == plan->cold.size(),
                      "simulated count differs from the plan");
                if (traced) {
                    timing.tailMs =
                        std::chrono::duration<double, std::milli>(
                            now - lastEvent)
                            .count();
                }
                break;
            } else {
                check(false, "unexpected reply " +
                                 stringField(*doc, "error"));
                break;
            }
        }
        timing.totalMs = secondsSince(start) * 1e3;
        timing.ackMs = std::chrono::duration<double, std::milli>(acked - start)
                           .count();
        report_.operation(ok);
        for (const auto &spec : specsOf(plan->app, plan->cold, plan->insts))
            coldSpecs_.push_back(spec);
        return timing;
    }

    const Context &ctx_;
    std::string dir_;
    Report &report_;
    ServePlan plan_;
    std::string storePath_;
    std::size_t recordsStart_ = 0;
    DaemonLauncher launcher_;
    serve::ServeClient client_;
    std::vector<JobSpec> coldSpecs_; ///< every cold job served
};

/** One field of the grids whose `traced` flag is `traced`. */
std::vector<double>
field(const std::vector<BatchTiming> &timings, double BatchTiming::*member,
      bool traced = false)
{
    std::vector<double> values;
    for (const auto &t : timings) {
        if (t.traced == traced && t.*member >= 0.0)
            values.push_back(t.*member);
    }
    return values;
}

double
statsUs(const json::JsonValue &stats, const char *histogram,
        const char *key)
{
    const auto *h = stats.find(histogram);
    const auto *v = h ? h->find(key) : nullptr;
    return v ? v->asDouble().value_or(-1.0) : -1.0;
}

} // namespace

Report
runServeMixed(const Context &ctx)
{
    Report report;
    // Set-up is made kSetups times, each by a session of its own on a
    // fresh store; the last one is measured.  Every session forks its
    // daemon launcher here, before any prefill grows this process.
    std::vector<std::unique_ptr<ServeSession>> sessions;
    for (std::size_t i = 0; i < kSetups; ++i)
        sessions.push_back(std::make_unique<ServeSession>(
            ctx, ctx.workDir + "/serve_mixed", report));
    std::vector<double> setupS;
    for (std::size_t i = 0; i < kSetups; ++i) {
        if (i > 0)
            sessions[i - 1].reset(); // drain and reap its daemon
        const auto start = Clock::now();
        if (!sessions[i]->setUp())
            return report;
        setupS.push_back(secondsSince(start));
    }
    ServeSession &session = *sessions.back();

    const auto loopStart = Clock::now();
    const auto timings =
        session.loop(ctx.seconds, samplesNeeded(0.9), /*alternate=*/false);
    const double loopS = secondsSince(loopStart);
    if (loopS < ctx.seconds)
        report.note("serve_mixed: the loop ended after " +
                    std::to_string(loopS) +
                    " s: the grid plan ran out or the daemon stopped");
    const auto stats = session.stats();
    if (!stats || stats->find("workerRestarts") == nullptr ||
        stats->find("workerRestarts")->asUint().value_or(1) != 0)
        report.fail("worker restarts reported (or no stats reply)");
    const double peakRss = session.finish();

    const auto total = field(timings, &BatchTiming::totalMs);
    report.note("serve_mixed: " + std::to_string(timings.size()) +
                " grids of " + std::to_string(kGridVariants) +
                " jobs (1-2 cold each) at ~" + std::to_string(kServeInsts) +
                " insts; " + std::to_string(ctx.workers) + " workers x " +
                std::to_string(std::max(1u, ctx.threads / ctx.workers)) +
                " threads");
    report.note("latency samples (one per submit->done round trip): " +
                std::to_string(total.size()) + " (p90 needs " +
                std::to_string(samplesNeeded(0.9)) + ")");
    report.note("set-ups (s):" + joinedSeconds(setupS));
    report.note("jobs_per_s: " +
                describeRates(windowRates(
                    total, static_cast<double>(kGridVariants), kRateWindow)));
    report.metric("setup_s", median(setupS));
    report.metric("peak_rss_mb", peakRss);
    report.metric("jobs_per_s",
                  medianRate(total, static_cast<double>(kGridVariants),
                             kRateWindow));
    report.metric("latency_p50_ms", median(total));
    if (const auto p90 = quantile(total, 0.9))
        report.metric("latency_p90_ms", *p90);
    return report;
}

void
traceServe(const Context &ctx, Report &report)
{
    ServeSession session(ctx, ctx.workDir + "/traced_serve", report);
    if (!session.setUp())
        return;
    // 100 traced and 100 untraced grids, alternating.
    const auto timings = session.loop(0.0, 2 * 100, /*alternate=*/true);
    const auto stats = session.stats();
    session.finish();
    if (!stats) {
        report.fail("no stats reply from the daemon");
        return;
    }
    report.metric("serve.submit_ack_ms",
                  median(field(timings, &BatchTiming::ackMs, true)));
    report.metric("serve.first_cold_event_ms",
                  median(field(timings, &BatchTiming::firstColdMs, true)));
    report.metric("serve.batch_tail_ms",
                  median(field(timings, &BatchTiming::tailMs, true)));
    report.metric("serve.queueWait.p50_ms",
                  statsUs(*stats, "queueWait", "p50Us") / 1e3);
    report.metric("serve.jobLatency.p50_ms",
                  statsUs(*stats, "jobLatency", "p50Us") / 1e3);
    report.metric("serve.jobLatency.p90_ms",
                  statsUs(*stats, "jobLatency", "p90Us") / 1e3);
    const auto *ratio = stats->find("warmHitRatio");
    report.metric("serve.warmHitRatio",
                  ratio ? ratio->asDouble().value_or(-1.0) : -1.0);
    const auto *restarts = stats->find("workerRestarts");
    report.metric("serve.workerRestarts",
                  restarts ? static_cast<double>(
                                 restarts->asUint().value_or(0))
                           : -1.0);
    report.metric("trace_overhead_share.serve_mixed",
                  median(field(timings, &BatchTiming::totalMs, true)) /
                          median(field(timings, &BatchTiming::totalMs)) -
                      1.0);
}

} // namespace critbench
