#include "serve/server.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <set>
#include <unordered_map>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/obs.hh"
#include "obs/span.hh"
#include "runner/job.hh"
#include "serve/supervisor.hh"
#include "sim/variants.hh"
#include "stats/registry.hh"
#include "stats/trace_event.hh"
#include "support/json.hh"
#include "support/logging.hh"

namespace critics::serve
{

namespace
{

/** One whole line; false on a dead peer (the job does not care — it
 *  keeps running). */
bool
sendLine(int fd, const std::string &line)
{
    return sendAll(fd, line + "\n");
}

std::string
errorLine(const std::string &message)
{
    json::JsonWriter w;
    w.beginObject()
        .field("ok", false)
        .field("error", message)
        .endObject();
    return w.str();
}

} // namespace

const char *
Server::stateName(Batch::State state)
{
    switch (state) {
      case Batch::State::Queued: return "queued";
      case Batch::State::Running: return "running";
      case Batch::State::Done: return "done";
      case Batch::State::Failed: return "failed";
    }
    return "unknown";
}

Server::Server(ServerOptions options)
    : options_(std::move(options)), store_(options_.cachePath),
      manifestDir_(
          std::filesystem::path(store_.path()).parent_path().string() +
          "/manifests"),
      started_(std::chrono::steady_clock::now()),
      epochUs_(obs::monotonicMicros())
{
    if (::pipe2(wakePipe_, O_CLOEXEC) != 0)
        critics_fatal("serve: cannot create wake pipe: ",
                      std::strerror(errno));
    registerStats();
}

Server::~Server()
{
    requestShutdown();
    wait();
    for (const int fd : wakePipe_) {
        if (fd >= 0)
            ::close(fd);
    }
}

bool
Server::start(std::string *error)
{
    // Cold jobs only ever run in serve-worker processes.
    const char *refusal = nullptr;
    if (options_.workers == 0)
        refusal = "at least one worker process is required";
    else if (options_.workerExe.empty())
        refusal = "no worker executable to start serve-worker from";
    if (refusal != nullptr) {
        if (error != nullptr)
            *error = refusal;
        return false;
    }

    listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0) {
        if (error != nullptr)
            *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    struct sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) !=
        1) {
        if (error != nullptr)
            *error = "bad --host '" + options_.host + "'";
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    if (::bind(listenFd_, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd_, 64) != 0) {
        if (error != nullptr) {
            *error = options_.host + ":" +
                     std::to_string(options_.port) + ": " +
                     std::strerror(errno);
        }
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }

    struct sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listenFd_,
                  reinterpret_cast<struct sockaddr *>(&bound), &len);
    boundPort_ = ntohs(bound.sin_port);

    if (!options_.portFile.empty()) {
        std::ofstream out(options_.portFile, std::ios::trunc);
        out << boundPort_ << "\n";
    }
    // Made here, not by the first manifest: a batch's done line
    // reaches its waiters before its manifest is written, and the
    // store's directory should not change shape under them.
    std::error_code ec;
    std::filesystem::create_directories(manifestDir_, ec);

    workers_ = std::make_unique<WorkerSupervisor>(
        std::vector<std::string>{options_.workerExe, "serve-worker",
                                 "--attempts",
                                 std::to_string(options_.maxAttempts)},
        options_.workers, options_.maxRestarts);
    acceptThread_ = std::thread([this] { acceptLoop(); });
    schedulerThread_ = std::thread([this] { schedulerLoop(); });
    return true;
}

void
Server::requestShutdown()
{
    stop_.store(true);
    if (wakePipe_[1] >= 0) {
        const char byte = 'x';
        [[maybe_unused]] const ssize_t n =
            ::write(wakePipe_[1], &byte, 1);
    }
}

void
Server::wait()
{
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (schedulerThread_.joinable())
        schedulerThread_.join();
    // Client handlers are detached; they notice stop_ within one poll
    // interval and bump the count down as they close.
    std::unique_lock<std::mutex> lock(lock_);
    cv_.wait(lock, [this] { return activeClients_.load() == 0; });
}

void
Server::acceptLoop()
{
    for (;;) {
        struct pollfd fds[2] = {
            {listenFd_, POLLIN, 0},
            {wakePipe_[0], POLLIN, 0},
        };
        const int ready = ::poll(fds, 2, 200);
        if (stop_.load())
            break;
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            critics_warn("serve: accept poll failed: ",
                         std::strerror(errno));
            break;
        }
        if (ready == 0 || (fds[0].revents & POLLIN) == 0)
            continue;
        const int client =
            ::accept4(listenFd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (client < 0)
            continue;
        setNoDelay(client);
        // Handlers only ever lower the count, so a stale read errs
        // toward refusing.
        if (activeClients_.load() >= options_.maxClients) {
            sendLine(client, errorLine(
                                 "too many connections: the daemon "
                                 "serves at most " +
                                 std::to_string(options_.maxClients) +
                                 " at once"));
            ::close(client);
            continue;
        }
        activeClients_.fetch_add(1);
        std::thread([this, client] { handleClient(client); }).detach();
    }
    ::close(listenFd_);
    listenFd_ = -1;
}

void
Server::handleClient(int fd)
{
    LineReader lines;
    char buf[4096];
    bool keep = true;
    while (keep) {
        struct pollfd p = {fd, POLLIN, 0};
        const int ready = ::poll(&p, 1, 200);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (ready == 0) {
            if (stop_.load())
                break;
            continue;
        }
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        lines.feed(buf, static_cast<std::size_t>(n));
        while (keep) {
            const auto line = lines.nextLine();
            if (!line)
                break;
            keep = handleRequest(fd, *line);
        }
        if (keep && lines.overflowed()) {
            {
                std::lock_guard<std::mutex> lock(lock_);
                badRequests_++;
            }
            sendLine(fd, errorLine("request line longer than " +
                                   std::to_string(kMaxLineBytes) +
                                   " bytes"));
            keep = false;
        }
    }
    ::close(fd);
    // Under lock_, so ~Server cannot see zero and destroy cv_ while
    // this notify is still running.
    std::lock_guard<std::mutex> lock(lock_);
    activeClients_.fetch_sub(1);
    cv_.notify_all();
}

bool
Server::handleRequest(int fd, const std::string &line)
{
    const std::uint64_t startUs = nowMicros();
    {
        std::lock_guard<std::mutex> lock(lock_);
        requests_++;
    }
    std::string error;
    const auto request = parseRequest(line, &error);
    if (!request) {
        std::lock_guard<std::mutex> lock(lock_);
        badRequests_++;
        return sendLine(fd, errorLine(error));
    }

    switch (request->op) {
      case Request::Op::Ping: {
          json::JsonWriter w;
          w.beginObject().field("ok", true).endObject();
          const bool alive = sendLine(fd, w.str());
          traceSpan("ping", startUs);
          return alive;
      }
      case Request::Op::Submit: {
          const bool alive =
              sendLine(fd, handleSubmit(request->submit));
          traceSpan("submit", startUs);
          return alive;
      }
      case Request::Op::Status: {
          const bool alive = sendLine(fd, handleStatus(request->job));
          traceSpan("status", startUs);
          return alive;
      }
      case Request::Op::Wait: {
          const bool alive = streamWait(fd, request->job);
          traceSpan("wait", startUs);
          return alive;
      }
      case Request::Op::Stats: {
          const bool alive = sendLine(fd, statsJson());
          traceSpan("stats", startUs);
          return alive;
      }
      case Request::Op::Shutdown: {
          json::JsonWriter w;
          w.beginObject()
              .field("ok", true)
              .field("draining", true)
              .endObject();
          sendLine(fd, w.str());
          traceSpan("shutdown", startUs);
          requestShutdown();
          return false;
      }
    }
    return false;
}

std::string
Server::handleSubmit(const SubmitRequest &submit)
{
    std::string error;
    const auto apps = sim::tryParseApps(submit.apps, &error);
    if (!apps)
        return errorLine(error);
    const auto variants =
        sim::tryParseVariants(submit.variants, &error);
    if (!variants)
        return errorLine(error);

    sim::ExperimentOptions expOptions;
    expOptions.traceInsts = submit.insts;
    auto grid = runner::makeGrid(*apps, *variants, expOptions);

    std::unique_lock<std::mutex> lock(lock_);
    auto batch = std::make_shared<Batch>();
    batch->id = "serve-" + std::to_string(nextBatchId_++);
    batch->submitUs = nowMicros();
    batch->startedUnix =
        static_cast<std::uint64_t>(::time(nullptr));
    {
        // Trace context, minted here and carried on each worker batch
        // line: unique per daemon lifetime (epoch µs) and per batch
        // (id).
        char traceId[64];
        std::snprintf(traceId, sizeof(traceId), "%llx-%s",
                      static_cast<unsigned long long>(epochUs_),
                      batch->id.c_str());
        batch->traceId = traceId;
    }
    batch->request = submit;
    batch->total = grid.size();
    submitted_++;

    // The warm half: anything already in the store is answered right
    // now, with zero simulation — the whole point of a daemon sitting
    // on a long-lived cache.
    for (auto &spec : grid) {
        if (!submit.refresh && store_.lookup(spec)) {
            JobEvent event;
            event.hash = spec.hashHex();
            event.app = spec.profile.name;
            event.variant = spec.variant.label;
            event.ok = true;
            event.fromCache = true;
            recordEventLocked(*batch, event, /*warmOrigin=*/true);
        } else {
            batch->coldSpecs.push_back(std::move(spec));
        }
    }

    bool allWarm = false;
    if (batch->coldSpecs.empty()) {
        batch->state = Batch::State::Done;
        completed_++;
        allWarm = true;
    } else if (stop_.load()) {
        batch->state = Batch::State::Failed;
        batch->error = "server shutting down";
    } else {
        queue_.push_back(batch);
    }
    batches_[batch->id] = batch;
    cv_.notify_all();

    json::JsonWriter w;
    w.beginObject()
        .field("ok", true)
        .field("job", batch->id)
        .field("trace", batch->traceId)
        .field("total", batch->total)
        .field("warm", batch->warm)
        .field("cold",
               static_cast<std::uint64_t>(batch->coldSpecs.size()))
        .endObject();
    const std::string reply = w.str();
    lock.unlock();
    // A fully-warm batch never reaches the scheduler, so its summary
    // manifest is written here; cold batches get theirs at the end of
    // executeBatch.
    if (allWarm) {
        writeBatchManifest(
            batch,
            static_cast<double>(nowMicros() - batch->submitUs) / 1e6);
    }
    return reply;
}

std::string
Server::handleStatus(const std::string &jobId)
{
    std::lock_guard<std::mutex> lock(lock_);
    const auto it = batches_.find(jobId);
    if (it == batches_.end())
        return errorLine("unknown job '" + jobId + "'");
    return statusJson(*it->second);
}

std::string
Server::statusJson(const Batch &batch) const
{
    json::JsonWriter w;
    w.beginObject()
        .field("ok", true)
        .field("job", batch.id)
        .field("state", stateName(batch.state))
        .field("trace", batch.traceId)
        .field("total", batch.total)
        .field("warm", batch.warm)
        .field("simulated", batch.simulated)
        .field("failed", batch.failed)
        .field("events",
               static_cast<std::uint64_t>(batch.events.size()));
    if (!batch.error.empty())
        w.field("error", batch.error);
    w.beginArray("pids");
    for (const pid_t pid : batch.workerPids) {
        if (pid > 0)
            w.element(std::to_string(pid));
    }
    w.endArray();
    w.endObject();
    return w.str();
}

bool
Server::streamWait(int fd, const std::string &jobId)
{
    std::shared_ptr<Batch> batch;
    {
        std::lock_guard<std::mutex> lock(lock_);
        const auto it = batches_.find(jobId);
        if (it == batches_.end())
            return sendLine(fd, errorLine("unknown job '" + jobId +
                                          "'"));
        batch = it->second;
    }

    // Replay the full event log from the top, then follow it live
    // until the batch reaches a terminal state — a client that
    // reconnects after a disconnect sees exactly what a patient one
    // did.
    std::size_t next = 0;
    for (;;) {
        // Every line that arrived since the last pass, and the done line
        // once the batch is over, leave in one send.
        std::string chunk;
        bool done = false;
        {
            std::unique_lock<std::mutex> lock(lock_);
            cv_.wait_for(lock, std::chrono::milliseconds(200), [&] {
                return batch->events.size() > next ||
                       batch->state == Batch::State::Done ||
                       batch->state == Batch::State::Failed;
            });
            for (; next < batch->events.size(); ++next)
                chunk += batch->events[next] + "\n";
            done = batch->state == Batch::State::Done ||
                   batch->state == Batch::State::Failed;
            if (done) {
                json::JsonWriter w;
                w.beginObject()
                    .field("event", "done")
                    .field("job", batch->id)
                    .field("state", stateName(batch->state))
                    .field("total", batch->total)
                    .field("warm", batch->warm)
                    .field("simulated", batch->simulated)
                    .field("failed", batch->failed);
                if (!batch->error.empty())
                    w.field("error", batch->error);
                w.endObject();
                chunk += w.str() + "\n";
            }
        }
        if (!chunk.empty() && !sendAll(fd, chunk))
            return false; // job keeps running without us
        if (done)
            return true;
    }
}

void
Server::recordEventLocked(Batch &batch, const JobEvent &event,
                          bool warmOrigin)
{
    // A grid that names an app or a variant twice holds a job twice;
    // the first event for a hash is the one that counts (and the only
    // one clients see).
    if (!batch.seen.insert(event.hash).second)
        return;
    batch.events.push_back(renderJobEvent(event));
    if (!event.ok) {
        batch.failed++;
        failedJobs_++;
    } else if (warmOrigin) {
        batch.warm++;
        warmHits_++;
    } else {
        batch.simulated++;
        simulated_++;
        if (event.wallSeconds > 0.0)
            jobLatency_.add(event.wallSeconds * 1e6);
    }
    runner::JobRecord record;
    record.app = event.app;
    record.variant = event.variant;
    record.hash = event.hash;
    record.ok = event.ok;
    record.fromCache = event.fromCache || warmOrigin;
    record.wallSeconds = event.wallSeconds;
    record.simInsts = (event.ok && !record.fromCache)
        ? batch.request.insts : 0;
    record.error = event.error;
    batch.records.push_back(std::move(record));
    cv_.notify_all();
}

void
Server::recordEvent(const std::shared_ptr<Batch> &batch,
                    const JobEvent &event)
{
    std::lock_guard<std::mutex> lock(lock_);
    recordEventLocked(*batch, event, /*warmOrigin=*/false);
}

void
Server::schedulerLoop()
{
    for (;;) {
        std::shared_ptr<Batch> batch;
        {
            std::unique_lock<std::mutex> lock(lock_);
            cv_.wait_for(lock, std::chrono::milliseconds(200), [this] {
                return !queue_.empty() || stop_.load();
            });
            if (!queue_.empty()) {
                batch = queue_.front();
                queue_.erase(queue_.begin());
                batch->state = Batch::State::Running;
                const std::uint64_t waited =
                    nowMicros() - batch->submitUs;
                queueWait_.add(static_cast<double>(waited));
                if (options_.trace != nullptr) {
                    options_.trace->complete(
                        "queue-wait " + batch->id, "serve",
                        batch->submitUs, waited, 0, 0, "trace",
                        batch->traceId);
                }
            } else if (stop_.load()) {
                break;
            } else {
                continue;
            }
        }
        executeBatch(batch);
    }

    // Drain: the in-flight batch (if any) already finished above;
    // everything still queued fails fast with a clear reason.
    {
        std::lock_guard<std::mutex> lock(lock_);
        for (const auto &batch : queue_) {
            batch->state = Batch::State::Failed;
            batch->error = "server shutting down";
        }
        queue_.clear();
        cv_.notify_all();
    }
    // Closes every worker's stdin and reaps each worker as it exits,
    // so none outlives the drain.
    workers_.reset();
}

void
Server::executeBatch(const std::shared_ptr<Batch> &batch)
{
    const std::uint64_t startUs = nowMicros();
    runWithWorkers(batch);

    {
        std::lock_guard<std::mutex> lock(lock_);
        batch->state = (batch->failed > 0 || !batch->error.empty())
                           ? Batch::State::Failed
                           : Batch::State::Done;
        completed_++;
        cv_.notify_all();
    }
    const std::uint64_t endUs = nowMicros();
    writeBatchManifest(batch,
                       static_cast<double>(endUs - startUs) / 1e6);
    if (options_.trace != nullptr) {
        options_.trace->complete("batch " + batch->id, "serve",
                                 startUs, endUs - startUs, 0, 0,
                                 "trace", batch->traceId);
    }
}

void
Server::stitchSpan(const std::shared_ptr<Batch> &batch,
                   std::size_t slot, const std::string &line)
{
    if (options_.trace == nullptr)
        return;
    std::string traceId;
    const auto span = obs::parseSpanEvent(line, &traceId);
    if (!span || traceId != batch->traceId)
        return;
    pid_t pid = 0;
    {
        std::lock_guard<std::mutex> lock(lock_);
        if (slot < batch->workerPids.size() &&
            batch->workerPids[slot] > 0) {
            pid = batch->workerPids[slot];
        }
    }
    // Worker timestamps are absolute CLOCK_MONOTONIC µs; shift them
    // onto the daemon's 0-based trace timeline.
    const std::uint64_t ts =
        span->startUs > epochUs_ ? span->startUs - epochUs_ : 0;
    options_.trace->complete(span->name, span->category, ts,
                             span->durUs,
                             static_cast<std::uint32_t>(pid),
                             span->tid, "trace", traceId);
}

void
Server::writeBatchManifest(const std::shared_ptr<Batch> &batch,
                           double wallSeconds)
{
    runner::RunManifest manifest;
    manifest.schema = runner::kResultSchemaVersion;
    manifest.gitDescribe = runner::gitDescribe();
    manifest.wallSeconds = wallSeconds;
    {
        std::lock_guard<std::mutex> lock(lock_);
        manifest.batch = batch->request.batch + "." + batch->id;
        manifest.traceId = batch->traceId;
        manifest.startedUnix = batch->startedUnix;
        // No event arrives after this: what only served the batch while
        // it ran goes, and the event log stays for status/wait replays.
        manifest.jobs = std::exchange(batch->records, {});
        batch->coldSpecs = std::vector<runner::JobSpec>();
        batch->seen = std::unordered_set<std::string>();
    }
    if (manifest.write(manifestDir_).empty()) {
        critics_warn("serve: cannot write batch manifest for '",
                     manifest.batch, "'");
    }
}

unsigned
shardOf(const runner::JobSpec &spec, unsigned workers)
{
    if (workers == 0)
        return 1;
    // Upper bits: the FNV low bits also key the cache's hash table,
    // and reusing them would correlate slot choice with bucket
    // placement for adversarial spec sets.
    return static_cast<unsigned>((spec.hash() >> 32) % workers) + 1;
}

void
Server::runWithWorkers(const std::shared_ptr<Batch> &batch)
{
    const unsigned workers = options_.workers;

    // Split by shardOf.  `pending` holds each cold job without an
    // event yet; only this thread touches it (runBatch makes every
    // callback here).
    std::unordered_map<std::string, const runner::JobSpec *> pending;
    std::vector<std::vector<std::string>> shards(workers);
    for (const auto &spec : batch->coldSpecs) {
        std::string hash = spec.hashHex();
        if (pending.emplace(hash, &spec).second)
            shards[shardOf(spec, workers) - 1].push_back(hash);
    }

    // Slot k's batch line: its shard's pending jobs, each app, variant
    // and hash once, so every field is bounded whatever the request
    // said (a request may repeat names); "" when none is pending.  A
    // respawned worker is sent a fresh line, so it re-runs no job
    // whose event arrived.
    auto lineFor = [&](std::size_t k) {
        WorkerBatch line;
        std::set<std::string> apps, variants;
        for (const auto &hash : shards[k]) {
            const auto it = pending.find(hash);
            if (it == pending.end())
                continue;
            const runner::JobSpec &spec = *it->second;
            if (apps.insert(spec.profile.name).second)
                line.apps += (line.apps.empty() ? "" : ",") +
                             spec.profile.name;
            if (variants.insert(spec.variant.label).second)
                line.variants += (line.variants.empty() ? "" : ",") +
                                 spec.variant.label;
            line.hashes.push_back(hash);
        }
        if (line.hashes.empty())
            return std::string();
        line.batch = batch->id + ".shard-" + std::to_string(k + 1) +
                     "-of-" + std::to_string(workers);
        line.insts = batch->request.insts;
        line.sleepMs = batch->request.sleepMs;
        if (options_.trace != nullptr)
            line.traceId = batch->traceId;
        if (!options_.profileDir.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(options_.profileDir,
                                                ec);
            line.profile = options_.profileDir + "/" + batch->id +
                           ".worker-" + std::to_string(k + 1) + ".json";
        }
        return renderWorkerBatch(line);
    };

    {
        std::lock_guard<std::mutex> lock(lock_);
        inFlightShards_ = 0;
        for (const auto &shard : shards)
            inFlightShards_ += shard.empty() ? 0 : 1;
        batch->workerPids = workers_->pids();
        batch->crashedAtUs.assign(workers, 0);
    }

    SupervisorHooks hooks;
    hooks.onLine = [&](std::size_t index, const std::string &line) {
        if (auto event = parseJobEvent(line, /*fromWorker=*/true)) {
            // The first event of a pending job counts.  Its result goes
            // into the store before any client can see the event.
            const auto it = pending.find(event->hash);
            if (it == pending.end())
                return;
            if (event->result) {
                const runner::JobSpec &spec = *it->second;
                store_.insert(it->first, spec.specString(),
                              spec.profile.name, spec.variant.label,
                              *event->result);
                event->result.reset();
            }
            pending.erase(it);
            recordEvent(batch, *event);
            return;
        }
        if (parseShardDone(line)) {
            std::lock_guard<std::mutex> lock(lock_);
            if (inFlightShards_ > 0)
                inFlightShards_--;
            cv_.notify_all();
            return;
        }
        stitchSpan(batch, index, line);
    };
    hooks.onSpawn = [this, batch](std::size_t index, pid_t pid) {
        {
            std::lock_guard<std::mutex> lock(lock_);
            batch->workerPids[index] = pid;
            if (batch->crashedAtUs[index] != 0) {
                restartDelay_.add(static_cast<double>(
                    nowMicros() - batch->crashedAtUs[index]));
                batch->crashedAtUs[index] = 0;
            }
            cv_.notify_all();
        }
        if (options_.trace != nullptr) {
            options_.trace->setProcessName(
                static_cast<std::uint32_t>(pid),
                "serve-worker " + std::to_string(index + 1));
        }
    };
    hooks.onCrash = [this, batch](std::size_t index, int,
                                  bool willRestart) {
        std::lock_guard<std::mutex> lock(lock_);
        workerCrashes_++;
        if (willRestart)
            workerRestarts_++;
        batch->workerPids[index] = -1;
        if (willRestart)
            batch->crashedAtUs[index] = nowMicros();
        else if (inFlightShards_ > 0) // the slot is done without shard-done
            inFlightShards_--;
        cv_.notify_all();
    };
    workers_->runBatch(lineFor, hooks);

    // Index what other processes appended and what `cache compact`
    // or `gc` rewrote while the batch ran.
    store_.refresh();

    // A job still pending belongs to a worker that burned through its
    // restart budget: a failed-job record, not a hang.
    std::lock_guard<std::mutex> lock(lock_);
    for (const auto &shard : shards) {
        for (const auto &hash : shard) {
            const auto it = pending.find(hash);
            if (it == pending.end())
                continue;
            JobEvent event;
            event.hash = hash;
            event.app = it->second->profile.name;
            event.variant = it->second->variant.label;
            event.error =
                "worker exhausted restarts before finishing this job";
            recordEventLocked(*batch, event, /*warmOrigin=*/false);
        }
    }
    inFlightShards_ = 0;
}

std::uint64_t
Server::nowMicros() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - started_)
            .count());
}

void
Server::traceSpan(const char *op, std::uint64_t startUs)
{
    if (options_.trace == nullptr)
        return;
    const std::uint64_t now = nowMicros();
    options_.trace->complete(op, "serve", startUs, now - startUs, 0,
                             obs::obsThreadId());
}

const Server::Batch *
Server::runningLocked() const
{
    for (const auto &[id, batch] : batches_) {
        if (batch->state == Batch::State::Running)
            return batch.get();
    }
    return nullptr;
}

std::string
Server::statsJson() const
{
    std::lock_guard<std::mutex> lock(lock_);
    const Batch *running = runningLocked();
    json::JsonWriter w;
    w.beginObject()
        .field("ok", true)
        .field("runningBatch", running ? running->id : std::string());
    stats_.writeJson(w);
    w.endObject();
    return w.str();
}

void
Server::registerStats()
{
    // Views and formulas read lock_-guarded state without taking
    // lock_: statsJson() holds it while it renders them.
    stats::StatRegistry &reg = stats_;
    reg.addCounter("serve.submitted", submitted_,
                   "batches accepted over the protocol");
    reg.addCounter("serve.completed", completed_,
                   "batches finished (done or failed)");
    reg.addCounter("serve.warmHits", warmHits_,
                   "jobs answered from the store without simulating");
    reg.addCounter("serve.simulated", simulated_,
                   "jobs executed by workers");
    reg.addCounter("serve.failedJobs", failedJobs_,
                   "jobs that exhausted their attempt/restart budget");
    reg.addCounter("serve.workerCrashes", workerCrashes_,
                   "worker processes that died abnormally");
    reg.addCounter("serve.workerRestarts", workerRestarts_,
                   "workers respawned after a crash");
    reg.addCounter("serve.requests", requests_,
                   "protocol requests received");
    reg.addCounter("serve.badRequests", badRequests_,
                   "protocol requests rejected");
    reg.addCounter("serve.inFlightShards", inFlightShards_,
                   "worker shards currently executing");
    reg.addFormula(
        "serve.queueDepth",
        [this] { return static_cast<double>(queue_.size()); },
        "batches waiting for the scheduler");
    reg.addFormula(
        "serve.warmHitRatio",
        [this] {
            const double answered =
                static_cast<double>(warmHits_ + simulated_);
            return answered > 0 ? warmHits_ / answered : 0.0;
        },
        "warm fraction of all answered jobs");
    reg.addFormula(
        "serve.activeWorkers",
        [this] {
            double live = 0;
            if (const Batch *running = runningLocked()) {
                for (const pid_t pid : running->workerPids)
                    live += pid > 0 ? 1 : 0;
            }
            return live;
        },
        "live worker processes of the running batch");
    reg.addFormula(
        "serve.uptimeUs",
        [this] { return static_cast<double>(nowMicros()); },
        "time since the daemon started (us)");
    reg.addLatency("serve.jobLatency", jobLatency_,
                   "wall time of jobs executed for this daemon (us)");
    reg.addLatency("serve.queueWait", queueWait_,
                   "submit-to-dequeue wait per batch (us)");
    reg.addLatency("serve.restartDelay", restartDelay_,
                   "worker crash-to-respawn delay (us)");
}

} // namespace critics::serve
