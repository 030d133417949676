#include "serve/supervisor.hh"

#include <cerrno>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "support/logging.hh"

namespace critics::serve
{

WorkerSupervisor::WorkerSupervisor(std::vector<std::string> argv,
                                   std::size_t slots,
                                   unsigned maxRestarts)
    : argv_(std::move(argv)), maxRestarts_(maxRestarts), slots_(slots)
{
}

WorkerSupervisor::~WorkerSupervisor()
{
    // EOF on stdin is a worker's signal to exit; close every stdin
    // first so the workers wind down together, then reap them.
    for (Slot &slot : slots_) {
        if (slot.in >= 0)
            ::close(slot.in);
        slot.in = -1;
    }
    for (Slot &slot : slots_) {
        if (slot.pid > 0) {
            int status = 0;
            while (::waitpid(slot.pid, &status, 0) < 0 &&
                   errno == EINTR) {
            }
        }
        if (slot.out >= 0)
            ::close(slot.out);
    }
}

std::vector<pid_t>
WorkerSupervisor::pids() const
{
    std::vector<pid_t> out;
    for (const Slot &slot : slots_)
        out.push_back(slot.pid);
    return out;
}

/** fork+exec argv_ with stdin on a socket pair and stdout on a pipe,
 *  both back to us; false when the pipes or the fork fail (an exec
 *  failure surfaces as a child exiting 127, i.e. a crash).  Every fd
 *  is close-on-exec, so no worker holds another worker's channel. */
bool
WorkerSupervisor::spawn(Slot &slot)
{
    int in[2], out[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, in) != 0)
        return false;
    if (::pipe2(out, O_CLOEXEC) != 0) {
        ::close(in[0]);
        ::close(in[1]);
        return false;
    }
    // Built before fork: the child of a threaded process may not
    // allocate.
    std::vector<char *> argv;
    for (auto &arg : argv_)
        argv.push_back(arg.data());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::dup2(in[1], STDIN_FILENO);
        ::dup2(out[1], STDOUT_FILENO);
        ::execvp(argv[0], argv.data());
        ::_exit(127);
    }
    ::close(in[1]);
    ::close(out[1]);
    if (pid < 0) {
        ::close(in[0]);
        ::close(out[0]);
        return false;
    }
    slot.pid = pid;
    slot.in = in[0];
    slot.out = out[0];
    slot.lines = LineReader();
    return true;
}

int
WorkerSupervisor::reap(Slot &slot)
{
    int status = 0;
    pid_t done;
    while ((done = ::waitpid(slot.pid, &status, WNOHANG)) < 0 &&
           errno == EINTR) {
    }
    if (done == 0) { // still running, but broken: put it down
        ::kill(slot.pid, SIGKILL);
        while (::waitpid(slot.pid, &status, 0) < 0 && errno == EINTR) {
        }
    }
    ::close(slot.in);
    ::close(slot.out);
    slot = Slot();
    return status;
}

SupervisorResult
WorkerSupervisor::runBatch(const LineFn &lineFor,
                           const SupervisorHooks &hooks)
{
    const std::size_t n = slots_.size();
    SupervisorResult result;
    result.workerOk.assign(n, true);
    std::vector<unsigned> restartsLeft(n, maxRestarts_);
    std::vector<bool> busy(n, false);

    // Slot k's worker died or broke mid-batch: reap it; the line its
    // respawn gets, or "" when the slot is finished — nothing is left
    // for it, or its budget is used up.
    auto crashed = [&](std::size_t k) {
        const int status = reap(slots_[k]);
        busy[k] = false;
        std::string line = lineFor(k);
        const bool willRestart = !line.empty() && restartsLeft[k] > 0;
        if (hooks.onCrash)
            hooks.onCrash(k, status, willRestart);
        if (!willRestart) {
            result.workerOk[k] = line.empty();
            return std::string();
        }
        restartsLeft[k]--;
        result.restarts++;
        return line;
    };

    // Put slot k to work on `line` ("" leaves it idle): spawn its
    // worker if it has none, then send the line.  A worker that
    // refuses the line (it died while idle) is a crash like any other.
    auto begin = [&](std::size_t k, std::string line) {
        Slot &slot = slots_[k];
        while (!line.empty()) {
            if (slot.pid < 0) {
                if (!spawn(slot)) {
                    critics_warn("serve: could not spawn worker ", k,
                                 ": ", std::strerror(errno));
                    result.workerOk[k] = false;
                    return;
                }
                if (hooks.onSpawn)
                    hooks.onSpawn(k, slot.pid);
            }
            if (sendAll(slot.in, line + "\n")) {
                busy[k] = true;
                return;
            }
            line = crashed(k);
        }
    };

    // One poll()-gated read per wakeup (never a second, possibly
    // blocking, read); false on EOF, a read error or an overlong
    // line, which all mean "this worker is gone or broken".
    auto drain = [&](std::size_t k) {
        Slot &slot = slots_[k];
        char buf[4096];
        ssize_t got;
        do {
            got = ::read(slot.out, buf, sizeof(buf));
        } while (got < 0 && errno == EINTR);
        if (got <= 0)
            return false;
        slot.lines.feed(buf, static_cast<std::size_t>(got));
        while (const auto line = slot.lines.nextLine()) {
            if (hooks.onLine)
                hooks.onLine(k, *line);
            if (parseShardDone(*line))
                busy[k] = false;
        }
        return !slot.lines.overflowed();
    };

    for (std::size_t k = 0; k < n; ++k)
        begin(k, lineFor(k));

    for (;;) {
        std::vector<struct pollfd> fds;
        std::vector<std::size_t> owner;
        for (std::size_t k = 0; k < n; ++k) {
            if (!busy[k])
                continue;
            fds.push_back({slots_[k].out, POLLIN, 0});
            owner.push_back(k);
        }
        if (fds.empty())
            break;

        const int ready = ::poll(fds.data(),
                                 static_cast<nfds_t>(fds.size()), -1);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            critics_warn("serve: poll failed: ", std::strerror(errno));
            for (const std::size_t k : owner) {
                reap(slots_[k]);
                result.workerOk[k] = false;
            }
            break;
        }
        for (std::size_t f = 0; f < fds.size(); ++f) {
            if (fds[f].revents != 0 && !drain(owner[f]))
                begin(owner[f], crashed(owner[f]));
        }
    }

    result.allOk = true;
    for (const bool ok : result.workerOk)
        result.allOk = result.allOk && ok;
    return result;
}

} // namespace critics::serve
