#include "runner/sigint.hh"

#include <fcntl.h>
#include <unistd.h>

#include "support/logging.hh"

namespace critics::runner
{

namespace
{

static_assert(std::atomic<const std::string *>::is_always_lock_free,
              "the signal handler reads slot pointers lock-free");

std::atomic<int> sigintCount{0};
std::atomic<const EmergencyManifest *> emergencyManifest{nullptr};

bool
writeAll(int fd, const std::string &text)
{
    const char *data = text.data();
    std::size_t left = text.size();
    while (left > 0) {
        const ssize_t wrote = ::write(fd, data, left);
        if (wrote <= 0)
            return false;
        data += wrote;
        left -= static_cast<std::size_t>(wrote);
    }
    return true;
}

void
onSigint(int)
{
    if (sigintCount.fetch_add(1) + 1 < 2)
        return; // first Ctrl-C: flag only, workers drain

    // Second Ctrl-C: the user wants out *now*.  Flush the emergency
    // manifest, then die under the default disposition (SIGINT stays
    // blocked until this handler returns, so the re-raise delivers on
    // return).
    if (const EmergencyManifest *manifest = emergencyManifest.load())
        manifest->flush();
    ::signal(SIGINT, SIG_DFL);
    ::raise(SIGINT);
}

} // namespace

// ---------------------------------------------------------------------------
// EmergencyManifest

EmergencyManifest::EmergencyManifest(std::string path, std::string header,
                                     std::vector<std::string> pending,
                                     std::string trailer)
    : path_(std::move(path)), header_(std::move(header)),
      trailer_(std::move(trailer)), pending_(std::move(pending)),
      final_(pending_.size()), slots_(pending_.size())
{
    for (std::size_t i = 0; i < pending_.size(); ++i)
        slots_[i].store(&pending_[i]);
}

void
EmergencyManifest::publish(std::size_t i, std::string record)
{
    critics_assert(i < pending_.size(), "emergency slot out of range");
    critics_assert(slots_[i].load() == &pending_[i],
                   "emergency slot ", i, " published twice");
    // The handler reads final_[i] only through the pointer, which
    // points at it once the record is complete.
    final_[i] = std::move(record);
    slots_[i].store(&final_[i]);
}

bool
EmergencyManifest::flush() const
{
    const int fd =
        ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;
    bool ok = writeAll(fd, header_);
    for (std::size_t i = 0; ok && i < pending_.size(); ++i) {
        ok = (i == 0 || ::write(fd, ",", 1) == 1) &&
             writeAll(fd, *slots_[i].load());
    }
    ok = ok && writeAll(fd, trailer_) && ::fsync(fd) == 0;
    return ::close(fd) == 0 && ok;
}

// ---------------------------------------------------------------------------
// SigintGuard

SigintGuard::SigintGuard()
{
    sigintCount.store(0);
    emergencyManifest.store(nullptr);
    struct sigaction action{};
    action.sa_handler = onSigint;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGINT, &action, &previous_);
}

SigintGuard::~SigintGuard()
{
    ::sigaction(SIGINT, &previous_, nullptr);
    emergencyManifest.store(nullptr);
}

bool
SigintGuard::interrupted()
{
    return sigintCount.load() > 0;
}

void
SigintGuard::setEmergency(const EmergencyManifest *manifest)
{
    emergencyManifest.store(manifest);
}

} // namespace critics::runner
