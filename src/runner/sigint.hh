/**
 * @file
 * SIGINT handling for the orchestrator.  The first Ctrl-C only sets a
 * flag: workers stop picking up new jobs, completed results are
 * already on disk, and the batch epilogue writes an `interrupted`
 * manifest.  A second Ctrl-C force-flushes the batch's
 * EmergencyManifest (open/write/fsync only, all async-signal-safe)
 * and re-raises under the default disposition, so even an impatient
 * double interrupt leaves a truthful record of what finished.
 */

#ifndef CRITICS_RUNNER_SIGINT_HH
#define CRITICS_RUNNER_SIGINT_HH

#include <atomic>
#include <csignal>
#include <string>
#include <vector>

namespace critics::runner
{

/**
 * The manifest a second SIGINT writes: a pre-rendered header, one slot
 * per job and a trailer, flushed as
 * `header slot[0] "," slot[1] "," ... trailer`.  Every slot starts on
 * its job's pending record; publish() swaps in the final record, which
 * the job renders once.  A finished job therefore costs one render and
 * one atomic pointer store, whatever the batch size, and nothing a
 * slot ever pointed at is freed before the object dies.
 */
class EmergencyManifest
{
  public:
    /** `pending` holds one record per job. */
    EmergencyManifest(std::string path, std::string header,
                      std::vector<std::string> pending,
                      std::string trailer);

    // The signal handler holds the object's address.
    EmergencyManifest(const EmergencyManifest &) = delete;
    EmergencyManifest &operator=(const EmergencyManifest &) = delete;

    /** Replace job i's pending record with its final one.  At most
     *  once per slot; distinct slots may publish concurrently. */
    void publish(std::size_t i, std::string record);

    /** Write header, slots and trailer to the path with
     *  open/write/fsync only (async-signal-safe); false on failure. */
    bool flush() const;

  private:
    std::string path_;
    std::string header_;
    std::string trailer_;
    std::vector<std::string> pending_;
    std::vector<std::string> final_;
    std::vector<std::atomic<const std::string *>> slots_;
};

/**
 * Installs the orchestrator's SIGINT handler for the duration of a
 * batch and restores the previous disposition on destruction.  One
 * live guard per process (batches never nest across threads).
 */
class SigintGuard
{
  public:
    SigintGuard();
    ~SigintGuard();

    SigintGuard(const SigintGuard &) = delete;
    SigintGuard &operator=(const SigintGuard &) = delete;

    /** At least one SIGINT has arrived. */
    static bool interrupted();

    /**
     * The manifest a second SIGINT flushes; nullptr (the default)
     * disables the flush.  It must outlive the guard, so declare it
     * before the guard.
     */
    static void setEmergency(const EmergencyManifest *manifest);

  private:
    struct sigaction previous_{};
};

} // namespace critics::runner

#endif // CRITICS_RUNNER_SIGINT_HH
