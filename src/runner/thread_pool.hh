/**
 * @file
 * The process-wide worker pool behind the runner's job scheduler and
 * every parallel loop of the benches and tests
 * (`ThreadPool::shared().forEach`).  Threads are created once and
 * reused, so a bench that issues dozens of parallel regions pays no
 * spawn/join per region.
 */

#ifndef CRITICS_RUNNER_THREAD_POOL_HH
#define CRITICS_RUNNER_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace critics::stats
{
class StatRegistry;
}

namespace critics::runner
{

/** Most helper threads $CRITICS_THREADS may ask for. */
constexpr std::size_t kMaxThreads = 1024;

/** A $CRITICS_THREADS value: decimal digits naming 1..kMaxThreads;
 *  nullopt for anything else. */
std::optional<std::size_t> parseThreads(const std::string &text);

/** The shared pool's size: $CRITICS_THREADS, or the hardware thread
 *  count when it is unset or empty; fatal when it is malformed. */
std::size_t threadsFromEnv();

class ThreadPool
{
  public:
    /**
     * The shared pool (hardware_concurrency workers, or
     * $CRITICS_THREADS).  Created on first use, joined at exit.  The
     * count is of *helper* threads: a forEach() caller drains its
     * region too, so CRITICS_THREADS=1 runs two bodies at once.
     */
    static ThreadPool &shared();

    /** @param threads 0 means threadsFromEnv(). */
    explicit ThreadPool(std::size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    std::size_t threadCount() const { return threads_.size(); }

    /** Register pool counters under `prefix` (e.g. "runner.pool");
     *  the pool must outlive the registry. */
    void registerStats(stats::StatRegistry &reg,
                       const std::string &prefix) const;

    /** Enqueue one task; runs as soon as a worker frees up. */
    void submit(std::function<void()> task);

    /** True on a thread owned by *any* ThreadPool (nested parallel
     *  regions fall back to serial execution instead of deadlocking). */
    static bool insideWorker();

    /**
     * Run body(0..n-1) across the pool and the calling thread, which
     * participates instead of idling, so up to threadCount() + 1
     * bodies run at once (one at a time when nested inside a worker).
     * Returns when all n indices are done; the first exception is
     * rethrown (remaining indices are abandoned once an error is seen).
     */
    void forEach(std::size_t n,
                 const std::function<void(std::size_t)> &body);

  private:
    void workerLoop();

    mutable std::mutex lock_;
    std::condition_variable wake_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> threads_;
    std::uint64_t tasksSubmitted_ = 0;
    std::uint64_t threadCount64_ = 0; ///< threads_.size(), viewable
    bool stop_ = false;
};

} // namespace critics::runner

#endif // CRITICS_RUNNER_THREAD_POOL_HH
