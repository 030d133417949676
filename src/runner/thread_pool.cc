#include "runner/thread_pool.hh"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "stats/registry.hh"
#include "support/number.hh"

namespace critics::runner
{

namespace
{

thread_local bool tlsInsideWorker = false;

} // namespace

std::optional<std::size_t>
parseThreads(const std::string &text)
{
    const auto threads = parseUint(text, kMaxThreads);
    if (!threads || *threads == 0)
        return std::nullopt;
    return static_cast<std::size_t>(*threads);
}

std::size_t
threadsFromEnv()
{
    const char *env = std::getenv("CRITICS_THREADS");
    if (env == nullptr || *env == '\0') {
        const unsigned hw = std::thread::hardware_concurrency();
        return hw ? hw : 4;
    }
    const auto threads = parseThreads(env);
    if (!threads) {
        critics_fatal("CRITICS_THREADS='", env, "' is not a thread count "
                      "in 1..", kMaxThreads);
    }
    return *threads;
}

ThreadPool &
ThreadPool::shared()
{
    static ThreadPool pool;
    return pool;
}

ThreadPool::ThreadPool(std::size_t threads)
{
    if (threads == 0)
        threads = threadsFromEnv();
    threads_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
        threads_.emplace_back([this] { workerLoop(); });
    threadCount64_ = threads_.size();
}

void
ThreadPool::registerStats(stats::StatRegistry &reg,
                          const std::string &prefix) const
{
    // Counter views are read without the lock at export time; a 64-bit
    // aligned load can at worst be one task stale, which is fine for
    // observability.
    reg.addCounter(prefix + ".tasks", tasksSubmitted_,
                   "work units enqueued");
    reg.addCounter(prefix + ".threads", threadCount64_,
                   "worker threads");
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> guard(lock_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &thread : threads_)
        thread.join();
}

bool
ThreadPool::insideWorker()
{
    return tlsInsideWorker;
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> guard(lock_);
        queue_.push_back(std::move(task));
        ++tasksSubmitted_;
    }
    wake_.notify_one();
}

void
ThreadPool::workerLoop()
{
    tlsInsideWorker = true;
    while (true) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> guard(lock_);
            wake_.wait(guard,
                       [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task(); // task owns its error handling (see forEach)
    }
}

void
ThreadPool::forEach(std::size_t n,
                    const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    // Serial fallbacks: a single iteration, or a nested parallel
    // region on a worker thread (waiting for pool capacity from inside
    // the pool would deadlock once all workers did it).
    if (n == 1 || insideWorker()) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    struct Region
    {
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> active{0};
        std::atomic<bool> failed{false};
        std::exception_ptr error;
        std::mutex lock;
        std::condition_variable done;
    };
    auto region = std::make_shared<Region>();

    auto drain = [region, &body, n]() {
        while (true) {
            const std::size_t i = region->next.fetch_add(1);
            if (i >= n || region->failed.load())
                return;
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> guard(region->lock);
                if (!region->error)
                    region->error = std::current_exception();
                region->failed.store(true);
                return;
            }
        }
    };

    const std::size_t helpers =
        std::min<std::size_t>(n - 1, threadCount());
    region->active.store(helpers);
    for (std::size_t w = 0; w < helpers; ++w) {
        submit([region, drain]() {
            drain();
            std::lock_guard<std::mutex> guard(region->lock);
            if (--region->active == 0)
                region->done.notify_all();
        });
    }

    drain(); // the caller participates

    std::unique_lock<std::mutex> guard(region->lock);
    region->done.wait(guard,
                      [&region] { return region->active.load() == 0; });
    if (region->error)
        std::rethrow_exception(region->error);
}

} // namespace critics::runner
