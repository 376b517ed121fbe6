/**
 * @file
 * A fixed-size worker-thread pool with a FIFO work queue.
 *
 * Tasks are submitted as callables and return std::futures, so results
 * and exceptions propagate to the submitter exactly as they would from
 * a direct call: a task that throws stores the exception in its future
 * and the pool keeps running.  Destruction (or shutdown()) is graceful
 * — every task already queued still runs before the workers join.
 *
 * The pool is the execution engine under sim::SweepRunner and knows
 * nothing of the simulator.  It reads no clocks and keeps no
 * telemetry: the work it runs is accounted where it is done, in each
 * RunOutcome and in TraceCache::Stats.
 */

#ifndef CPE_UTIL_THREAD_POOL_HH
#define CPE_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace cpe::util {

/** Fixed-size thread pool with graceful shutdown. */
class ThreadPool
{
  public:
    /**
     * Start @p threads workers (clamped to >= 1).  The default is one
     * worker per hardware thread.
     */
    explicit ThreadPool(unsigned threads = hardwareThreads());

    /** Drains the queue and joins every worker (see shutdown()). */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /** Tasks accepted and not yet finished (snapshot; for tests). */
    std::size_t pendingTasks() const;

    /**
     * Enqueue @p fn for execution and return a future for its result.
     * An exception thrown by the task is captured into the future and
     * rethrown from get().  Throws std::runtime_error if the pool has
     * been shut down.
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using Result = std::invoke_result_t<std::decay_t<F>>;
        std::packaged_task<Result()> task(std::forward<F>(fn));
        std::future<Result> future = task.get_future();
        enqueue(std::packaged_task<void()>(
            [task = std::move(task)]() mutable { task(); }));
        return future;
    }

    /**
     * Stop accepting work, run everything already queued, and join the
     * workers.  Idempotent; called automatically by the destructor.
     */
    void shutdown();

    /** @return std::thread::hardware_concurrency() clamped to >= 1. */
    static unsigned hardwareThreads();

  private:
    void enqueue(std::packaged_task<void()> task);
    void workerLoop();

    mutable std::mutex mutex_;
    std::condition_variable workAvailable_;
    std::deque<std::packaged_task<void()>> queue_;
    std::vector<std::thread> workers_;
    std::size_t inFlight_ = 0;  ///< queued + currently executing
    bool stopping_ = false;
};

} // namespace cpe::util

#endif // CPE_UTIL_THREAD_POOL_HH
