#include "util/thread_pool.hh"

#include <stdexcept>

namespace cpe::util {

unsigned
ThreadPool::hardwareThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = 1;
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this]() { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    shutdown();
}

std::size_t
ThreadPool::pendingTasks() const
{
    std::lock_guard lock(mutex_);
    return inFlight_;
}

void
ThreadPool::enqueue(std::packaged_task<void()> task)
{
    {
        std::lock_guard lock(mutex_);
        if (stopping_)
            throw std::runtime_error("ThreadPool: submit after shutdown");
        queue_.push_back(std::move(task));
        ++inFlight_;
    }
    workAvailable_.notify_one();
}

void
ThreadPool::shutdown()
{
    {
        std::lock_guard lock(mutex_);
        if (stopping_ && workers_.empty())
            return;
        stopping_ = true;
    }
    workAvailable_.notify_all();
    for (auto &worker : workers_)
        worker.join();
    workers_.clear();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::packaged_task<void()> task;
        {
            std::unique_lock lock(mutex_);
            workAvailable_.wait(lock, [this]() {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return;  // stopping_ and nothing left to drain
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();  // a throwing task stores into its future; never escapes
        {
            std::lock_guard lock(mutex_);
            --inFlight_;
        }
    }
}

} // namespace cpe::util
