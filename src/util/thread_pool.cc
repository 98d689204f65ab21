#include "util/thread_pool.hh"

#include <limits>

#include "util/env.hh"

namespace proram::util
{

ThreadPool::ThreadPool(unsigned num_threads)
{
    if (num_threads == 0)
        num_threads = 1;
    workers_.reserve(num_threads);
    for (unsigned i = 0; i < num_threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        const ScopedLock lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::enqueue(std::function<void()> job)
{
    {
        const ScopedLock lock(mutex_);
        queue_.push_back(std::move(job));
    }
    cv_.notify_one();
}

// Thread-safety escape: the condition-variable wait needs the native
// std::mutex handle and releases/reacquires it invisibly.
void
ThreadPool::workerLoop() PRORAM_NO_THREAD_SAFETY_ANALYSIS
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_.native());
            cv_.wait(lock,
                     [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping_ and drained
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        job(); // packaged_task: exceptions land in the future
    }
}

unsigned
ThreadPool::defaultThreadCount()
{
    constexpr unsigned kMax = std::numeric_limits<unsigned>::max();
    const unsigned hw = std::thread::hardware_concurrency();
    const auto n = env::count("PRORAM_BENCH_THREADS", hw == 0 ? 1 : hw, kMax);
    return static_cast<unsigned>(n);
}

} // namespace proram::util
