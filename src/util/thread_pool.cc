#include "util/thread_pool.hh"

#include <cstdlib>
#include <limits>

#include "util/logging.hh"

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
    if (const char *env = std::getenv("PRORAM_BENCH_THREADS")) {
        char *end = nullptr;
        const unsigned long long v = std::strtoull(env, &end, 10);
        // strtoull negates a leading '-' and saturates on overflow;
        // both land outside 1..UINT_MAX.
        fatal_if(end == env || *end != '\0' || v == 0 ||
                     v > std::numeric_limits<unsigned>::max(),
                 "PRORAM_BENCH_THREADS: invalid value '", env,
                 "' (want a positive integer)");
        return static_cast<unsigned>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

} // namespace proram::util
