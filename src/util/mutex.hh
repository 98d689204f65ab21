/**
 * @file
 * Capability-annotated mutex and scoped lock for util::ThreadPool.
 *
 * std::mutex and std::unique_lock are invisible to clang's Thread
 * Safety Analysis (libstdc++ ships them unannotated), so the pool's
 * queue lock is a util::Mutex - a PRORAM_CAPABILITY wrapper - and
 * every hold is a util::ScopedLock - a PRORAM_SCOPED_CAPABILITY RAII
 * guard the analysis can track against the PRORAM_GUARDED_BY members.
 * Both compile to exactly the std::mutex operations.
 *
 * Condition-variable waits need the native std::mutex handle
 * (std::condition_variable::wait takes std::unique_lock<std::mutex>);
 * that one site uses native() and is marked
 * PRORAM_NO_THREAD_SAFETY_ANALYSIS with a why-comment.
 */

#ifndef PRORAM_UTIL_MUTEX_HH
#define PRORAM_UTIL_MUTEX_HH

#include <mutex>

#include "util/annotations.hh"

namespace proram::util
{

/** Lockable capability wrapping std::mutex. */
class PRORAM_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;

    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() PRORAM_ACQUIRE() { mtx_.lock(); }
    void unlock() PRORAM_RELEASE() { mtx_.unlock(); }

    /** Underlying std::mutex, for condition-variable waits only. */
    std::mutex &native() { return mtx_; }

  private:
    std::mutex mtx_;
};

/** RAII hold on a util::Mutex for the lifetime of the object. */
class PRORAM_SCOPED_CAPABILITY ScopedLock
{
  public:
    explicit ScopedLock(Mutex &m) PRORAM_ACQUIRE(m) : mtx_(&m)
    {
        m.lock();
    }

    ScopedLock(const ScopedLock &) = delete;
    ScopedLock &operator=(const ScopedLock &) = delete;

    ~ScopedLock() PRORAM_RELEASE() { mtx_->unlock(); }

  private:
    Mutex *const mtx_;
};

} // namespace proram::util

#endif // PRORAM_UTIL_MUTEX_HH
