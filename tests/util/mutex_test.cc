/**
 * @file
 * The annotated mutex wrapper (util/mutex.hh) behind util::ThreadPool:
 * a ScopedLock holds its mutex exactly for its lifetime.
 */

#include <gtest/gtest.h>

#include <thread>

#include "util/mutex.hh"

namespace proram
{
namespace
{

/** try_lock from another thread: the owner may not probe its own
 *  std::mutex. */
bool
lockableElsewhere(util::Mutex &m)
{
    bool taken = false;
    std::thread t([&] {
        taken = m.native().try_lock();
        if (taken)
            m.native().unlock();
    });
    t.join();
    return taken;
}

TEST(ScopedLockTest, LocksAndReleases)
{
    util::Mutex m;
    {
        const util::ScopedLock lk(m);
        EXPECT_FALSE(lockableElsewhere(m));
    }
    EXPECT_TRUE(lockableElsewhere(m));
}

} // namespace
} // namespace proram
