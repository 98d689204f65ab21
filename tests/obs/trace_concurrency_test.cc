/**
 * @file
 * Concurrency tests for the lock-free ring tracer, recorded from
 * several threads at once, as the grid runner's threads record in a
 * parallel `paper` run. These tests are the workload behind CI's
 * ThreadSanitizer job; they also run in the normal suites, where the
 * assertions below check the counting invariants that survive
 * concurrency.
 *
 * What the tracer guarantees under concurrent record() (and what TSan
 * validates, see obs/trace.cc):
 *  - every record() lands exactly once in the per-category counters
 *    (fetch_add, relaxed: counters are monotonic totals with no
 *    ordering obligations);
 *  - ring slots are claimed uniquely via fetch_add on the cursor, so
 *    two recorders never interleave within one slot *unless* the ring
 *    wraps a full lap mid-write - the documented torn-slot case that
 *    writeJson tolerates and the capacity here avoids;
 *  - enable/disable flips are racy-by-design relaxed loads: a recorder
 *    may observe the old value for one event, never anything torn.
 */

#include "obs/trace.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#if PRORAM_TRACE_ENABLED

namespace proram
{
namespace
{

/** RAII: enable an empty sink; restore disabled + clear on exit. */
class SinkSession
{
  public:
    SinkSession()
    {
        obs::TraceSink::instance().clear();
        obs::TraceSink::setEnabled(true);
    }
    ~SinkSession()
    {
        obs::TraceSink::setEnabled(false);
        obs::TraceSink::instance().clear();
    }
};

/** Run @p body(t) on threads t = 0..n-1 at once; join them all. */
template <typename Body>
void
onThreads(unsigned n, const Body &body)
{
    std::vector<std::jthread> threads;
    for (unsigned t = 0; t < n; ++t)
        threads.emplace_back(body, t);
}

std::uint64_t
countFor(const char *cat)
{
    for (const auto &[name, count] :
         obs::TraceSink::instance().categoryCounts()) {
        if (name == cat)
            return count;
    }
    return 0;
}

TEST(TraceConcurrency, PooledRecordersCountEveryEvent)
{
    SinkSession session;
    constexpr std::uint64_t kEventsPerJob = 5000;
    constexpr unsigned kJobs = 8;

    onThreads(kJobs, [](unsigned j) {
        for (std::uint64_t i = 0; i < kEventsPerJob; ++i) {
            PRORAM_TRACE_EVENT("tsan", "tick", "job",
                               static_cast<std::uint64_t>(j));
            {
                PRORAM_TRACE_SCOPE_ARG("tsan", "scope", "i", i);
            }
        }
    });

    // fetch_add makes the category counters exact whatever the
    // interleaving; the ring itself may have wrapped (that only
    // affects which events survive, not how many were counted).
    EXPECT_EQ(countFor("tsan"), 2 * kEventsPerJob * kJobs);
    EXPECT_GE(obs::TraceSink::instance().size(), std::size_t{1});
}

TEST(TraceConcurrency, RecordersRaceEnableFlips)
{
    // Drive recorders while another thread toggles the enable flag:
    // the relaxed load in the macros means some events are dropped at
    // the flip boundary - by design - but nothing tears and counts
    // stay <= the attempted total.
    SinkSession session;
    constexpr std::uint64_t kAttempts = 20000;

    std::jthread toggler([](const std::stop_token &stop) {
        bool on = false;
        while (!stop.stop_requested()) {
            obs::TraceSink::setEnabled(on);
            on = !on;
        }
        obs::TraceSink::setEnabled(true);
    });
    onThreads(2, [](unsigned) {
        for (std::uint64_t i = 0; i < kAttempts; ++i)
            PRORAM_TRACE_EVENT("flip", "evt", "i", i);
    });
    toggler.request_stop();
    toggler.join();

    EXPECT_LE(countFor("flip"), 2 * kAttempts);
}

TEST(TraceConcurrency, CategoryRegistryUnderContention)
{
    // First use of each category races compare_exchange_strong on the
    // registry slots; every thread must settle on one slot per
    // distinct literal (string-compare fallback across TUs).
    SinkSession session;
    static const char *const kCats[] = {"ca", "cb", "cc", "cd",
                                        "ce", "cf", "cg", "ch"};
    constexpr std::uint64_t kPerCat = 500;

    onThreads(4, [](unsigned t) {
        for (std::uint64_t i = 0; i < kPerCat; ++i) {
            for (const char *cat : kCats)
                obs::TraceSink::instance().record(cat, "evt", 'i', 0, 0,
                                                  nullptr, t);
        }
    });

    for (const char *cat : kCats)
        EXPECT_EQ(countFor(cat), 4 * kPerCat) << cat;
}

TEST(TraceConcurrency, RingWrapUnderContention)
{
    // Force the full-lap collision the per-slot seqlock exists for:
    // a tiny ring laps dozens of times while four recorders hammer
    // it, so tickets `capacity` apart race for the same physical
    // slot. Counters must stay exact (they count attempts), dropped()
    // must equal the wrap overshoot, and the quiesced dump must see
    // only whole events.
    obs::TraceSink::instance().setCapacity(1024);
    SinkSession session;
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kPerThread = 20000;

    onThreads(kThreads, [](unsigned) {
        for (std::uint64_t i = 0; i < kPerThread; ++i)
            PRORAM_TRACE_EVENT("wrap", "evt", "i", i);
    });
    obs::TraceSink::setEnabled(false);

    const std::uint64_t total = kThreads * kPerThread;
    EXPECT_EQ(countFor("wrap"), total);
    EXPECT_EQ(obs::TraceSink::instance().size(), std::size_t{1024});
    EXPECT_EQ(obs::TraceSink::instance().dropped(), total - 1024);
    const std::string json = obs::TraceSink::instance().json();
    EXPECT_NE(json.find("\"wrap\""), std::string::npos);

    // Restore the default ring for the rest of the suite.
    obs::TraceSink::instance().setCapacity(std::size_t{1} << 18);
}

TEST(TraceConcurrency, JsonDumpAfterQuiescePreservesEvents)
{
    // The sanctioned dump protocol: quiesce recording, then read.
    SinkSession session;
    onThreads(4, [](unsigned) {
        for (int i = 0; i < 1000; ++i)
            PRORAM_TRACE_EVENT("dump", "evt", "i",
                               static_cast<std::uint64_t>(i));
    });
    obs::TraceSink::setEnabled(false);

    const std::string json = obs::TraceSink::instance().json();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"dump\""), std::string::npos);
}

} // namespace
} // namespace proram

#endif // PRORAM_TRACE_ENABLED
