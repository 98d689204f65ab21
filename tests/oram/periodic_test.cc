/** @file Unit tests for the periodic-access scheduler. */

#include "oram/periodic.hh"

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace proram
{
namespace
{

TEST(Periodic, DisabledModeSerializes)
{
    PeriodicScheduler s({false, Cycles{100}}, Cycles{1000});
    auto g1 = s.schedule(Cycles{0}, 1);
    EXPECT_EQ(g1.start, Cycles{0});
    EXPECT_EQ(g1.completion, Cycles{1000});
    // Arrives while busy: waits.
    auto g2 = s.schedule(Cycles{500}, 2);
    EXPECT_EQ(g2.start, Cycles{1000});
    EXPECT_EQ(g2.completion, Cycles{3000});
    // Arrives after idle gap: no dummies, starts immediately.
    EXPECT_EQ(s.drainDummies(Cycles{10000}), 0u);
    auto g3 = s.schedule(Cycles{10000}, 1);
    EXPECT_EQ(g3.start, Cycles{10000});
}

TEST(Periodic, EnabledPeriodIsPathPlusOint)
{
    PeriodicScheduler s({true, Cycles{100}}, Cycles{1000});
    EXPECT_EQ(s.period(), Cycles{1100});
}

TEST(Periodic, IdleSlotsBecomeDummies)
{
    PeriodicScheduler s({true, Cycles{100}}, Cycles{1000});
    EXPECT_EQ(s.drainDummies(Cycles{0}), 0u);
    auto g1 = s.schedule(Cycles{0}, 1);
    EXPECT_EQ(g1.start, Cycles{0});
    // Next slot is at 1100. Arriving at 5000 means slots 1100, 2200,
    // 3300, 4400 ran dummies; the request takes the 5500 slot.
    EXPECT_EQ(s.drainDummies(Cycles{5000}), 4u);
    auto g2 = s.schedule(Cycles{5000}, 1);
    EXPECT_EQ(g2.start, Cycles{5500});
    EXPECT_EQ(g2.completion, Cycles{6500});
}

TEST(Periodic, ScheduleBeforeDrainPanics)
{
    // A request must not pass over an idle slot that no dummy filled:
    // the caller drains up to the arrival first.
    PeriodicScheduler s({true, Cycles{100}}, Cycles{1000});
    s.schedule(Cycles{0}, 1);
    EXPECT_THROW(s.schedule(Cycles{5000}, 1), SimPanic);
    // An arrival at or before the next slot has nothing to drain.
    EXPECT_EQ(s.schedule(Cycles{1100}, 1).start, Cycles{1100});
}

TEST(Periodic, BackToBackRequestsUseConsecutiveSlots)
{
    PeriodicScheduler s({true, Cycles{100}}, Cycles{1000});
    s.schedule(Cycles{0}, 1);
    EXPECT_EQ(s.drainDummies(Cycles{0}), 0u);
    auto g2 = s.schedule(Cycles{0}, 1); // queued immediately
    EXPECT_EQ(g2.start, Cycles{1100});
}

TEST(Periodic, MultiPathRequestSpansSlots)
{
    PeriodicScheduler s({true, Cycles{100}}, Cycles{1000});
    auto g = s.schedule(Cycles{0}, 3);
    EXPECT_EQ(g.start, Cycles{0});
    // Paths at 0, 1100, 2200; data ready at 3200.
    EXPECT_EQ(g.completion, Cycles{3200});
    auto g2 = s.schedule(Cycles{0}, 1);
    EXPECT_EQ(g2.start, Cycles{3300});
}

TEST(Periodic, RequestAtExactSlotBoundaryTakesIt)
{
    PeriodicScheduler s({true, Cycles{100}}, Cycles{1000});
    s.schedule(Cycles{0}, 1);
    EXPECT_EQ(s.drainDummies(Cycles{1100}), 0u);
    auto g = s.schedule(Cycles{1100}, 1);
    EXPECT_EQ(g.start, Cycles{1100});
}

TEST(Periodic, DrainCountsTrailingDummies)
{
    PeriodicScheduler s({true, Cycles{100}}, Cycles{1000});
    s.schedule(Cycles{0}, 1);
    EXPECT_EQ(s.drainDummies(Cycles{4500}), 4u); // slots 1100..4400
    // Draining twice is idempotent for the same time.
    EXPECT_EQ(s.drainDummies(Cycles{4500}), 0u);
}

TEST(Periodic, DrainDisabledIsZero)
{
    PeriodicScheduler s({false, Cycles{100}}, Cycles{1000});
    s.schedule(Cycles{0}, 1);
    EXPECT_EQ(s.drainDummies(Cycles{100000}), 0u);
}

TEST(Periodic, ZeroPathCyclesRejected)
{
    EXPECT_THROW(PeriodicScheduler({true, Cycles{100}}, Cycles{0}), SimFatal);
}

TEST(Periodic, TimingIndependentOfRequestPattern)
{
    // The access-start sequence must be identical whatever the
    // arrival times - that is the security property.
    PeriodicScheduler a({true, Cycles{50}}, Cycles{500});
    PeriodicScheduler b({true, Cycles{50}}, Cycles{500});
    std::vector<Cycles> starts_a, starts_b;
    // Pattern A: bursts.
    starts_a.push_back(a.schedule(Cycles{0}, 1).start);
    starts_a.push_back(a.schedule(Cycles{1}, 1).start);
    starts_a.push_back(a.schedule(Cycles{2}, 1).start);
    // Pattern B: spread out; drain the idle slots in between first,
    // as the controller does before every request.
    starts_b.push_back(b.schedule(Cycles{0}, 1).start);
    // Slots 550 and 1100 are both before the arrival at 1400, so
    // both run dummies and the request takes slot 1650.
    EXPECT_EQ(b.drainDummies(Cycles{1400}), 2u);
    auto g = b.schedule(Cycles{1400}, 1);
    EXPECT_EQ(g.start, Cycles{1650});
    // Access starts in pattern B including dummies: 0, 550, 1100,
    // 1650 - a strict multiple-of-period grid, same as pattern A's
    // grid. Verify A's grid:
    EXPECT_EQ(starts_a[0], Cycles{0});
    EXPECT_EQ(starts_a[1], Cycles{550});
    EXPECT_EQ(starts_a[2], Cycles{1100});
}

} // namespace
} // namespace proram
