/** @file Unit tests for the statistics package. */

#include "stats/stats.hh"

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace proram::stats
{
namespace
{

TEST(Counter, StartsAtZeroAndIncrements)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    EXPECT_EQ(c.value(), 1u);
    c += 41;
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Distribution, TracksMoments)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);

    d.sample(2.0);
    d.sample(4.0);
    d.sample(6.0);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.sum(), 12.0);
    EXPECT_DOUBLE_EQ(d.mean(), 4.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 6.0);
}

TEST(Distribution, MinMaxWithNegativeSamples)
{
    Distribution d;
    d.sample(-3.0);
    d.sample(5.0);
    EXPECT_DOUBLE_EQ(d.min(), -3.0);
    EXPECT_DOUBLE_EQ(d.max(), 5.0);
}

TEST(Distribution, ResetClearsState)
{
    Distribution d;
    d.sample(10.0);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.sum(), 0.0);
}

TEST(StatGroup, RegistersAndReadsScalars)
{
    Counter c;
    c += 7;
    StatGroup g("oram");
    g.addScalar("pathReads", "paths read", c);
    EXPECT_DOUBLE_EQ(g.get("pathReads"), 7.0);
    c += 3;
    EXPECT_DOUBLE_EQ(g.get("pathReads"), 10.0);
}

TEST(StatGroup, RegistersClosures)
{
    StatGroup g("x");
    int v = 5;
    g.addValue("twice", "2v", [&v] { return 2.0 * v; });
    EXPECT_DOUBLE_EQ(g.get("twice"), 10.0);
    v = 6;
    EXPECT_DOUBLE_EQ(g.get("twice"), 12.0);
}

TEST(StatGroup, UnknownStatPanics)
{
    StatGroup g("x");
    EXPECT_THROW(g.get("missing"), SimPanic);
}

TEST(StatGroup, DumpContainsNameValueDesc)
{
    Counter c;
    ++c;
    StatGroup g("ctl");
    g.addScalar("hits", "cache hits", c);
    const std::string out = g.dump();
    EXPECT_NE(out.find("ctl.hits"), std::string::npos);
    EXPECT_NE(out.find("cache hits"), std::string::npos);
}

} // namespace
} // namespace proram::stats
