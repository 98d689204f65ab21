/** @file Unit tests for the statistics package. */

#include "stats/stats.hh"

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace proram::stats
{
namespace
{

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

struct Tally
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
};

constexpr Field<Tally> kTallyFields[] = {
    {"writes", "blocks written", &Tally::writes},
    {"reads", "blocks read", &Tally::reads},
};

TEST(StatGroup, RegistersAndReadsScalars)
{
    Tally t;
    t.reads = 7;
    StatGroup g("oram");
    addFields(g, kTallyFields, &t);
    ASSERT_EQ(g.entries().size(), 2u);
    EXPECT_EQ(g.entries()[0].name, "writes");
    EXPECT_EQ(g.entries()[0].desc, "blocks written");
    EXPECT_EQ(g.entries()[1].name, "reads");
    EXPECT_DOUBLE_EQ(g.get("reads"), 7.0);
    EXPECT_DOUBLE_EQ(g.get("writes"), 0.0);
    t.reads += 3;
    t.writes = 2;
    EXPECT_DOUBLE_EQ(g.get("reads"), 10.0);
    EXPECT_DOUBLE_EQ(g.get("writes"), 2.0);
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
    StatGroup g("ctl");
    g.addValue("hits", "cache hits", [] { return 1.0; });
    const std::string out = g.dump();
    EXPECT_NE(out.find("ctl.hits"), std::string::npos);
    EXPECT_NE(out.find("cache hits"), std::string::npos);
}

} // namespace
} // namespace proram::stats
