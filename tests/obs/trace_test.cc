/**
 * @file
 * Event-tracer tests: ring-buffer wrap semantics, Chrome trace_event
 * JSON round-trip, layer coverage of the instrumented simulator (the
 * ISSUE acceptance asks for >= 8 distinct categories spanning
 * cpu -> controller -> oram -> dram), and bit-invisibility of
 * enabled tracing on simulation results.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "obs/trace.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "sim/system_config.hh"
#include "trace/benchmarks.hh"
#include "trace/trace_file.hh"

#include "mini_json.hh"

namespace proram
{
namespace
{

using obs::TraceSink;
using test::JsonValue;
using test::parseJson;

/** Quiesce, shrink, and clear the global sink around every test so
 *  cases cannot see each other's events. */
class TraceSinkTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        TraceSink::setEnabled(false);
        sink().setCapacity(1 << 12);
        sink().clear();
    }

    void
    TearDown() override
    {
        TraceSink::setEnabled(false);
        sink().setCapacity(1 << 12);
        sink().clear();
    }

    TraceSink &
    sink()
    {
        return TraceSink::instance();
    }
};

TEST_F(TraceSinkTest, DisabledSinkRecordsNothing)
{
    ASSERT_FALSE(TraceSink::enabled());
    PRORAM_TRACE_EVENT("test", "ignored", "v", 1);
    {
        PRORAM_TRACE_SCOPE("test", "ignoredScope");
    }
    obs::traceInstant("test", "ignoredDirect", "v", 2);
    EXPECT_EQ(sink().size(), 0u);
    EXPECT_EQ(sink().dropped(), 0u);
}

TEST_F(TraceSinkTest, RingWrapKeepsMostRecentAndCountsDropped)
{
    sink().setCapacity(1024);
    ASSERT_EQ(sink().capacity(), 1024u);
    TraceSink::setEnabled(true);

    constexpr std::uint64_t kEvents = 1500;
    for (std::uint64_t i = 0; i < kEvents; ++i)
        obs::traceInstant("test", "wrap", "i", i);
    TraceSink::setEnabled(false);

    EXPECT_EQ(sink().size(), 1024u);
    EXPECT_EQ(sink().dropped(), kEvents - 1024);

    // The survivors must be exactly the most recent 1024 events,
    // oldest first (events are emitted in timestamp order).
    const JsonValue doc = parseJson(sink().json());
    const JsonValue &events = doc.at("traceEvents");
    ASSERT_TRUE(events.isArray());
    ASSERT_EQ(events.items.size(), 1024u);
    EXPECT_EQ(events.items.front().at("args").at("i").number,
              static_cast<double>(kEvents - 1024));
    EXPECT_EQ(events.items.back().at("args").at("i").number,
              static_cast<double>(kEvents - 1));
    EXPECT_EQ(doc.at("otherData").at("droppedEvents").number,
              static_cast<double>(kEvents - 1024));
}

TEST_F(TraceSinkTest, JsonRoundTripsChromeSchema)
{
    // Drive the sink API directly (not the macros) so the schema is
    // covered in -DPRORAM_TRACING=OFF builds too.
    TraceSink::setEnabled(true);
    {
        obs::TraceScope scope("testcat", "scopedWork", "leaf", 42);
    }
    obs::traceInstant("testcat", "pointEvent", "block", 7);
    TraceSink::setEnabled(false);

    const JsonValue doc = parseJson(sink().json());
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("displayTimeUnit").str, "ns");

    const JsonValue &events = doc.at("traceEvents");
    ASSERT_TRUE(events.isArray());
    ASSERT_EQ(events.items.size(), 2u);

    const JsonValue *scoped = nullptr;
    const JsonValue *instant = nullptr;
    for (const JsonValue &e : events.items) {
        // Every event carries the keys Perfetto's JSON importer
        // requires.
        for (const char *key : {"name", "cat", "ph", "ts", "pid",
                                "tid"}) {
            EXPECT_TRUE(e.has(key)) << "missing " << key;
        }
        if (e.at("name").str == "scopedWork")
            scoped = &e;
        if (e.at("name").str == "pointEvent")
            instant = &e;
    }
    ASSERT_NE(scoped, nullptr);
    ASSERT_NE(instant, nullptr);

    EXPECT_EQ(scoped->at("ph").str, "X");
    EXPECT_EQ(scoped->at("cat").str, "testcat");
    EXPECT_TRUE(scoped->has("dur"));
    EXPECT_GE(scoped->at("dur").number, 0.0);
    EXPECT_EQ(scoped->at("args").at("leaf").number, 42.0);

    EXPECT_EQ(instant->at("ph").str, "i");
    EXPECT_FALSE(instant->has("dur"));
    EXPECT_EQ(instant->at("args").at("block").number, 7.0);
}

TEST_F(TraceSinkTest, CategoryCountsSurviveRingWrap)
{
    sink().setCapacity(1024);
    TraceSink::setEnabled(true);
    for (int i = 0; i < 2000; ++i)
        obs::traceInstant("catA", "e", nullptr, 0);
    for (int i = 0; i < 30; ++i)
        obs::traceInstant("catB", "e", nullptr, 0);
    TraceSink::setEnabled(false);

    std::uint64_t a = 0, b = 0;
    for (const auto &[name, count] : sink().categoryCounts()) {
        if (name == "catA")
            a = count;
        if (name == "catB")
            b = count;
    }
    // catA wrapped out of the ring; the counters still hold the full
    // totals (they feed the metrics registry, not the ring dump).
    EXPECT_EQ(a, 2000u);
    EXPECT_EQ(b, 30u);
}

#if PRORAM_TRACE_ENABLED

TEST_F(TraceSinkTest, TracedRunCoversEveryInstrumentedLayer)
{
    sink().setCapacity(1 << 14);
    TraceSink::setEnabled(true);

    // One insecure-DRAM run (cpu + dram categories) and one dynamic
    // ORAM run under periodic accesses (controller, posmap, plb,
    // oram, evict, dummy, policy).
    SystemConfig periodic_cfg = defaultSystemConfig();
    periodic_cfg.controller.periodic.enabled = true;
    const Experiment exp(periodic_cfg, /*trace_scale=*/0.02);
    run(exp.cell(MemScheme::Dram, profileByName("cholesky")));
    run(exp.cell(MemScheme::OramDynamic, profileByName("cholesky")));
    TraceSink::setEnabled(false);

    std::set<std::string> cats;
    for (const auto &[name, count] : sink().categoryCounts()) {
        EXPECT_GT(count, 0u);
        cats.insert(name);
    }
    for (const char *expected :
         {"cpu", "dram", "controller", "plb", "posmap", "oram",
          "evict", "dummy", "policy"}) {
        EXPECT_TRUE(cats.count(expected))
            << "category '" << expected << "' never fired";
    }
    EXPECT_GE(cats.size(), 8u);

    // The full dump of a real run must still be valid trace JSON.
    const JsonValue doc = parseJson(sink().json());
    const JsonValue &events = doc.at("traceEvents");
    ASSERT_TRUE(events.isArray());
    EXPECT_EQ(events.items.size(), sink().size());
    double last_ts = 0.0;
    for (const JsonValue &e : events.items) {
        ASSERT_TRUE(e.has("ph"));
        const std::string &ph = e.at("ph").str;
        EXPECT_TRUE(ph == "X" || ph == "i") << "phase " << ph;
        EXPECT_GE(e.at("ts").number, last_ts);
        last_ts = e.at("ts").number;
    }
}

TEST_F(TraceSinkTest, EnabledTracingIsBitInvisibleToResults)
{
    std::vector<TraceRecord> records;
    {
        auto gen = makeGenerator(profileByName("cholesky"), 0.02);
        TraceRecord rec;
        while (gen->next(rec))
            records.push_back(rec);
    }
    SystemConfig cfg = defaultSystemConfig();
    cfg.scheme = MemScheme::OramDynamic;

    auto run = [&] {
        System system(cfg);
        ReplayGenerator replay(records);
        return system.run(replay);
    };

    TraceSink::setEnabled(false);
    const SimResult quiet = run();
    TraceSink::setEnabled(true);
    const SimResult traced = run();
    TraceSink::setEnabled(false);

    EXPECT_GT(sink().size(), 0u) << "traced run recorded nothing";
    EXPECT_EQ(quiet.cycles, traced.cycles);
    EXPECT_EQ(quiet.references, traced.references);
    EXPECT_EQ(quiet.llcMisses, traced.llcMisses);
    EXPECT_EQ(quiet.writebacks, traced.writebacks);
    EXPECT_EQ(quiet.memAccesses, traced.memAccesses);
    EXPECT_EQ(quiet.pathAccesses, traced.pathAccesses);
    EXPECT_EQ(quiet.posMapAccesses, traced.posMapAccesses);
    EXPECT_EQ(quiet.bgEvictions, traced.bgEvictions);
    EXPECT_EQ(quiet.periodicDummies, traced.periodicDummies);
    EXPECT_EQ(quiet.merges, traced.merges);
    EXPECT_EQ(quiet.breaks, traced.breaks);
    EXPECT_DOUBLE_EQ(quiet.avgStashOccupancy,
                     traced.avgStashOccupancy);
}

#endif // PRORAM_TRACE_ENABLED

} // namespace
} // namespace proram
