/** @file Tests for the per-component named-statistics views. */

#include <gtest/gtest.h>

#include "sim/secure_memory.hh"
#include "sim/system.hh"
#include "trace/synthetic.hh"

namespace proram
{
namespace
{

SystemConfig
cfg(MemScheme scheme)
{
    SystemConfig c = defaultSystemConfig();
    c.scheme = scheme;
    c.oram.numDataBlocks = 1ULL << 12;
    return c;
}

TEST(StatsDump, ControllerGroupTracksLiveCounters)
{
    SecureMemory mem(cfg(MemScheme::OramDynamic));
    for (Addr a = 0; a < 2000 * 128; a += 128)
        mem.write(a, 1);

    const auto group = mem.controller().buildStatGroup();
    const SimResult s = mem.stats();
    EXPECT_DOUBLE_EQ(group.get("pathAccesses"),
                     static_cast<double>(s.pathAccesses));
    EXPECT_DOUBLE_EQ(group.get("posMapAccesses"),
                     static_cast<double>(s.posMapAccesses));
    EXPECT_DOUBLE_EQ(group.get("merges"),
                     static_cast<double>(s.merges));
    EXPECT_GT(group.get("plbHits") + group.get("plbMisses"), 0.0);
}

/** Reads one counter off a controller; null for a derived entry. */
using ReadCounter = std::uint64_t (*)(const OramController &);

struct PinnedEntry
{
    const char *name;
    const char *desc;
    ReadCounter counter;
};

// The controller group's entries, in order: the text and
// proram-metrics-v1 dumps print exactly these.
const PinnedEntry kPinnedEntries[] = {
    {"realRequests", "demand misses served",
     [](const OramController &c) { return c.stats().realRequests; }},
    {"writebacks", "dirty-victim ORAM accesses",
     [](const OramController &c) { return c.stats().writebacks; }},
    {"pathAccesses", "total tree paths read+written",
     [](const OramController &c) { return c.stats().pathAccesses; }},
    {"posMapAccesses", "paths spent on PLB misses",
     [](const OramController &c) { return c.stats().posMapAccesses; }},
    {"bgEvictions", "background-eviction paths",
     [](const OramController &c) { return c.stats().bgEvictions; }},
    {"periodicDummies", "timing-protection dummy accesses",
     [](const OramController &c) { return c.stats().periodicDummies; }},
    {"traditionalPrefetches", "stream-prefetcher ORAM accesses",
     [](const OramController &c) {
         return c.stats().traditionalPrefetches;
     }},
    {"merges", "super blocks merged (Alg. 1)",
     [](const OramController &c) { return c.policyStats().merges; }},
    {"breaks", "super blocks broken (Alg. 2)",
     [](const OramController &c) { return c.policyStats().breaks; }},
    {"prefetchHits", "super-block prefetches used",
     [](const OramController &c) { return c.policyStats().prefetchHits; }},
    {"prefetchMissRate", "unused / issued prefetches", nullptr},
    {"stashOccupancyAvg", "mean stash blocks per access", nullptr},
    {"stashOccupancyMax", "peak sampled stash occupancy", nullptr},
    {"plbHits", "position-map block cache hits", nullptr},
    {"plbMisses", "position-map block cache misses", nullptr},
    {"ringBucketReads", "modeled single-block bucket reads (ring scheme)",
     [](const OramController &c) {
         return c.oram().engine().schemeCounters().bucketReads;
     }},
    {"ringDummyReads", "bucket reads that returned a dummy (ring scheme)",
     [](const OramController &c) {
         return c.oram().engine().schemeCounters().dummyReads;
     }},
    {"ringEarlyReshuffles",
     "buckets reshuffled on an exhausted read budget",
     [](const OramController &c) {
         return c.oram().engine().schemeCounters().earlyReshuffles;
     }},
    {"ringScheduledEvictions", "reverse-lexicographic eviction passes run",
     [](const OramController &c) {
         return c.oram().engine().schemeCounters().scheduledEvictions;
     }},
    {"arenaChunksMaterialized",
     "tree chunks allocated (all of an eager tree)", nullptr},
    {"arenaBytesResident", "bucket-record bytes of allocated tree chunks",
     nullptr},
    {"arenaBytesTotal", "bucket-record bytes if every chunk were allocated",
     nullptr},
};

TEST(StatsDump, ControllerGroupKeepsItsEntries)
{
    for (const SchemeKind kind : {SchemeKind::Path, SchemeKind::Ring}) {
        SCOPED_TRACE(schemeKindName(kind));
        SystemConfig c = cfg(MemScheme::OramDynamic);
        c.oram.scheme = kind;
        System sys(c);
        SyntheticConfig t;
        t.footprintBlocks = 1024;
        t.numAccesses = 4000;
        SyntheticGenerator gen(t);
        sys.run(gen);

        const OramController &ctl = *sys.controller();
        const auto group = ctl.buildStatGroup();
        const auto &entries = group.entries();
        ASSERT_EQ(entries.size(), std::size(kPinnedEntries));
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const PinnedEntry &want = kPinnedEntries[i];
            SCOPED_TRACE(want.name);
            EXPECT_EQ(entries[i].name, want.name);
            EXPECT_EQ(entries[i].desc, want.desc);
            if (want.counter != nullptr) {
                EXPECT_DOUBLE_EQ(entries[i].value(),
                                 static_cast<double>(want.counter(ctl)));
            }
        }
        EXPECT_GT(group.get("pathAccesses"), 0.0);
        EXPECT_GT(group.get("merges"), 0.0);
        EXPECT_EQ(group.get("ringBucketReads") > 0.0,
                  kind == SchemeKind::Ring);
    }
}

TEST(StatsDump, GroupIsLive)
{
    SecureMemory mem(cfg(MemScheme::OramBaseline));
    const auto group = mem.controller().buildStatGroup();
    const double before = group.get("pathAccesses");
    mem.read(0);
    EXPECT_GT(group.get("pathAccesses"), before);
}

TEST(StatsDump, SystemDumpContainsBothGroups)
{
    System sys(cfg(MemScheme::OramDynamic));
    SyntheticConfig t;
    t.footprintBlocks = 1024;
    t.numAccesses = 2000;
    SyntheticGenerator gen(t);
    sys.run(gen);

    const std::string dump = sys.dumpStats();
    EXPECT_NE(dump.find("caches.llcMisses"), std::string::npos);
    EXPECT_NE(dump.find("oram_controller.pathAccesses"),
              std::string::npos);
    EXPECT_NE(dump.find("oram_controller.stashOccupancyAvg"),
              std::string::npos);
}

TEST(StatsDump, DramSystemDumpsCachesOnly)
{
    System sys(cfg(MemScheme::Dram));
    const std::string dump = sys.dumpStats();
    EXPECT_NE(dump.find("caches.l1Hits"), std::string::npos);
    EXPECT_EQ(dump.find("oram_controller"), std::string::npos);
}

TEST(StatsDump, SecureMemoryDump)
{
    SecureMemory mem(cfg(MemScheme::OramStatic));
    mem.write(0, 1);
    const std::string dump = mem.dumpStats();
    EXPECT_NE(dump.find("oram_controller.realRequests"),
              std::string::npos);
}

} // namespace
} // namespace proram
