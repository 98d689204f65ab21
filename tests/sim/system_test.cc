/** @file Unit tests for system configuration and wiring. */

#include "sim/system.hh"

#include <gtest/gtest.h>

#include <string>

#include "trace/synthetic.hh"
#include "util/logging.hh"

namespace proram
{
namespace
{

SystemConfig
smallCfg(MemScheme scheme)
{
    SystemConfig cfg = defaultSystemConfig();
    cfg.scheme = scheme;
    cfg.oram.numDataBlocks = 1ULL << 12;
    return cfg;
}

SyntheticConfig
tinyTrace()
{
    SyntheticConfig t;
    t.footprintBlocks = 2048;
    t.numAccesses = 4000;
    t.localityFraction = 0.5;
    t.seed = 13;
    return t;
}

TEST(SystemConfig, SchemeNamesMatchPaperLegends)
{
    EXPECT_STREQ(schemeName(MemScheme::Dram), "dram");
    EXPECT_STREQ(schemeName(MemScheme::DramPrefetch), "dram_pre");
    EXPECT_STREQ(schemeName(MemScheme::OramBaseline), "oram");
    EXPECT_STREQ(schemeName(MemScheme::OramPrefetch), "oram_pre");
    EXPECT_STREQ(schemeName(MemScheme::OramStatic), "stat");
    EXPECT_STREQ(schemeName(MemScheme::OramDynamic), "dyn");
}

TEST(SystemConfig, DefaultsMatchTable1)
{
    const SystemConfig cfg = defaultSystemConfig();
    EXPECT_EQ(cfg.hierarchy.l1.sizeBytes, 32u * 1024);
    EXPECT_EQ(cfg.hierarchy.l1.ways, 4u);
    EXPECT_EQ(cfg.hierarchy.l2.sizeBytes, 512u * 1024);
    EXPECT_EQ(cfg.hierarchy.l2.ways, 8u);
    EXPECT_EQ(cfg.hierarchy.l1.lineBytes, 128u);
    EXPECT_EQ(cfg.oram.blockBytes, 128u);
    EXPECT_EQ(cfg.oram.z, 3u);
    EXPECT_EQ(cfg.oram.stashCapacity, 100u);
    EXPECT_EQ(cfg.oram.hierarchies, 4u);
    EXPECT_DOUBLE_EQ(cfg.oram.dramBytesPerCycle, 16.0);
    EXPECT_EQ(cfg.dram.dram.latency, Cycles{100});
    EXPECT_EQ(cfg.dynamic.maxSbSize, 2u);
}

TEST(SystemConfig, SetLineBytesPropagates)
{
    SystemConfig cfg = defaultSystemConfig();
    cfg.setLineBytes(64);
    EXPECT_EQ(cfg.hierarchy.l1.lineBytes, 64u);
    EXPECT_EQ(cfg.hierarchy.l2.lineBytes, 64u);
    EXPECT_EQ(cfg.oram.blockBytes, 64u);
    EXPECT_EQ(cfg.dram.dram.lineBytes, 64u);
    EXPECT_NO_THROW(cfg.validate());
}

TEST(SystemConfig, SetBandwidthPropagates)
{
    SystemConfig cfg = defaultSystemConfig();
    cfg.setDramBandwidthGBs(4.0);
    EXPECT_DOUBLE_EQ(cfg.oram.dramBytesPerCycle, 4.0);
    EXPECT_DOUBLE_EQ(cfg.dram.dram.bytesPerCycle, 4.0);
}

TEST(SystemConfig, ValidateCatchesMismatchedLines)
{
    SystemConfig cfg = defaultSystemConfig();
    cfg.oram.blockBytes = 64;
    EXPECT_THROW(cfg.validate(), SimFatal);
}

TEST(SystemConfig, PrefetcherFieldsMustAgreeWithTheScheme)
{
    // System sets both prefetcher fields from the scheme, so one set
    // against it would be silently dropped: it is fatal, and the
    // message names the field and the scheme.
    const auto fatalMessage = [](const SystemConfig &cfg) {
        try {
            System sys(cfg);
        } catch (const SimFatal &e) {
            return std::string(e.what());
        }
        return std::string();
    };
    SystemConfig ctl = smallCfg(MemScheme::OramBaseline);
    ctl.controller.traditionalPrefetcher = true;
    const std::string ctl_msg = fatalMessage(ctl);
    EXPECT_NE(ctl_msg.find("controller.traditionalPrefetcher"),
              std::string::npos)
        << ctl_msg;
    EXPECT_NE(ctl_msg.find("scheme oram "), std::string::npos) << ctl_msg;

    SystemConfig dram = smallCfg(MemScheme::Dram);
    dram.dram.prefetch = true;
    const std::string dram_msg = fatalMessage(dram);
    EXPECT_NE(dram_msg.find("dram.prefetch"), std::string::npos) << dram_msg;
    EXPECT_NE(dram_msg.find("scheme dram "), std::string::npos) << dram_msg;

    // Set where the scheme runs that prefetcher anyway, they agree.
    ctl.scheme = MemScheme::OramPrefetch;
    EXPECT_NO_THROW(System{ctl});
    dram.scheme = MemScheme::DramPrefetch;
    EXPECT_NO_THROW(System{dram});
}

TEST(System, DramSchemeHasNoController)
{
    System sys(smallCfg(MemScheme::Dram));
    EXPECT_EQ(sys.controller(), nullptr);
}

TEST(System, OramSchemesHaveController)
{
    for (MemScheme s : {MemScheme::OramBaseline, MemScheme::OramStatic,
                        MemScheme::OramDynamic,
                        MemScheme::OramPrefetch}) {
        System sys(smallCfg(s));
        EXPECT_NE(sys.controller(), nullptr);
    }
}

TEST(System, RunProducesConsistentResults)
{
    System sys(smallCfg(MemScheme::OramBaseline));
    SyntheticGenerator gen(tinyTrace());
    const SimResult res = sys.run(gen);
    EXPECT_EQ(res.scheme, "oram");
    EXPECT_EQ(res.references, 4000u);
    EXPECT_GT(res.cycles, Cycles{0});
    EXPECT_GT(res.llcMisses, 0u);
    EXPECT_EQ(res.memAccesses, res.pathAccesses);
    EXPECT_GE(res.pathAccesses, res.llcMisses);
}

TEST(System, RunsAreDeterministic)
{
    SimResult a, b;
    {
        System sys(smallCfg(MemScheme::OramDynamic));
        SyntheticGenerator gen(tinyTrace());
        a = sys.run(gen);
    }
    {
        System sys(smallCfg(MemScheme::OramDynamic));
        SyntheticGenerator gen(tinyTrace());
        b = sys.run(gen);
    }
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.pathAccesses, b.pathAccesses);
    EXPECT_EQ(a.merges, b.merges);
    EXPECT_EQ(a.breaks, b.breaks);
}

TEST(System, OramIsSlowerThanDram)
{
    SyntheticGenerator g1(tinyTrace()), g2(tinyTrace());
    System dram(smallCfg(MemScheme::Dram));
    System oram(smallCfg(MemScheme::OramBaseline));
    const auto rd = dram.run(g1);
    const auto ro = oram.run(g2);
    EXPECT_GT(ro.cycles, rd.cycles)
        << "Path ORAM must cost more than insecure DRAM (Sec. 2.6)";
}

TEST(System, DynamicStatsPopulated)
{
    SystemConfig cfg = smallCfg(MemScheme::OramDynamic);
    cfg.oram.numDataBlocks = 1ULL << 13;
    System sys(cfg);
    SyntheticConfig t = tinyTrace();
    // Footprint must exceed the LLC (4096 lines) or prefetched
    // blocks are never reloaded and hits never get counted.
    t.footprintBlocks = 1ULL << 13;
    t.numAccesses = 20000;
    t.localityFraction = 1.0;
    SyntheticGenerator gen(t);
    const auto res = sys.run(gen);
    EXPECT_GT(res.merges, 0u);
    EXPECT_GT(res.prefetchHits, 0u);
    EXPECT_GT(res.avgStashOccupancy, 0.0);
}

} // namespace
} // namespace proram
