/** @file Unit tests for system configuration and wiring. */

#include "sim/system.hh"

#include <gtest/gtest.h>

#include <vector>

#include "trace/synthetic.hh"
#include "trace/trace_file.hh"
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

TEST(System, PeriodicPrefetchesBillEveryIdleSlot)
{
    // Fig. 5's oram_pre under Oint 100 on a sequential stream whose
    // compute gaps leave the ORAM idle for several slots: the stream
    // prefetcher then issues ORAM requests after idle slots. Every
    // slot the scheduler passed must have run a dummy path and been
    // billed, so once the slots are drained up to a cycle past the
    // last grant, each slot since cycle 0 holds one counted path.
    // Path ORAM, so that every counted path is one path read.
    SystemConfig cfg = smallCfg(MemScheme::OramPrefetch);
    cfg.oram.scheme = SchemeKind::Path;
    cfg.controller.periodic.enabled = true;
    cfg.controller.periodic.oInt = Cycles{100};
    std::vector<TraceRecord> records;
    for (Addr a = 0; a < 2000 * 128; a += 128)
        records.push_back(TraceRecord{5000, a, OpType::Read});
    System sys(cfg);
    ReplayGenerator gen(records);
    sys.run(gen);

    OramController &ctl = *sys.controller();
    const std::uint64_t period = ctl.scheduler().period().value();
    const Cycles end = ctl.busyUntil() + Cycles{4 * period};
    ctl.finalize(end);
    const ControllerStats &cs = ctl.stats();
    ASSERT_GT(cs.traditionalPrefetches, 0u);
    const std::uint64_t slots = (end.value() + period - 1) / period;
    EXPECT_EQ(cs.pathAccesses, slots);
    EXPECT_EQ(cs.periodicDummies,
              slots - cs.realRequests - cs.writebacks -
                  cs.traditionalPrefetches - cs.posMapAccesses -
                  cs.bgEvictions);
    EXPECT_EQ(ctl.oram().engine().pathReads(), cs.pathAccesses);
}

} // namespace
} // namespace proram
