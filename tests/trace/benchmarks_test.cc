/** @file Unit tests for the benchmark profile registry. */

#include "trace/benchmarks.hh"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "util/logging.hh"

namespace proram
{
namespace
{

TEST(Benchmarks, SuitesHavePaperCardinality)
{
    EXPECT_EQ(splash2Suite().size(), 14u);
    EXPECT_EQ(spec06Suite().size(), 10u);
    EXPECT_EQ(dbmsSuite().size(), 2u);
}

TEST(Benchmarks, NamesUniqueAcrossSuites)
{
    std::set<std::string> names;
    for (const auto *suite :
         {&splash2Suite(), &spec06Suite(), &dbmsSuite()}) {
        for (const auto &p : *suite)
            EXPECT_TRUE(names.insert(p.name).second) << p.name;
    }
    EXPECT_EQ(names.size(), 26u);
}

TEST(Benchmarks, LookupByName)
{
    EXPECT_EQ(profileByName("ocean_c").suite, "splash2");
    EXPECT_EQ(profileByName("mcf").suite, "spec06");
    EXPECT_EQ(profileByName("YCSB").suite, "dbms");
    EXPECT_THROW(profileByName("nonesuch"), SimFatal);
}

TEST(Benchmarks, MemoryIntensiveFlagsMatchFig8)
{
    EXPECT_FALSE(profileByName("water_ns").memoryIntensive);
    EXPECT_FALSE(profileByName("volrend").memoryIntensive);
    EXPECT_TRUE(profileByName("ocean_c").memoryIntensive);
    EXPECT_TRUE(profileByName("mcf").memoryIntensive);
}

TEST(Benchmarks, GeneratorStaysInFootprint)
{
    for (const char *name : {"ocean_c", "volrend", "YCSB", "TPCC"}) {
        const auto &p = profileByName(name);
        auto g = makeGenerator(p, 0.1);
        TraceRecord r;
        while (g->next(r)) {
            EXPECT_LT(r.addr / p.blockBytes, p.footprintBlocks)
                << name;
        }
    }
}

TEST(Benchmarks, ScaleShrinksTrace)
{
    const auto &p = profileByName("fft");
    auto g = makeGenerator(p, 0.01);
    TraceRecord r;
    std::uint64_t n = 0;
    while (g->next(r))
        ++n;
    EXPECT_EQ(n, p.numAccesses / 100);
}

TEST(Benchmarks, NonFiniteOrOverflowingScaleIsFatal)
{
    // Checked before the trace length is computed: converting these
    // products to an integer would be undefined behaviour.
    const auto &p = profileByName("fft");
    for (const double bad : {std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             1e30}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(ProfileGenerator(p, bad), SimFatal);
    }
}

TEST(Benchmarks, DeterministicAcrossInstances)
{
    const auto &p = profileByName("raytrace");
    auto g1 = makeGenerator(p, 0.05);
    auto g2 = makeGenerator(p, 0.05);
    TraceRecord a, b;
    while (g1->next(a)) {
        ASSERT_TRUE(g2->next(b));
        EXPECT_EQ(a.addr, b.addr);
        EXPECT_EQ(a.op, b.op);
    }
}

TEST(Benchmarks, ResetReplays)
{
    auto g = makeGenerator(profileByName("gcc"), 0.02);
    std::vector<Addr> first;
    TraceRecord r;
    while (g->next(r))
        first.push_back(r.addr);
    g->reset();
    for (Addr a : first) {
        ASSERT_TRUE(g->next(r));
        EXPECT_EQ(r.addr, a);
    }
}

TEST(Benchmarks, OceanHasMoreRunLocalityThanVolrend)
{
    auto count_seq = [](const char *name) {
        auto g = makeGenerator(profileByName(name), 0.2);
        TraceRecord r;
        Addr prev = ~0ULL;
        std::uint64_t seq = 0, n = 0;
        while (g->next(r)) {
            seq += r.addr == prev + 128 ? 1 : 0;
            prev = r.addr;
            ++n;
        }
        return static_cast<double>(seq) / n;
    };
    EXPECT_GT(count_seq("ocean_c"), 3 * count_seq("volrend"));
}

TEST(Benchmarks, YcsbScansWholeRecords)
{
    const auto &p = profileByName("YCSB");
    auto g = makeGenerator(p, 0.1);
    TraceRecord r;
    Addr prev = ~0ULL;
    std::uint64_t seq = 0, n = 0;
    while (g->next(r)) {
        seq += r.addr == prev + 128 ? 1 : 0;
        prev = r.addr;
        ++n;
    }
    // 8-block record scans: most accesses continue a run.
    EXPECT_GT(static_cast<double>(seq) / n, 0.5);
}


TEST(Benchmarks, SequentialRunsConcentrateInStreamRegion)
{
    BenchmarkProfile p = profileByName("mcf"); // seqRegionFraction 0.2
    auto g = makeGenerator(p, 0.2);
    TraceRecord r;
    Addr prev = ~0ULL;
    const Addr region_end = static_cast<Addr>(
        p.seqRegionFraction * p.footprintBlocks * p.blockBytes);
    std::uint64_t runs_in_region = 0, runs_total = 0;
    while (g->next(r)) {
        if (r.addr == prev + p.blockBytes) {
            ++runs_total;
            // allow runs to spill slightly past the region edge
            runs_in_region +=
                r.addr < region_end + 64 * p.blockBytes ? 1 : 0;
        }
        prev = r.addr;
    }
    ASSERT_GT(runs_total, 100u);
    EXPECT_GT(static_cast<double>(runs_in_region) / runs_total, 0.95);
}

TEST(Benchmarks, ComputeGapsReflectMemoryIntensiveness)
{
    EXPECT_GT(profileByName("water_ns").computeCycles,
              profileByName("ocean_c").computeCycles * 10);
}

} // namespace
} // namespace proram
