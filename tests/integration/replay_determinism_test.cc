/** @file Integration: trace capture/replay produces bit-identical
 *  simulations, and simulations are reproducible across processes
 *  (the property every experiment in EXPERIMENTS.md relies on). */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/experiment.hh"
#include "sim/system.hh"
#include "trace/benchmarks.hh"
#include "trace/trace_file.hh"

namespace proram
{
namespace
{

SystemConfig
cfg(MemScheme scheme)
{
    SystemConfig c = defaultSystemConfig();
    c.scheme = scheme;
    return c;
}

TEST(ReplayDeterminism, ReplayedTraceReproducesLiveRun)
{
    const auto &prof = profileByName("cholesky");

    // Live run straight from the generator.
    SimResult live;
    {
        System sys(cfg(MemScheme::OramDynamic));
        auto gen = makeGenerator(prof, 0.05);
        live = sys.run(*gen);
    }

    // Capture the same trace to text, replay it.
    std::ostringstream os;
    {
        auto gen = makeGenerator(prof, 0.05);
        writeTrace(*gen, os);
    }
    SimResult replayed;
    {
        std::istringstream is(os.str());
        ReplayGenerator replay(readTrace(is));
        System sys(cfg(MemScheme::OramDynamic));
        replayed = sys.run(replay);
    }

    EXPECT_EQ(live.cycles, replayed.cycles);
    EXPECT_EQ(live.pathAccesses, replayed.pathAccesses);
    EXPECT_EQ(live.merges, replayed.merges);
    EXPECT_EQ(live.breaks, replayed.breaks);
    EXPECT_EQ(live.prefetchHits, replayed.prefetchHits);
}

TEST(ReplayDeterminism, EverySchemeIsDeterministic)
{
    const auto &prof = profileByName("gobmk");
    for (MemScheme s :
         {MemScheme::Dram, MemScheme::DramPrefetch,
          MemScheme::OramBaseline, MemScheme::OramStatic,
          MemScheme::OramDynamic}) {
        SimResult a, b;
        {
            System sys(cfg(s));
            auto gen = makeGenerator(prof, 0.05);
            a = sys.run(*gen);
        }
        {
            System sys(cfg(s));
            auto gen = makeGenerator(prof, 0.05);
            b = sys.run(*gen);
        }
        EXPECT_EQ(a.cycles, b.cycles) << schemeName(s);
        EXPECT_EQ(a.memAccesses, b.memAccesses) << schemeName(s);
    }
}

TEST(ReplayDeterminism, ParallelGridMatchesSerialGrid)
{
    // The paper driver's core assumption: runGrid() on four threads
    // produces bit-identical SimResults, in the same order, as on one.
    // Cells cover every scheme plus a config tweak so per-cell seeding
    // paths are all exercised.
    const Experiment exp(defaultSystemConfig(), 0.03);
    const auto &prof_a = profileByName("fft");
    const auto &prof_b = profileByName("gobmk");

    std::vector<Experiment::GridCell> cells;
    for (const auto *prof : {&prof_a, &prof_b}) {
        for (MemScheme s :
             {MemScheme::Dram, MemScheme::OramBaseline,
              MemScheme::OramStatic, MemScheme::OramDynamic}) {
            cells.push_back([c = exp.cell(s, *prof)] { return run(c); });
        }
    }
    Cell small_plb = exp.cell(MemScheme::OramDynamic, prof_a);
    small_plb.config.oram.plbEntries = 8;
    cells.push_back([small_plb] { return run(small_plb); });

    const auto serial = exp.runGrid(cells, 1);
    const auto parallel = exp.runGrid(cells, 4);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].scheme, parallel[i].scheme) << "cell " << i;
        EXPECT_EQ(serial[i].cycles, parallel[i].cycles) << "cell " << i;
        EXPECT_EQ(serial[i].memAccesses, parallel[i].memAccesses)
            << "cell " << i;
        EXPECT_EQ(serial[i].pathAccesses, parallel[i].pathAccesses)
            << "cell " << i;
        EXPECT_EQ(serial[i].merges, parallel[i].merges) << "cell " << i;
        EXPECT_EQ(serial[i].breaks, parallel[i].breaks) << "cell " << i;
    }
}

TEST(ReplayDeterminism, SeedChangesTheRunButNotTheShape)
{
    BenchmarkProfile prof = profileByName("fft");
    SimResult runs[2];
    for (int i = 0; i < 2; ++i) {
        prof.seed = 1000 + i;
        System sys(cfg(MemScheme::OramDynamic));
        ProfileGenerator gen(prof, 0.1);
        runs[i] = sys.run(gen);
    }
    EXPECT_NE(runs[0].cycles, runs[1].cycles)
        << "different seeds must differ";
    // Same workload character: results within 20%.
    const double ratio = static_cast<double>(runs[0].cycles.value()) /
                         static_cast<double>(runs[1].cycles.value());
    EXPECT_GT(ratio, 0.8);
    EXPECT_LT(ratio, 1.2);
}

} // namespace
} // namespace proram
