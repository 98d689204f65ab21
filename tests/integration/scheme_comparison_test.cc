/** @file Directional integration tests: the qualitative claims of the
 *  paper's evaluation must hold on this simulator. */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "trace/synthetic.hh"

namespace proram
{
namespace
{

SyntheticConfig
synth(double locality, std::uint64_t phase = 0,
      std::uint32_t compute = 4)
{
    SyntheticConfig c;
    c.footprintBlocks = 1ULL << 14;
    // Long enough that the dynamic scheme reaches steady state
    // (each block revisited several times).
    c.numAccesses = 60000;
    c.localityFraction = locality;
    c.phaseLength = phase;
    c.computeCycles = compute;
    c.seed = 3;
    return c;
}

/** The Table 1 system at Z = @p z running @p s under @p scheme. */
Cell
cell(MemScheme scheme, const SyntheticConfig &s, std::uint32_t z = 3)
{
    Cell c{defaultSystemConfig(), s};
    c.config.scheme = scheme;
    c.config.oram.z = z;
    return c;
}

TEST(SchemeComparison, DynamicNeverLosesToBaseline)
{
    // Fig. 6a's key claim: dyn >= oram at every locality level
    // (allow sub-1% noise).
    for (double f : {0.0, 0.5, 1.0}) {
        const auto oram = run(cell(MemScheme::OramBaseline, synth(f)));
        const auto dyn = run(cell(MemScheme::OramDynamic, synth(f)));
        EXPECT_GT(metrics::speedup(oram, dyn), -0.01)
            << "locality " << f;
    }
}

TEST(SchemeComparison, StaticLosesWithoutLocality)
{
    const auto oram = run(cell(MemScheme::OramBaseline, synth(0.0)));
    const auto stat = run(cell(MemScheme::OramStatic, synth(0.0)));
    EXPECT_LT(metrics::speedup(oram, stat), 0.0)
        << "static super blocks must hurt at zero locality "
           "(Sec. 3.3.2)";
}

TEST(SchemeComparison, BothSchemesWinWithFullLocality)
{
    // Fig. 6a runs the synthetic benchmark at Z=4 (Sec. 5.3), which
    // relaxes tree utilization so the static scheme is not throttled
    // by background eviction.
    const auto oram = run(cell(MemScheme::OramBaseline, synth(1.0), 4));
    const auto stat = run(cell(MemScheme::OramStatic, synth(1.0), 4));
    const auto dyn = run(cell(MemScheme::OramDynamic, synth(1.0), 4));
    EXPECT_GT(metrics::speedup(oram, stat), 0.05);
    EXPECT_GT(metrics::speedup(oram, dyn), 0.05);
}

TEST(SchemeComparison, DynamicReducesMemoryAccessesWithLocality)
{
    // The energy proxy of Fig. 8: fewer ORAM accesses than baseline.
    const auto oram = run(cell(MemScheme::OramBaseline, synth(1.0), 4));
    const auto dyn = run(cell(MemScheme::OramDynamic, synth(1.0), 4));
    EXPECT_LT(metrics::normMemAccesses(oram, dyn), 0.95);
}

TEST(SchemeComparison, BreakingHelpsPhaseChange)
{
    // Fig. 6b: with phase changes, adaptive breaking (am_ab) beats
    // no-breaking (am_nb) in ORAM accesses or time.
    Cell no_break = cell(MemScheme::OramDynamic, synth(0.5, /*phase=*/6000));
    no_break.config.dynamic.breakMode = DynamicPolicyConfig::BreakMode::None;
    Cell with_break = no_break;
    with_break.config.dynamic.breakMode =
        DynamicPolicyConfig::BreakMode::Adaptive;
    const auto nb = run(no_break);
    const auto wb = run(with_break);
    EXPECT_GT(wb.breaks, 0u);
    EXPECT_LE(wb.missRate(), nb.missRate() + 0.02);
}

TEST(SchemeComparison, TraditionalPrefetchHelpsDramHurtsOram)
{
    // Fig. 5: sequential-heavy workload with compute gaps.
    const SyntheticConfig s = synth(0.9, 0, 40);
    const auto dram = run(cell(MemScheme::Dram, s));
    const auto dram_pre = run(cell(MemScheme::DramPrefetch, s));
    const auto oram = run(cell(MemScheme::OramBaseline, s));
    const auto oram_pre = run(cell(MemScheme::OramPrefetch, s));
    EXPECT_GT(metrics::speedup(dram, dram_pre), 0.0)
        << "prefetching must help on DRAM";
    EXPECT_LT(metrics::speedup(oram, oram_pre),
              metrics::speedup(dram, dram_pre))
        << "prefetching must help ORAM less than DRAM (Sec. 5.2)";
}

TEST(SchemeComparison, LowerBandwidthHurtsEveryOramScheme)
{
    for (MemScheme s : {MemScheme::OramBaseline, MemScheme::OramStatic,
                        MemScheme::OramDynamic}) {
        const Cell fast = cell(s, synth(0.8));
        Cell slow = fast;
        slow.config.setDramBandwidthGBs(4.0);
        EXPECT_GT(run(slow).cycles, run(fast).cycles) << schemeName(s);
    }
}

TEST(SchemeComparison, LargerStashHelpsSuperBlockSchemes)
{
    Cell small = cell(MemScheme::OramStatic, synth(1.0));
    small.config.oram.stashCapacity = 25;
    Cell large = small;
    large.config.oram.stashCapacity = 400;
    const auto s = run(small);
    const auto l = run(large);
    EXPECT_LT(l.bgEvictions, s.bgEvictions);
    EXPECT_LE(l.cycles, s.cycles);
}

TEST(SchemeComparison, PeriodicAccessesCostLittle)
{
    // Sec. 5.6: with a small Oint, adding periodicity degrades
    // performance only mildly.
    const Cell plain = cell(MemScheme::OramDynamic, synth(0.7));
    Cell periodic = plain;
    periodic.config.controller.periodic.enabled = true;
    periodic.config.controller.periodic.oInt = Cycles{100};
    const double slowdown =
        metrics::normCompletionTime(run(plain), run(periodic));
    EXPECT_LT(slowdown, 1.25);
    EXPECT_GE(slowdown, 1.0);
}

} // namespace
} // namespace proram
