/**
 * @file
 * Fixed-seed golden statistics for the Ring ORAM protocol: the same
 * fig08-tiny grid as golden_stats_test.cc (two SPLASH-2 profiles x
 * three super-block policies at trace scale 0.02), run with
 * OramConfig::scheme = SchemeKind::Ring.
 *
 * Ring goldens are pinned separately from Path goldens because the
 * protocols legitimately differ in bucket traffic and eviction
 * scheduling (one-block-per-bucket reads, rate-A deterministic
 * reverse-lexicographic evictions). What must NOT differ is the
 * prefetcher: merges/breaks/prefetch counts are policy decisions made
 * on stash-resident blocks and position-map state, so a Ring run and
 * a Path run over the same trace see the same policy inputs. Any
 * divergence in merges/breaks between this table and the Path table
 * means the scheme leaked into the policy layer.
 *
 * Set PRORAM_CAPTURE_GOLDENS=1 to print a paste-ready table instead
 * of asserting (used once to harvest the pinned values below).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/experiment.hh"
#include "sim/system_config.hh"
#include "trace/benchmarks.hh"

namespace proram
{
namespace
{

bool
captureMode()
{
    const char *env = std::getenv("PRORAM_CAPTURE_GOLDENS");
    return env && env[0] != '\0' && env[0] != '0';
}

struct RingGolden
{
    const char *profile;
    MemScheme scheme;
    std::uint64_t cycles;
    std::uint64_t pathAccesses;
    std::uint64_t posMapAccesses;
    std::uint64_t bgEvictions;
    std::uint64_t prefetchHits;
    std::uint64_t prefetchMisses;
    std::uint64_t merges;
    std::uint64_t breaks;
};

// Captured at the commit that introduced the Ring engine, with
// Experiment(defaultSystemConfig(), /*scale=*/0.02), seed defaults,
// ring S/A defaults (S=2Z=6, A=2). pathAccesses counts Ring's
// scheduled eviction passes as path reads (each rewrites one path),
// so the figures sit above the Path table's.
const RingGolden kRingGoldens[] = {
    {"cholesky", MemScheme::OramBaseline,
     6965106, 11389, 1406, 6495, 0, 0, 0, 0},
    {"cholesky", MemScheme::OramStatic,
     8331935, 15009, 1380, 10999, 0, 8, 0, 0},
    {"cholesky", MemScheme::OramDynamic,
     6985606, 11481, 1406, 6587, 0, 0, 323, 1},
    {"radix", MemScheme::OramBaseline,
     9662636, 16346, 2729, 9647, 0, 0, 0, 0},
    {"radix", MemScheme::OramStatic,
     13909324, 24110, 2590, 17921, 0, 27, 0, 0},
    {"radix", MemScheme::OramDynamic,
     9640496, 16280, 2729, 9581, 0, 0, 100, 0},
};

void
printRow(const char *profile, const SimResult &r,
         std::uint64_t periodic_dummies = ~0ULL)
{
    if (periodic_dummies == ~0ULL) {
        std::printf("    {\"%s\", MemScheme::?%s?,\n"
                    "     %llu, %llu, %llu, %llu, %llu, %llu, %llu, "
                    "%llu},\n",
                    profile, r.scheme.c_str(),
                    static_cast<unsigned long long>(r.cycles.value()),
                    static_cast<unsigned long long>(r.pathAccesses),
                    static_cast<unsigned long long>(r.posMapAccesses),
                    static_cast<unsigned long long>(r.bgEvictions),
                    static_cast<unsigned long long>(r.prefetchHits),
                    static_cast<unsigned long long>(r.prefetchMisses),
                    static_cast<unsigned long long>(r.merges),
                    static_cast<unsigned long long>(r.breaks));
    } else {
        std::printf("    {\"%s\", MemScheme::?%s?,\n"
                    "     %llu, %llu, %llu, %llu, %llu, %llu, %llu, "
                    "%llu, %llu},\n",
                    profile, r.scheme.c_str(),
                    static_cast<unsigned long long>(r.cycles.value()),
                    static_cast<unsigned long long>(r.pathAccesses),
                    static_cast<unsigned long long>(r.posMapAccesses),
                    static_cast<unsigned long long>(r.bgEvictions),
                    static_cast<unsigned long long>(periodic_dummies),
                    static_cast<unsigned long long>(r.prefetchHits),
                    static_cast<unsigned long long>(r.prefetchMisses),
                    static_cast<unsigned long long>(r.merges),
                    static_cast<unsigned long long>(r.breaks));
    }
}

void
expectRingGolden(const RingGolden &g, const SimResult &r)
{
    EXPECT_EQ(r.cycles, Cycles{g.cycles});
    EXPECT_EQ(r.pathAccesses, g.pathAccesses);
    EXPECT_EQ(r.posMapAccesses, g.posMapAccesses);
    EXPECT_EQ(r.bgEvictions, g.bgEvictions);
    EXPECT_EQ(r.prefetchHits, g.prefetchHits);
    EXPECT_EQ(r.prefetchMisses, g.prefetchMisses);
    EXPECT_EQ(r.merges, g.merges);
    EXPECT_EQ(r.breaks, g.breaks);
}

TEST(RingGolden, Fig08TinyMatchesCapture)
{
    Experiment exp(defaultSystemConfig(), /*trace_scale=*/0.02);
    exp.baseConfig().oram.scheme = SchemeKind::Ring;
    for (const RingGolden &g : kRingGoldens) {
        const SimResult r = run(exp.cell(g.scheme, profileByName(g.profile)));
        if (captureMode()) {
            printRow(g.profile, r);
            continue;
        }
        SCOPED_TRACE(std::string(g.profile) + "/" + r.scheme);
        expectRingGolden(g, r);
    }
}

TEST(RingGolden, PolicyRunsOnBothSchemesWithSameWalkTraffic)
{
    // The prefetcher code is scheme-agnostic, but its *inputs* are
    // not identical across protocols: the dynamic policy only merges
    // blocks that are stash-co-resident, and Ring's interest-set
    // reads leave non-interest path blocks in the tree where Path
    // ORAM would have pulled them into the stash. So merge counts
    // legitimately differ (fewer candidates under Ring). What must
    // match is the demand-side traffic the trace dictates - the
    // position-map walk count - and the policy must be demonstrably
    // live (nonzero merges) under both schemes.
    const Experiment exp(defaultSystemConfig(), /*trace_scale=*/0.02);
    const auto runOn = [&](SchemeKind kind) {
        Cell c = exp.cell(MemScheme::OramDynamic, profileByName("cholesky"));
        c.config.oram.scheme = kind;
        return run(c);
    };
    const SimResult path = runOn(SchemeKind::Path);
    const SimResult ring = runOn(SchemeKind::Ring);
    EXPECT_EQ(ring.posMapAccesses, path.posMapAccesses);
    EXPECT_GT(ring.merges, 0u);
    EXPECT_GT(path.merges, 0u);
    // Fewer co-resident candidates can only shrink the merge count.
    EXPECT_LE(ring.merges, path.merges);
}

struct RingPeriodicGolden
{
    const char *profile;
    MemScheme scheme;
    std::uint64_t cycles;
    std::uint64_t pathAccesses;
    std::uint64_t posMapAccesses;
    std::uint64_t bgEvictions;
    std::uint64_t periodicDummies;
    std::uint64_t prefetchHits;
    std::uint64_t prefetchMisses;
    std::uint64_t merges;
    std::uint64_t breaks;
};

// Periodic (Oint) mode on Ring: controller.periodic.enabled = true at
// the default interval, scheme = Ring. Captured alongside the table
// above.
const RingPeriodicGolden kRingPeriodicGoldens[] = {
    {"cholesky", MemScheme::OramBaseline,
     7691100, 11389, 1406, 6422, 73, 0, 0, 0, 0},
    {"cholesky", MemScheme::OramDynamic,
     7719620, 11481, 1406, 6514, 73, 0, 0, 323, 1},
    {"radix", MemScheme::OramStatic,
     15529559, 24110, 2590, 17908, 13, 0, 27, 0, 0},
};

TEST(RingGolden, PeriodicModeMatchesCapture)
{
    Experiment exp(defaultSystemConfig(), /*trace_scale=*/0.02);
    exp.baseConfig().oram.scheme = SchemeKind::Ring;
    exp.baseConfig().controller.periodic.enabled = true;
    for (const RingPeriodicGolden &g : kRingPeriodicGoldens) {
        const SimResult r = run(exp.cell(g.scheme, profileByName(g.profile)));
        if (captureMode()) {
            printRow(g.profile, r, r.periodicDummies);
            continue;
        }
        SCOPED_TRACE(std::string(g.profile) + "/" + r.scheme);
        EXPECT_EQ(r.cycles, Cycles{g.cycles});
        EXPECT_EQ(r.pathAccesses, g.pathAccesses);
        EXPECT_EQ(r.posMapAccesses, g.posMapAccesses);
        EXPECT_EQ(r.bgEvictions, g.bgEvictions);
        EXPECT_EQ(r.periodicDummies, g.periodicDummies);
        EXPECT_EQ(r.prefetchHits, g.prefetchHits);
        EXPECT_EQ(r.prefetchMisses, g.prefetchMisses);
        EXPECT_EQ(r.merges, g.merges);
        EXPECT_EQ(r.breaks, g.breaks);
    }
}

TEST(RingGolden, AuditedRunMatchesUnauditedGolden)
{
    // The auditor is an observer: attaching it must not perturb a
    // single stat, and the run must survive its end-of-run report
    // (System panics on audit failure, including the Ring-only
    // ring-eviction-schedule check).
    Experiment exp(defaultSystemConfig(), /*trace_scale=*/0.02);
    exp.baseConfig().oram.scheme = SchemeKind::Ring;
    exp.baseConfig().audit.enabled = true;
    const RingGolden &g = kRingGoldens[2]; // cholesky / OramDynamic
    const SimResult r = run(exp.cell(g.scheme, profileByName(g.profile)));
    if (captureMode()) {
        printRow(g.profile, r);
        return;
    }
    SCOPED_TRACE(std::string(g.profile) + "/" + r.scheme + "/audited");
    expectRingGolden(g, r);
}

} // namespace
} // namespace proram
