/**
 * @file
 * Obliviousness-auditor tests. Both directions of the acceptance
 * criterion are covered: every shipped configuration must pass the
 * audit, and a deliberately leaky access stream (driven straight into
 * the observer API, one leak per check) must trip the matching check.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "obs/audit.hh"
#include "sim/system.hh"
#include "sim/system_config.hh"
#include "trace/benchmarks.hh"
#include "trace/trace_file.hh"
#include "util/bits.hh"

namespace proram
{
namespace
{

using namespace proram::literals;

using obs::AuditCheck;
using obs::AuditConfig;
using obs::AuditReport;
using obs::ObliviousnessAuditor;
using obs::PathKind;

std::vector<TraceRecord>
profileRecords(const char *name, double scale)
{
    std::vector<TraceRecord> records;
    auto gen = makeGenerator(profileByName(name), scale);
    TraceRecord rec;
    while (gen->next(rec))
        records.push_back(rec);
    return records;
}

const AuditCheck &
findCheck(const AuditReport &rep, const std::string &name)
{
    for (const AuditCheck &c : rep.checks) {
        if (c.name == name)
            return c;
    }
    ADD_FAILURE() << "no check named " << name << "\n"
                  << rep.summary();
    static const AuditCheck missing;
    return missing;
}

/** Well-spread deterministic leaf sequence (multiplicative hash of
 *  the index; odd multiplier, so every residue class is visited). */
Leaf
spreadLeaf(std::uint64_t i, std::uint64_t num_leaves)
{
    return Leaf{
        static_cast<std::uint32_t>((i * 2654435761ULL) % num_leaves)};
}

TEST(ChiSquare, CriticalValueTracksQuantileAndDof)
{
    // chi2 tables: dof=15 -> 30.58 @0.99, 44.26 @0.9999. The
    // Wilson-Hilferty approximation should land within a few percent.
    const double c99 = obs::chiSquareCritical(15, 0.99);
    const double c9999 = obs::chiSquareCritical(15, 0.9999);
    EXPECT_NEAR(c99, 30.58, 1.5);
    EXPECT_NEAR(c9999, 44.26, 2.0);
    EXPECT_LT(c99, c9999);
    EXPECT_LT(c9999, obs::chiSquareCritical(31, 0.9999));
}

TEST(ChiSquare, UniformStatisticSeparatesFlatFromSkewed)
{
    const std::vector<std::uint64_t> flat(16, 1000);
    EXPECT_DOUBLE_EQ(obs::chiSquareUniform(flat), 0.0);

    std::vector<std::uint64_t> skewed(16, 0);
    skewed[3] = 16000;
    EXPECT_GT(obs::chiSquareUniform(skewed),
              obs::chiSquareCritical(15, 0.9999));

    // Small honest fluctuations stay well under the critical value.
    std::vector<std::uint64_t> noisy(16, 1000);
    for (std::size_t i = 0; i < noisy.size(); ++i)
        noisy[i] += (i % 2) ? 30 : -30;
    EXPECT_LT(obs::chiSquareUniform(noisy),
              obs::chiSquareCritical(15, 0.9999));
}

TEST(ChiSquare, TwoSampleSeparatesShapesNotSizes)
{
    const std::vector<std::uint64_t> a(16, 1000);
    const std::vector<std::uint64_t> same_shape_smaller(16, 250);
    EXPECT_NEAR(obs::twoSampleChiSquare(a, same_shape_smaller), 0.0,
                1e-9);

    std::vector<std::uint64_t> b(16, 1000);
    b[0] = 4000;
    b[15] = 50;
    const double stat = obs::twoSampleChiSquare(a, b);
    EXPECT_GT(stat, obs::chiSquareCritical(15, 0.9999));
    // Symmetric in its arguments.
    EXPECT_DOUBLE_EQ(stat, obs::twoSampleChiSquare(b, a));
}

TEST(Auditor, HonestPeriodicStreamPassesEveryCheck)
{
    constexpr std::uint64_t kLeaves = 1024;
    constexpr Cycles kPeriod{10};
    ObliviousnessAuditor auditor(AuditConfig{}, kLeaves, kPeriod);

    // Mirror the controller's reporting order: idle-slot dummies are
    // drained first, then the request's paths, then the grant.
    Cycles expected_start{0};
    std::uint64_t seq = 0;
    for (std::uint64_t req = 0; req < 2000; ++req) {
        std::uint64_t dummies = (req % 5 == 0) ? 3 : 0;
        for (std::uint64_t d = 0; d < dummies; ++d) {
            auditor.onPath(PathKind::PeriodicDummy,
                           spreadLeaf(seq++, kLeaves));
        }
        const std::uint64_t paths = 1 + (req % 3);
        auditor.onPath(PathKind::Real, spreadLeaf(seq++, kLeaves));
        for (std::uint64_t p = 1; p < paths; ++p) {
            auditor.onPath(PathKind::PosMap,
                           spreadLeaf(seq++, kLeaves));
        }
        const Cycles start = expected_start + dummies * kPeriod;
        auditor.onGrant(start, paths);
        expected_start = start + paths * kPeriod;
    }

    // An honest Ring engine reports its scheduled evictions in exact
    // reverse-lexicographic order: g-th eviction = bit-reverse(g).
    for (std::uint64_t g = 0; g < 600; ++g) {
        auditor.onEvictionPath(Leaf{static_cast<std::uint32_t>(
            reverseBits(g % kLeaves, log2Floor(kLeaves)))});
    }

    const AuditReport rep = auditor.report();
    EXPECT_TRUE(rep.pass()) << rep.summary();
    for (const AuditCheck &c : rep.checks) {
        EXPECT_TRUE(c.evaluated) << c.name << " not evaluated\n"
                                 << rep.summary();
        EXPECT_TRUE(c.pass) << c.name << " failed\n" << rep.summary();
    }
    EXPECT_EQ(rep.realPaths, 2000u);
    EXPECT_EQ(auditor.pathsOfKind(PathKind::PeriodicDummy), 1200u);
}

TEST(Auditor, LeafReuseTripsUniformityAndFreshness)
{
    // The classic leak: a block keeps its leaf across accesses, so
    // the observed sequence clusters on one path.
    ObliviousnessAuditor auditor(AuditConfig{}, 1024);
    for (int i = 0; i < 1000; ++i)
        auditor.onPath(PathKind::Real, 7_leaf);

    const AuditReport rep = auditor.report();
    EXPECT_FALSE(rep.pass());
    EXPECT_FALSE(findCheck(rep, "leaf-uniformity-all").pass);
    EXPECT_FALSE(findCheck(rep, "leaf-uniformity-real").pass);
    EXPECT_FALSE(findCheck(rep, "remap-freshness").pass);
}

TEST(Auditor, BiasedRemapTripsUniformityWithoutRepeats)
{
    // Subtler leak: never the same leaf twice, but the low half of
    // the tree is favored 3:1.
    ObliviousnessAuditor auditor(AuditConfig{}, 1024);
    std::uint64_t seq = 0;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t half = (i % 4 == 0) ? 512 : 0;
        auditor.onPath(
            PathKind::Real,
            Leaf{static_cast<std::uint32_t>(half) +
                 spreadLeaf(seq++, 512).value()});
    }
    const AuditReport rep = auditor.report();
    EXPECT_FALSE(findCheck(rep, "leaf-uniformity-all").pass);
    EXPECT_TRUE(findCheck(rep, "remap-freshness").pass)
        << rep.summary();
}

TEST(Auditor, OffSlotGrantTripsTiming)
{
    ObliviousnessAuditor auditor(AuditConfig{}, 1024,
                                 /*period=*/Cycles{10});
    auditor.onPath(PathKind::Real, 3_leaf);
    auditor.onGrant(/*start=*/Cycles{5}, /*paths=*/1);

    const AuditReport rep = auditor.report();
    const AuditCheck &timing = findCheck(rep, "oint-timing");
    EXPECT_TRUE(timing.evaluated);
    EXPECT_FALSE(timing.pass);
    EXPECT_FALSE(rep.pass());
}

TEST(Auditor, SkippedDummyTripsFill)
{
    // Address-correlated dummy skipping: the schedule jumps ahead
    // three slots but no dummy accesses were performed for them.
    ObliviousnessAuditor auditor(AuditConfig{}, 1024,
                                 /*period=*/Cycles{10});
    auditor.onPath(PathKind::Real, 3_leaf);
    auditor.onGrant(/*start=*/Cycles{0}, /*paths=*/1); // expected next: 10
    auditor.onPath(PathKind::Real, 9_leaf);
    auditor.onGrant(/*start=*/Cycles{40}, /*paths=*/1);

    const AuditReport rep = auditor.report();
    const AuditCheck &fill = findCheck(rep, "oint-dummy-fill");
    EXPECT_TRUE(fill.evaluated);
    EXPECT_FALSE(fill.pass);
    // Timing and accounting are clean; only the fill leaks.
    EXPECT_TRUE(findCheck(rep, "oint-timing").pass);
    EXPECT_TRUE(findCheck(rep, "path-accounting").pass);
}

TEST(Auditor, DemandDependentEvictionTripsSchedule)
{
    // Ring ORAM leak: an engine that evicts the just-read (demand)
    // path instead of the public reverse-lexicographic schedule.
    ObliviousnessAuditor auditor(AuditConfig{}, 1024);
    auditor.onEvictionPath(0_leaf);   // g=0: bitrev(0) = 0, honest
    auditor.onEvictionPath(7_leaf);   // g=1: expected bitrev(1) = 512
    auditor.onEvictionPath(256_leaf); // g=2: honest again

    const AuditReport rep = auditor.report();
    const AuditCheck &sched = findCheck(rep, "ring-eviction-schedule");
    EXPECT_TRUE(sched.evaluated);
    EXPECT_FALSE(sched.pass);
    EXPECT_EQ(sched.statistic, 1.0);
    EXPECT_FALSE(rep.pass());
}

TEST(Auditor, ReverseLexEvictionSequencePasses)
{
    // The honest schedule, wrapping past 2^L: every eviction path is
    // bit-reverse(g mod 1024) in order.
    ObliviousnessAuditor auditor(AuditConfig{}, 1024);
    for (std::uint64_t g = 0; g < 2500; ++g) {
        auditor.onEvictionPath(Leaf{static_cast<std::uint32_t>(
            reverseBits(g % 1024, 10))});
    }
    const AuditReport rep = auditor.report();
    const AuditCheck &sched = findCheck(rep, "ring-eviction-schedule");
    EXPECT_TRUE(sched.evaluated);
    EXPECT_TRUE(sched.pass) << rep.summary();
    EXPECT_EQ(auditor.evictionPaths(), 2500u);
}

TEST(Auditor, HiddenPathTripsAccounting)
{
    ObliviousnessAuditor auditor(AuditConfig{}, 1024,
                                 /*period=*/Cycles{10});
    auditor.onPath(PathKind::Real, 3_leaf);
    auditor.onPath(PathKind::Real, 11_leaf); // performed but not granted
    auditor.onGrant(/*start=*/Cycles{0}, /*paths=*/1);

    const AuditReport rep = auditor.report();
    const AuditCheck &acct = findCheck(rep, "path-accounting");
    EXPECT_TRUE(acct.evaluated);
    EXPECT_FALSE(acct.pass);
}

TEST(AuditorSystem, ShippedOramConfigsPassTheAudit)
{
    const std::vector<TraceRecord> records =
        profileRecords("cholesky", 0.02);

    struct Case
    {
        MemScheme scheme;
        bool periodic;
    };
    const Case cases[] = {
        {MemScheme::OramBaseline, false},
        {MemScheme::OramStatic, false},
        {MemScheme::OramDynamic, false},
        {MemScheme::OramDynamic, true},
    };
    for (const Case &c : cases) {
        SystemConfig cfg = defaultSystemConfig();
        cfg.scheme = c.scheme;
        cfg.controller.periodic.enabled = c.periodic;
        cfg.audit.enabled = true;

        System system(cfg);
        ASSERT_NE(system.auditor(), nullptr)
            << schemeName(c.scheme);
        ReplayGenerator gen(records);
        system.run(gen); // panics internally on a failed audit

        const AuditReport rep = system.auditor()->report();
        EXPECT_TRUE(rep.pass())
            << schemeName(c.scheme) << "\n" << rep.summary();
        EXPECT_GE(rep.realPaths, cfg.audit.minSamples)
            << schemeName(c.scheme)
            << ": too few samples to mean anything";
        const AuditCheck &timing = findCheck(rep, "oint-timing");
        EXPECT_EQ(timing.evaluated, c.periodic)
            << schemeName(c.scheme);
    }
}

TEST(AuditorSystem, PrefetchSchemeFillsEveryIdleSlot)
{
    // Fig. 5's oram_pre under Oint: each stream prefetch is an ORAM
    // request like any other, so the controller drains idle slots
    // before its grant too, and the fill check holds for the scheme.
    SystemConfig cfg = defaultSystemConfig();
    cfg.scheme = MemScheme::OramPrefetch;
    cfg.controller.periodic.enabled = true;
    cfg.audit.enabled = true;

    System system(cfg);
    ASSERT_NE(system.auditor(), nullptr);
    ReplayGenerator gen(profileRecords("cholesky", 0.02));
    system.run(gen);
    ASSERT_GT(system.controller()->stats().traditionalPrefetches, 0u);

    const AuditReport rep = system.auditor()->report();
    EXPECT_TRUE(rep.pass()) << rep.summary();
    EXPECT_TRUE(findCheck(rep, "oint-timing").evaluated);
    const AuditCheck &fill = findCheck(rep, "oint-dummy-fill");
    EXPECT_TRUE(fill.evaluated) << rep.summary();
    EXPECT_TRUE(fill.pass) << rep.summary();
}

TEST(AuditorSystem, DramSchemeNeverBuildsAnAuditor)
{
    SystemConfig cfg = defaultSystemConfig();
    cfg.scheme = MemScheme::Dram;
    cfg.audit.enabled = true;
    System system(cfg);
    EXPECT_EQ(system.auditor(), nullptr);
}

TEST(AuditorSystem, EnvVarEnablesTheAuditor)
{
    SystemConfig cfg = defaultSystemConfig();
    cfg.scheme = MemScheme::OramBaseline;
    ASSERT_FALSE(cfg.audit.enabled);

    // The suite itself may run under PRORAM_AUDIT=1 (CI's audited
    // sanitize step does exactly that); save and restore it.
    const char *ambient = std::getenv("PRORAM_AUDIT");
    const std::string saved = ambient ? ambient : "";

    ::unsetenv("PRORAM_AUDIT");
    {
        System plain(cfg);
        EXPECT_EQ(plain.auditor(), nullptr);
    }
    ::setenv("PRORAM_AUDIT", "1", 1);
    {
        System audited(cfg);
        EXPECT_NE(audited.auditor(), nullptr);
    }
    ::setenv("PRORAM_AUDIT", "0", 1);
    {
        System off(cfg);
        EXPECT_EQ(off.auditor(), nullptr);
    }
    if (ambient)
        ::setenv("PRORAM_AUDIT", saved.c_str(), 1);
    else
        ::unsetenv("PRORAM_AUDIT");
}

TEST(AuditorSystem, DifferentialReplayCannotTellWorkloadsApart)
{
    // Two very different logical access patterns; the public leaf
    // distributions must be statistically indistinguishable.
    SystemConfig cfg = defaultSystemConfig();
    cfg.scheme = MemScheme::OramDynamic;

    const AuditReport rep = obs::auditDifferentialReplay(
        cfg, profileRecords("cholesky", 0.02),
        profileRecords("radix", 0.02));
    const AuditCheck &diff = findCheck(rep, "differential-replay");
    EXPECT_TRUE(diff.evaluated) << rep.summary();
    EXPECT_TRUE(diff.pass) << rep.summary();
    EXPECT_TRUE(rep.pass());
}

} // namespace
} // namespace proram
