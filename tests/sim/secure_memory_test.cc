/** @file Functional tests for the SecureMemory public facade. */

#include "sim/secure_memory.hh"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>

#include "oram/integrity.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace proram
{
namespace
{

SystemConfig
memCfg(MemScheme scheme)
{
    SystemConfig cfg = defaultSystemConfig();
    cfg.scheme = scheme;
    cfg.oram.numDataBlocks = 1ULL << 12;
    return cfg;
}

TEST(SecureMemory, RejectsDramSchemes)
{
    EXPECT_THROW(SecureMemory(memCfg(MemScheme::Dram)), SimFatal);
}

TEST(SecureMemory, UnwrittenReadsReturnZero)
{
    SecureMemory mem(memCfg(MemScheme::OramBaseline));
    EXPECT_EQ(mem.read(0), 0u);
    EXPECT_EQ(mem.read(128 * 77), 0u);
}

TEST(SecureMemory, ReadYourWrites)
{
    SecureMemory mem(memCfg(MemScheme::OramDynamic));
    mem.write(0, 11);
    mem.write(128, 22);
    EXPECT_EQ(mem.read(0), 11u);
    EXPECT_EQ(mem.read(128), 22u);
    mem.write(0, 33);
    EXPECT_EQ(mem.read(0), 33u);
}

TEST(SecureMemory, CapacityEnforced)
{
    SecureMemory mem(memCfg(MemScheme::OramBaseline));
    EXPECT_THROW(mem.read(mem.capacityBytes()), SimFatal);
}

TEST(SecureMemory, TimeAdvancesOnMisses)
{
    SecureMemory mem(memCfg(MemScheme::OramBaseline));
    const Cycles t0 = mem.now();
    mem.read(0);
    const Cycles t1 = mem.now();
    EXPECT_GT(t1, t0);
    // Cached: cheap.
    mem.read(0);
    EXPECT_LT(mem.now() - t1, Cycles{20});
    mem.compute(Cycles{1000});
    EXPECT_EQ(mem.now(), t1 + (mem.now() - t1));
}

class SecureMemorySchemes : public ::testing::TestWithParam<MemScheme>
{
};

TEST_P(SecureMemorySchemes, RandomWorkloadMatchesReferenceMap)
{
    SecureMemory mem(memCfg(GetParam()));
    std::map<Addr, std::uint64_t> ref;
    Rng rng(97);
    for (int i = 0; i < 4000; ++i) {
        const Addr addr = rng.below(1ULL << 12) * 128;
        if (rng.chance(0.4)) {
            const std::uint64_t v = rng.next();
            mem.write(addr, v);
            ref[addr] = v;
        } else {
            const auto it = ref.find(addr);
            EXPECT_EQ(mem.read(addr),
                      it == ref.end() ? 0u : it->second);
        }
    }
    // Cross-check every written address at the end.
    for (const auto &[addr, v] : ref)
        EXPECT_EQ(mem.read(addr), v);
    EXPECT_TRUE(checkIntegrity(mem.controller().oram()).ok);
}

TEST_P(SecureMemorySchemes, SequentialScanRoundTrip)
{
    SecureMemory mem(memCfg(GetParam()));
    for (Addr a = 0; a < 2000 * 128; a += 128)
        mem.write(a, a / 128 + 1);
    for (Addr a = 0; a < 2000 * 128; a += 128)
        EXPECT_EQ(mem.read(a), a / 128 + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, SecureMemorySchemes,
    ::testing::Values(MemScheme::OramBaseline, MemScheme::OramStatic,
                      MemScheme::OramDynamic),
    [](const auto &info) {
        return std::string(schemeName(info.param));
    });

TEST(SecureMemory, DirtyVictimsOfPrefetchInsertionsSurvive)
{
    // Regression: a prefetch insertion inside the controller can
    // evict a *dirty* LLC line; its payload must reach the tree via
    // the write-back data source, not be zeroed or dropped.
    SystemConfig cfg = memCfg(MemScheme::OramDynamic);
    cfg.oram.numDataBlocks = 1ULL << 13;
    SecureMemory mem(cfg);
    const std::uint64_t n = 6000; // > LLC lines, forces evictions
    // Sequential write pass: merges pairs AND dirties every line.
    for (std::uint64_t i = 0; i < n; ++i)
        mem.write(i * 128, i * 13 + 7);
    // Second pass re-reads everything after heavy prefetch churn.
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(mem.read(i * 128), i * 13 + 7) << "block " << i;
    EXPECT_GT(mem.stats().merges, 0u);
}

TEST(SecureMemory, StatsAccumulate)
{
    SecureMemory mem(memCfg(MemScheme::OramDynamic));
    for (Addr a = 0; a < 3000 * 128; a += 128)
        mem.write(a, 1);
    const SimResult s = mem.stats();
    EXPECT_EQ(s.scheme, "dyn");
    EXPECT_EQ(s.references, 3000u);
    EXPECT_GT(s.llcMisses, 0u);
    EXPECT_GT(s.pathAccesses, s.llcMisses);
    EXPECT_GT(s.merges, 0u);
}

TEST(SecureMemory, OramPrefetchRunsTheStreamPrefetcher)
{
    // Fig. 5's oram_pre: the facade runs the stack System builds for
    // the scheme, stream prefetcher included.
    SecureMemory mem(memCfg(MemScheme::OramPrefetch));
    for (Addr a = 0; a < 2048 * 128; a += 128)
        mem.read(a);
    EXPECT_GT(mem.controller().stats().traditionalPrefetches, 0u);
}

TEST(SecureMemory, AuditorFollowsConfigAndEnv)
{
    // A critical value no run can meet: every evaluated leaf check
    // fails, so stats() panics exactly when an auditor is attached.
    SystemConfig cfg = memCfg(MemScheme::OramBaseline);
    cfg.audit.minSamples = 1;
    cfg.audit.chiSquareCritical = 1e-12;
    const auto audit_panics = [](const SystemConfig &c) {
        SecureMemory mem(c);
        for (Addr a = 0; a < 600 * 128; a += 128)
            mem.read(a);
        try {
            mem.stats();
        } catch (const SimPanic &) {
            return true;
        }
        return false;
    };

    // The suite itself may run under PRORAM_AUDIT=1 (CI's audited
    // sanitize step does exactly that); save and restore it.
    const char *ambient = std::getenv("PRORAM_AUDIT");
    const std::string saved = ambient ? ambient : "";

    ::unsetenv("PRORAM_AUDIT");
    EXPECT_FALSE(audit_panics(cfg));
    cfg.audit.enabled = true;
    EXPECT_TRUE(audit_panics(cfg));
    cfg.audit.enabled = false;
    ::setenv("PRORAM_AUDIT", "1", 1);
    EXPECT_TRUE(audit_panics(cfg));

    if (ambient)
        ::setenv("PRORAM_AUDIT", saved.c_str(), 1);
    else
        ::unsetenv("PRORAM_AUDIT");
}

TEST(SecureMemory, PeriodicModeWorksFunctionally)
{
    SystemConfig cfg = memCfg(MemScheme::OramDynamic);
    cfg.controller.periodic.enabled = true;
    cfg.controller.periodic.oInt = Cycles{100};
    SecureMemory mem(cfg);
    for (Addr a = 0; a < 500 * 128; a += 128)
        mem.write(a, a + 5);
    mem.compute(Cycles{500000});
    for (Addr a = 0; a < 500 * 128; a += 128)
        EXPECT_EQ(mem.read(a), a + 5);
    EXPECT_GT(mem.stats().periodicDummies, 0u);
}

} // namespace
} // namespace proram
