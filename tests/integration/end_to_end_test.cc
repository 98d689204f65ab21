/** @file End-to-end integration: realistic applications over the
 *  public API, exercising the full stack. */

#include <gtest/gtest.h>

#include <vector>

#include "oram/integrity.hh"
#include "sim/experiment.hh"
#include "sim/secure_memory.hh"

namespace proram
{
namespace
{

SystemConfig
cfg(MemScheme scheme)
{
    SystemConfig c = defaultSystemConfig();
    c.scheme = scheme;
    c.oram.numDataBlocks = 1ULL << 13;
    return c;
}

/** An in-place matrix transpose over SecureMemory. */
TEST(EndToEnd, ObliviousMatrixTranspose)
{
    SecureMemory mem(cfg(MemScheme::OramDynamic));
    const std::uint64_t n = 64;
    auto at = [&](std::uint64_t r, std::uint64_t c) {
        return (r * n + c) * 128;
    };
    for (std::uint64_t r = 0; r < n; ++r) {
        for (std::uint64_t c = 0; c < n; ++c)
            mem.write(at(r, c), r * 1000 + c);
    }
    for (std::uint64_t r = 0; r < n; ++r) {
        for (std::uint64_t c = r + 1; c < n; ++c) {
            const auto a = mem.read(at(r, c));
            const auto b = mem.read(at(c, r));
            mem.write(at(r, c), b);
            mem.write(at(c, r), a);
        }
    }
    for (std::uint64_t r = 0; r < n; ++r) {
        for (std::uint64_t c = 0; c < n; ++c)
            ASSERT_EQ(mem.read(at(r, c)), c * 1000 + r);
    }
    EXPECT_TRUE(checkIntegrity(mem.controller().oram()).ok);
    EXPECT_GT(mem.stats().merges, 0u);
}

/** A hash-table build + probe (random access pattern). */
TEST(EndToEnd, ObliviousHashTable)
{
    SecureMemory mem(cfg(MemScheme::OramDynamic));
    const std::uint64_t buckets = 4096;
    auto slot = [&](std::uint64_t k) {
        return ((k * 2654435761ULL) % buckets) * 128;
    };
    for (std::uint64_t k = 1; k <= 1500; ++k)
        mem.write(slot(k), k);
    std::uint64_t found = 0;
    for (std::uint64_t k = 1; k <= 1500; ++k)
        found += mem.read(slot(k)) != 0 ? 1 : 0;
    EXPECT_EQ(found, 1500u);
    EXPECT_TRUE(checkIntegrity(mem.controller().oram()).ok);
}

/** Grid stencil sweep (the ocean-style pattern PrORAM targets). */
TEST(EndToEnd, StencilSweepBenefitsFromPrefetching)
{
    SystemConfig base_cfg = cfg(MemScheme::OramBaseline);
    SystemConfig dyn_cfg = cfg(MemScheme::OramDynamic);
    auto sweep = [](SecureMemory &mem) {
        const std::uint64_t cells = 6000;
        for (int pass = 0; pass < 3; ++pass) {
            for (std::uint64_t i = 1; i + 1 < cells; ++i) {
                const auto l = mem.read((i - 1) * 128);
                const auto c = mem.read(i * 128);
                const auto r = mem.read((i + 1) * 128);
                mem.write(i * 128, l + c + r);
            }
        }
    };
    SecureMemory base(base_cfg), dyn(dyn_cfg);
    sweep(base);
    sweep(dyn);
    EXPECT_LT(dyn.now(), base.now())
        << "dynamic super blocks must accelerate streaming sweeps";
    EXPECT_LT(dyn.stats().pathAccesses, base.stats().pathAccesses);
}

/** Full trace-driven runs complete and agree with CPU accounting. */
TEST(EndToEnd, TraceRunsAllSchemes)
{
    const Experiment exp(defaultSystemConfig(), 0.05);
    const auto &prof = profileByName("cholesky");
    for (MemScheme s :
         {MemScheme::Dram, MemScheme::DramPrefetch,
          MemScheme::OramBaseline, MemScheme::OramPrefetch,
          MemScheme::OramStatic, MemScheme::OramDynamic}) {
        const auto res = run(exp.cell(s, prof));
        EXPECT_GT(res.cycles, Cycles{0}) << schemeName(s);
        EXPECT_EQ(res.references, prof.numAccesses / 20)
            << schemeName(s);
        EXPECT_GT(res.memAccesses, 0u) << schemeName(s);
    }
}

/** The whole benchmark registry is runnable. */
TEST(EndToEnd, EveryProfileRuns)
{
    const Experiment exp(defaultSystemConfig(), 0.01);
    for (const auto *suite :
         {&splash2Suite(), &spec06Suite(), &dbmsSuite()}) {
        for (const auto &p : *suite) {
            const auto res = run(exp.cell(MemScheme::OramDynamic, p));
            EXPECT_GT(res.cycles, Cycles{0}) << p.name;
        }
    }
}

} // namespace
} // namespace proram
