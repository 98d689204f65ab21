/** @file Unit tests for the experiment harness and metrics. */

#include "sim/experiment.hh"

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace proram
{
namespace
{

SimResult
fake(Cycles cycles, std::uint64_t accesses)
{
    SimResult r;
    r.cycles = cycles;
    r.memAccesses = accesses;
    return r;
}

TEST(Metrics, Speedup)
{
    EXPECT_DOUBLE_EQ(metrics::speedup(fake(Cycles{1000}, 1), fake(Cycles{800}, 1)),
                     0.25);
    EXPECT_DOUBLE_EQ(metrics::speedup(fake(Cycles{1000}, 1), fake(Cycles{1000}, 1)),
                     0.0);
    EXPECT_LT(metrics::speedup(fake(Cycles{1000}, 1), fake(Cycles{1250}, 1)), 0.0);
}

TEST(Metrics, NormMemAccesses)
{
    EXPECT_DOUBLE_EQ(
        metrics::normMemAccesses(fake(Cycles{1}, 200), fake(Cycles{1}, 150)), 0.75);
}

TEST(Metrics, NormCompletionTime)
{
    EXPECT_DOUBLE_EQ(
        metrics::normCompletionTime(fake(Cycles{100}, 1), fake(Cycles{250}, 1)), 2.5);
}

TEST(Metrics, DegenerateInputsPanic)
{
    EXPECT_THROW(metrics::speedup(fake(Cycles{1}, 1), fake(Cycles{0}, 1)), SimPanic);
    EXPECT_THROW(metrics::normMemAccesses(fake(Cycles{1}, 0), fake(Cycles{1}, 1)),
                 SimPanic);
}

TEST(Experiment, Mean)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({2.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Experiment, RunBenchmarkProducesResults)
{
    SystemConfig cfg = defaultSystemConfig();
    Experiment exp(cfg, 0.02);
    const auto res = exp.runBenchmark(MemScheme::OramBaseline,
                                      profileByName("fft"));
    EXPECT_GT(res.cycles, Cycles{0});
    EXPECT_EQ(res.scheme, "oram");
}

TEST(Experiment, RunWithAppliesTweaks)
{
    SystemConfig cfg = defaultSystemConfig();
    Experiment exp(cfg, 0.02);
    const auto &prof = profileByName("fft");
    const auto base = exp.runBenchmark(MemScheme::OramBaseline, prof);
    const auto slow = exp.runWith(
        MemScheme::OramBaseline,
        [](SystemConfig &c) { c.setDramBandwidthGBs(4.0); },
        [&] { return makeGenerator(prof, 0.02); });
    EXPECT_GT(slow.cycles, base.cycles);
}

TEST(Experiment, FreshSystemsPerRun)
{
    SystemConfig cfg = defaultSystemConfig();
    Experiment exp(cfg, 0.02);
    const auto &prof = profileByName("raytrace");
    const auto a = exp.runBenchmark(MemScheme::OramDynamic, prof);
    const auto b = exp.runBenchmark(MemScheme::OramDynamic, prof);
    EXPECT_EQ(a.cycles, b.cycles) << "state leaked between runs";
}

TEST(Experiment, TraceAddressBeyondOramCapacityIsFatal)
{
    // A trace can name any address: one past the ORAM's data blocks
    // is bad input (SimFatal), not a simulator bug (SimPanic).
    SystemConfig cfg = defaultSystemConfig();
    Experiment exp(cfg, 0.02);
    const Addr past = cfg.oram.numDataBlocks * cfg.oram.blockBytes;
    const std::vector<TraceRecord> records = {
        {0, 0x1000, OpType::Read},
        {5, past, OpType::Read},
    };
    EXPECT_THROW(exp.runReplay(MemScheme::OramBaseline, records),
                 SimFatal);
}

TEST(Experiment, RejectsBadScale)
{
    EXPECT_THROW(Experiment(defaultSystemConfig(), 0.0), SimFatal);
}

TEST(Experiment, BenchScaleFromEnvParsesStrictly)
{
    ::unsetenv("PRORAM_BENCH_SCALE");
    EXPECT_EQ(benchScaleFromEnv(), 1.0);
    ::setenv("PRORAM_BENCH_SCALE", "0.02", 1);
    EXPECT_EQ(benchScaleFromEnv(), 0.02);
    // The whole value must be a finite number > 0.
    for (const char *bad :
         {"abc", "0.02x", "", "inf", "-inf", "nan", "0", "-1", "1e400"}) {
        SCOPED_TRACE(bad);
        ::setenv("PRORAM_BENCH_SCALE", bad, 1);
        EXPECT_THROW(benchScaleFromEnv(), SimFatal);
    }
    ::unsetenv("PRORAM_BENCH_SCALE");
}

} // namespace
} // namespace proram
