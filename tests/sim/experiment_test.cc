/** @file Unit tests for the experiment harness and metrics. */

#include "sim/experiment.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "trace/trace_file.hh"
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
    const Experiment exp(defaultSystemConfig(), 0.02);
    const auto res =
        run(exp.cell(MemScheme::OramBaseline, profileByName("fft")));
    EXPECT_GT(res.cycles, Cycles{0});
    EXPECT_EQ(res.scheme, "oram");
}

TEST(Experiment, RunWithAppliesTweaks)
{
    const Experiment exp(defaultSystemConfig(), 0.02);
    const Cell base =
        exp.cell(MemScheme::OramBaseline, profileByName("fft"));
    Cell slow = base;
    slow.config.setDramBandwidthGBs(4.0);
    EXPECT_GT(run(slow).cycles, run(base).cycles);
}

TEST(Experiment, FreshSystemsPerRun)
{
    const Experiment exp(defaultSystemConfig(), 0.02);
    const Cell cell =
        exp.cell(MemScheme::OramDynamic, profileByName("raytrace"));
    const auto a = run(cell);
    const auto b = run(cell);
    EXPECT_EQ(a.cycles, b.cycles) << "state leaked between runs";
}

TEST(Experiment, TraceAddressBeyondOramCapacityIsFatal)
{
    // A trace can name any address: one past the ORAM's data blocks
    // is bad input (SimFatal), not a simulator bug (SimPanic).
    SystemConfig cfg = defaultSystemConfig();
    const Addr past = cfg.oram.numDataBlocks * cfg.oram.blockBytes;
    ReplayGenerator gen({
        {0, 0x1000, OpType::Read},
        {5, past, OpType::Read},
    });
    System system(cfg);
    EXPECT_THROW(system.run(gen), SimFatal);
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

TEST(Experiment, BenchThreadsFromEnvParsesStrictly)
{
    ::setenv("PRORAM_BENCH_THREADS", "3", 1);
    EXPECT_EQ(benchThreadsFromEnv(), 3u);
    ::setenv("PRORAM_BENCH_THREADS", "4294967295", 1);
    EXPECT_EQ(benchThreadsFromEnv(), 4294967295u);
    ::unsetenv("PRORAM_BENCH_THREADS");
    EXPECT_GE(benchThreadsFromEnv(), 1u);
    // The whole value must be a positive integer that fits unsigned.
    for (const char *bad : {"not-a-number", "4x", "", "0", "-1", "2.5",
                            "4294967296", "99999999999999999999"}) {
        SCOPED_TRACE(bad);
        ::setenv("PRORAM_BENCH_THREADS", bad, 1);
        EXPECT_THROW(benchThreadsFromEnv(), SimFatal);
    }
    ::unsetenv("PRORAM_BENCH_THREADS");
}

/**
 * @p n grid cells. Cell i counts its run in @p ran, notes the thread
 * it ran on in @p ran_on[i] and returns i + 1 cycles. Earlier cells
 * take longer, so on several threads they finish out of index order.
 */
std::vector<Experiment::GridCell>
countingCells(std::size_t n, std::atomic<std::size_t> &ran,
              std::vector<std::thread::id> &ran_on)
{
    ran_on.assign(n, std::thread::id{});
    std::vector<Experiment::GridCell> cells;
    for (std::size_t i = 0; i < n; ++i) {
        cells.push_back([i, n, &ran, &ran_on] {
            std::this_thread::sleep_for(std::chrono::milliseconds(n - i));
            ran_on[i] = std::this_thread::get_id();
            ++ran;
            return fake(Cycles{i + 1}, 1);
        });
    }
    return cells;
}

TEST(Experiment, GridReturnsResultsInCellOrder)
{
    constexpr std::size_t kCells = 8;
    // 0 reads PRORAM_BENCH_THREADS; the last count exceeds the cells.
    ::setenv("PRORAM_BENCH_THREADS", "1", 1);
    for (const unsigned threads : {0u, 1u, 3u, 2 * unsigned{kCells}}) {
        SCOPED_TRACE(threads);
        std::atomic<std::size_t> ran{0};
        std::vector<std::thread::id> ran_on;
        const std::vector<SimResult> results =
            Experiment::runGrid(countingCells(kCells, ran, ran_on), threads);
        EXPECT_EQ(ran.load(), kCells);
        ASSERT_EQ(results.size(), kCells);
        for (std::size_t i = 0; i < kCells; ++i)
            EXPECT_EQ(results[i].cycles, Cycles{i + 1}) << "cell " << i;
        if (threads <= 1) {
            for (const std::thread::id id : ran_on)
                EXPECT_EQ(id, std::this_thread::get_id());
        }
    }
    ::unsetenv("PRORAM_BENCH_THREADS");
}

TEST(Experiment, GridCellExceptionPropagates)
{
    // Cells 1 and 4 throw; cell 1 is the slowest, so on several
    // threads it usually throws second. Every cell still runs, and
    // the lower index's exception is the one rethrown.
    constexpr std::size_t kCells = 6;
    for (const unsigned threads : {1u, 3u}) {
        SCOPED_TRACE(threads);
        std::atomic<std::size_t> ran{0};
        std::vector<std::thread::id> ran_on;
        std::vector<Experiment::GridCell> cells =
            countingCells(kCells, ran, ran_on);
        cells[1] = [&ran]() -> SimResult {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            ++ran;
            throw std::runtime_error("cell 1");
        };
        cells[4] = [&ran]() -> SimResult {
            ++ran;
            throw std::runtime_error("cell 4");
        };
        try {
            Experiment::runGrid(cells, threads);
            ADD_FAILURE() << "runGrid returned";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "cell 1");
        }
        EXPECT_EQ(ran.load(), kCells);
    }
}

/** Three cheap, pairwise different cells. */
std::vector<Cell>
threeCells()
{
    const Experiment exp(defaultSystemConfig(), 0.01);
    return {exp.cell(MemScheme::Dram, profileByName("fft")),
            exp.cell(MemScheme::OramBaseline, profileByName("fft")),
            exp.cell(MemScheme::Dram, profileByName("radix"))};
}

TEST(CellReplay, RepeatedCellIsSimulatedOnce)
{
    const std::vector<Cell> c = threeCells();
    CellReplay replay;
    for (const Cell *cell : {&c[0], &c[1], &c[0], &c[0]}) {
        // The recording placeholder must pass the metrics helpers.
        const SimResult &r = replay.ask(*cell);
        EXPECT_DOUBLE_EQ(metrics::speedup(r, r), 0.0);
        EXPECT_DOUBLE_EQ(metrics::normMemAccesses(r, r), 1.0);
    }
    EXPECT_EQ(replay.asked(), 4u);
    EXPECT_EQ(replay.distinct(), 2u);

    // Every simulated cell writes one metrics line.
    const std::string metrics_file =
        ::testing::TempDir() + "cell_replay.metrics.jsonl";
    std::remove(metrics_file.c_str());
    ::setenv("PRORAM_METRICS_FILE", metrics_file.c_str(), 1);
    replay.simulate(2);
    ::unsetenv("PRORAM_METRICS_FILE");
    std::ifstream in(metrics_file);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line))
        ++lines;
    EXPECT_EQ(lines, 2u);
    std::remove(metrics_file.c_str());
}

TEST(CellReplay, AnswersComeBackInAskOrder)
{
    const std::vector<Cell> c = threeCells();
    const std::vector<const Cell *> asks = {&c[2], &c[0], &c[1], &c[0],
                                            &c[2]};
    CellReplay replay;
    for (const Cell *cell : asks)
        replay.ask(*cell);
    replay.simulate(3);
    for (const Cell *cell : asks) {
        const SimResult want = run(*cell);
        const SimResult &got = replay.ask(*cell);
        EXPECT_EQ(got.scheme, want.scheme);
        EXPECT_EQ(got.cycles, want.cycles);
        EXPECT_EQ(got.memAccesses, want.memAccesses);
    }
}

TEST(CellReplay, DifferentCellOnReplayPanics)
{
    const std::vector<Cell> c = threeCells();
    CellReplay replay;
    replay.ask(c[0]);
    replay.ask(c[1]);
    replay.simulate(1);
    replay.ask(c[0]);
    EXPECT_THROW(replay.ask(c[2]), SimPanic);

    // A config field the cell's scheme never reads still makes it
    // another cell.
    CellReplay strict;
    strict.ask(c[0]);
    strict.simulate(1);
    Cell other = c[0];
    other.config.dynamic.cMerge = 2.0;
    EXPECT_THROW(strict.ask(other), SimPanic);

    // So does an ask past the end of the recording.
    CellReplay empty;
    empty.simulate(1);
    EXPECT_THROW(empty.ask(c[0]), SimPanic);
}

} // namespace
} // namespace proram
