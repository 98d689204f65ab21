/**
 * @file
 * Batched request pipeline determinism: the TraceCpu drive loop
 * amortizes decode and stats flushes over RequestBatch-sized chunks,
 * but per-record semantics (access order, epoch rolls, scheduler
 * decisions) are untouched - so every batch size must produce a
 * bit-identical SimResult. This is the contract that lets the batch
 * size be a pure performance knob.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "trace/benchmarks.hh"
#include "trace/trace_file.hh"

namespace proram
{
namespace
{

void
expectSameResult(const SimResult &a, const SimResult &b,
                 const char *what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.references, b.references);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(a.writebacks, b.writebacks);
    EXPECT_EQ(a.memAccesses, b.memAccesses);
    EXPECT_EQ(a.pathAccesses, b.pathAccesses);
    EXPECT_EQ(a.posMapAccesses, b.posMapAccesses);
    EXPECT_EQ(a.bgEvictions, b.bgEvictions);
    EXPECT_EQ(a.periodicDummies, b.periodicDummies);
    EXPECT_EQ(a.prefetchHits, b.prefetchHits);
    EXPECT_EQ(a.prefetchMisses, b.prefetchMisses);
    EXPECT_EQ(a.merges, b.merges);
    EXPECT_EQ(a.breaks, b.breaks);
    EXPECT_DOUBLE_EQ(a.avgStashOccupancy, b.avgStashOccupancy);
}

SimResult
runWithBatch(const Experiment &exp, MemScheme scheme,
             std::uint32_t batch)
{
    Cell c = exp.cell(scheme, profileByName("cholesky"));
    c.config.cpuBatch = batch;
    return run(c);
}

TEST(BatchedDrive, BatchSizeNeverChangesResults)
{
    Experiment exp(defaultSystemConfig(), /*trace_scale=*/0.02);
    const MemScheme schemes[] = {MemScheme::Dram,
                                 MemScheme::OramBaseline,
                                 MemScheme::OramDynamic};
    for (const MemScheme scheme : schemes) {
        const SimResult base = runWithBatch(exp, scheme, 1);
        expectSameResult(base, runWithBatch(exp, scheme, 7),
                         "batch 7 vs 1");
        expectSameResult(base, runWithBatch(exp, scheme, 64),
                         "batch 64 vs 1");
    }
}

TEST(BatchedDrive, ReplayFastPathMatchesLiveGenerator)
{
    // ReplayGenerator feeds pre-decoded records through the
    // contiguous-copy fillBatch; the live generator decodes per batch.
    // Same records, same machine - same stats.
    const Experiment exp(defaultSystemConfig(), /*trace_scale=*/0.02);
    const Cell live_cell =
        exp.cell(MemScheme::OramDynamic, profileByName("radix"));
    auto gen = makeGenerator(profileByName("radix"), 0.02);
    std::vector<TraceRecord> records;
    TraceRecord rec;
    while (gen->next(rec))
        records.push_back(rec);

    ReplayGenerator replay_gen(std::move(records));
    System system(live_cell.config);
    const SimResult replay = system.run(replay_gen);
    expectSameResult(run(live_cell), replay, "replay vs live");
}

} // namespace
} // namespace proram
