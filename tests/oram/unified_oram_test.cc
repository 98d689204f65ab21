/** @file Unit tests for the unified (recursive) ORAM front end. */

#include "oram/unified_oram.hh"

#include <gtest/gtest.h>

#include "oram/integrity.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace proram
{
namespace
{

using namespace proram::literals;

OramConfig
recCfg()
{
    OramConfig c;
    c.numDataBlocks = 1ULL << 12; // 2 pos-map levels
    c.plbEntries = 8;
    c.stashCapacity = 60;
    c.seed = 5;
    return c;
}

TEST(UnifiedOram, InitializeAssignsLeavesToEveryBlock)
{
    UnifiedOram u(recCfg());
    u.initialize();
    for (std::uint64_t i = 0; i < u.space().numTotalBlocks(); ++i) {
        const BlockId b{i};
        EXPECT_NE(u.posMap().leafOf(b), kInvalidLeaf);
        EXPECT_LT(u.posMap().leafOf(b).value(),
                  u.engine().tree().numLeaves());
    }
    EXPECT_TRUE(checkIntegrity(u).ok);
}

TEST(UnifiedOram, InvalidConfigIsFatalBeforeAnyMemberIsBuilt)
{
    // Both configs reach BlockSpace's fanout arithmetic: a zero entry
    // size divides by zero, and an entry wider than a block gives a
    // zero fanout. validate() must reject them first.
    OramConfig zero_entry = recCfg();
    zero_entry.posMapEntryBytes = 0;
    EXPECT_THROW({ UnifiedOram u(zero_entry); }, SimFatal);
    OramConfig wide_entry = recCfg();
    wide_entry.posMapEntryBytes = wide_entry.blockBytes * 2;
    EXPECT_THROW({ UnifiedOram u(wide_entry); }, SimFatal);
}

TEST(UnifiedOram, InitializeTwicePanics)
{
    UnifiedOram u(recCfg());
    u.initialize();
    EXPECT_THROW(u.initialize(), SimPanic);
}

TEST(UnifiedOram, StaticInitializationMergesAlignedGroups)
{
    UnifiedOram u(recCfg());
    u.initialize(4);
    for (std::uint64_t i = 0; i < u.space().numDataBlocks(); i += 4) {
        const BlockId base{i};
        const Leaf leaf = u.posMap().leafOf(base);
        for (BlockId m = base; m < base + 4; ++m) {
            EXPECT_EQ(u.posMap().leafOf(m), leaf);
            EXPECT_EQ(u.posMap().entry(m).sbSize(), 4u);
        }
    }
    EXPECT_TRUE(checkIntegrity(u).ok);
}

TEST(UnifiedOram, StaticInitializationCannotSpanPosMapBlocks)
{
    UnifiedOram u(recCfg());
    EXPECT_THROW(u.initialize(64), SimFatal); // fanout is 32
}

TEST(UnifiedOram, PosMapBlocksNeverMerged)
{
    UnifiedOram u(recCfg());
    u.initialize(2);
    for (std::uint64_t i = u.space().numDataBlocks();
         i < u.space().numTotalBlocks(); ++i) {
        EXPECT_EQ(u.posMap().entry(BlockId{i}).sbSize(), 1u);
    }
}

TEST(UnifiedOram, ColdWalkFetchesWholeChain)
{
    UnifiedOram u(recCfg());
    u.initialize();
    const PosMapWalk walk = u.posMapWalk(0_id);
    // 2 tree-resident pos-map levels, PLB cold: both fetched.
    EXPECT_EQ(walk.pathAccesses(), 2u);
    EXPECT_TRUE(u.posMapCached(0_id));
}

TEST(UnifiedOram, WarmWalkIsFree)
{
    UnifiedOram u(recCfg());
    u.initialize();
    u.posMapWalk(0_id);
    const PosMapWalk walk = u.posMapWalk(0_id);
    EXPECT_EQ(walk.pathAccesses(), 0u);
    // Neighbouring addresses share the pos-map block.
    EXPECT_EQ(u.posMapWalk(1_id).pathAccesses(), 0u);
    EXPECT_EQ(u.posMapWalk(31_id).pathAccesses(), 0u);
}

TEST(UnifiedOram, DistantAddressMissesOnlyLevel1)
{
    UnifiedOram u(recCfg());
    u.initialize();
    u.posMapWalk(0_id);
    // Block 32 uses a different level-1 block but (0 and 32) share
    // the level-2 block, which is now cached.
    EXPECT_EQ(u.posMapWalk(32_id).pathAccesses(), 1u);
}

TEST(UnifiedOram, WalkRemapsFetchedPosMapBlocks)
{
    UnifiedOram u(recCfg());
    u.initialize();
    const BlockId pm1 = u.space().posMapBlockOf(0_id);
    const Leaf before = u.posMap().leafOf(pm1);
    u.posMapWalk(0_id);
    // Remapped with overwhelming probability (leaf space is large);
    // allow equality but require integrity.
    (void)before;
    EXPECT_TRUE(checkIntegrity(u).ok);
}

TEST(UnifiedOram, ManyWalksPreserveIntegrity)
{
    UnifiedOram u(recCfg());
    u.initialize();
    Rng rng(7);
    for (int i = 0; i < 300; ++i) {
        u.posMapWalk(BlockId{rng.below(u.space().numDataBlocks())});
        while (u.engine().stash().overCapacity())
            u.engine().dummyAccess();
    }
    const auto report = checkIntegrity(u);
    EXPECT_TRUE(report.ok) << (report.violations.empty()
                                   ? ""
                                   : report.violations.front());
}

TEST(UnifiedOram, PlbThrashingStillCorrect)
{
    OramConfig cfg = recCfg();
    cfg.plbEntries = 1; // pathological PLB
    UnifiedOram u(cfg);
    u.initialize();
    Rng rng(8);
    std::uint64_t total_paths = 0;
    for (int i = 0; i < 100; ++i)
        total_paths +=
            u.posMapWalk(BlockId{rng.below(4096)}).pathAccesses();
    EXPECT_GT(total_paths, 100u); // nearly every walk misses
    EXPECT_TRUE(checkIntegrity(u).ok);
}

TEST(UnifiedOram, OnChipPosMapLeavesThePlbEmpty)
{
    // 16 data blocks fit the on-chip table: no position-map block is
    // tree-resident, the PLB's slot table is empty, and every walk
    // is free without consulting it.
    OramConfig cfg = recCfg();
    cfg.numDataBlocks = 16;
    UnifiedOram u(cfg);
    u.initialize();
    ASSERT_EQ(u.space().numTotalBlocks(), 16u);
    for (std::uint64_t i = 0; i < 16; ++i) {
        EXPECT_EQ(u.posMapWalk(BlockId{i}).pathAccesses(), 0u);
        EXPECT_TRUE(u.posMapCached(BlockId{i}));
    }
    EXPECT_EQ(u.plb().size(), 0u);
    EXPECT_EQ(u.plb().hits() + u.plb().misses(), 0u);
    EXPECT_TRUE(checkIntegrity(u).ok);
}

TEST(UnifiedOram, WalkOfPosMapBlockItself)
{
    UnifiedOram u(recCfg());
    u.initialize();
    // Walking a level-1 block needs only its level-2 parent.
    const BlockId pm1 = u.space().posMapBlockOf(0_id);
    const PosMapWalk walk = u.posMapWalk(pm1);
    EXPECT_EQ(walk.pathAccesses(), 1u);
}

} // namespace
} // namespace proram
