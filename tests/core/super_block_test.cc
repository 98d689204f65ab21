/** @file Unit tests for super-block geometry helpers. */

#include "core/super_block.hh"

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace proram
{
namespace
{

using namespace proram::literals;

// Stride 0 (stride_log = 0) is the paper's contiguous super block
// (Sec. 3.2); these cases pin that geometry through the strided
// helpers, the only ones the policies use.

TEST(SuperBlock, BaseAlignment)
{
    EXPECT_EQ(sbBaseStrided(0_id, 2, 0), 0_id);
    EXPECT_EQ(sbBaseStrided(1_id, 2, 0), 0_id);
    EXPECT_EQ(sbBaseStrided(2_id, 2, 0), 2_id);
    EXPECT_EQ(sbBaseStrided(7_id, 4, 0), 4_id);
    EXPECT_EQ(sbBaseStrided(7_id, 1, 0), 7_id);
}

TEST(SuperBlock, NonPow2SizePanics)
{
    EXPECT_THROW(sbBaseStrided(0_id, 3, 0), SimPanic);
    EXPECT_THROW(sbNeighborBaseStrided(0_id, 6, 0), SimPanic);
}

TEST(SuperBlock, NeighborBaseXors)
{
    // Fig. 3: (0x00,0x01) and (0x02,0x03) are neighbours.
    EXPECT_EQ(sbNeighborBaseStrided(0_id, 2, 0), 2_id);
    EXPECT_EQ(sbNeighborBaseStrided(2_id, 2, 0), 0_id);
    EXPECT_EQ(sbNeighborBaseStrided(4_id, 4, 0), 0_id);
    EXPECT_EQ(sbNeighborBaseStrided(0_id, 4, 0), 4_id);
    EXPECT_EQ(sbNeighborBaseStrided(5_id, 1, 0), 4_id);
}

TEST(SuperBlock, MisalignedNeighborPanics)
{
    EXPECT_THROW(sbNeighborBaseStrided(1_id, 2, 0), SimPanic);
}

TEST(SuperBlock, AreNeighborsMatchesPaperExamples)
{
    // Block 0x02 is a neighbour of 0x03 (size 1).
    EXPECT_EQ(sbNeighborBaseStrided(2_id, 1, 0), 3_id);
    // (0x00,0x01) is a neighbour of (0x02,0x03).
    EXPECT_EQ(sbNeighborBaseStrided(0_id, 2, 0), 2_id);
    // (0x02,0x03) is NOT a neighbour of (0x04,0x05).
    EXPECT_NE(sbNeighborBaseStrided(2_id, 2, 0), 4_id);
    // 0x03 and 0x04 are not neighbours at size 1 either.
    EXPECT_NE(sbNeighborBaseStrided(3_id, 1, 0), 4_id);
    // A misaligned group has no neighbour.
    EXPECT_THROW(sbNeighborBaseStrided(1_id, 2, 0), SimPanic);
}

TEST(SuperBlock, MembersEnumerate)
{
    EXPECT_EQ(sbMembersStrided(4_id, 1, 0), (std::vector<BlockId>{4_id}));
    EXPECT_EQ(sbMembersStrided(4_id, 4, 0),
              (std::vector<BlockId>{4_id, 5_id, 6_id, 7_id}));
}

TEST(SuperBlock, MergeWithinBoundsChecksDataSpace)
{
    // 100 data blocks: pair (96..99 size 4 -> 8-aligned pair 96..103)
    // spills past the end.
    EXPECT_FALSE(mergeWithinBoundsStrided(96_id, 4, 0, 100, 32));
    EXPECT_TRUE(mergeWithinBoundsStrided(96_id, 2, 0, 100, 32));
}

TEST(SuperBlock, MergeWithinBoundsChecksFanout)
{
    // Merging size-16 blocks creates size 32 == fanout: allowed.
    EXPECT_TRUE(mergeWithinBoundsStrided(0_id, 16, 0, 1024, 32));
    // Creating size 64 > fanout 32: forbidden (Sec. 4.1).
    EXPECT_FALSE(mergeWithinBoundsStrided(0_id, 32, 0, 1024, 32));
}

TEST(SuperBlock, NeighborhoodIsInvolution)
{
    for (std::uint32_t size : {1u, 2u, 4u, 8u}) {
        for (std::uint64_t b = 0; b < 64; b += size) {
            const BlockId base{b};
            EXPECT_EQ(sbNeighborBaseStrided(
                          sbNeighborBaseStrided(base, size, 0), size, 0),
                      base);
        }
    }
}

TEST(SuperBlockStrided, Stride0MatchesClassic)
{
    // Stride 0 groups consecutive ids: an aligned base and the run of
    // size blocks from it.
    for (BlockId id : {0_id, 5_id, 13_id, 100_id}) {
        for (std::uint32_t size : {1u, 2u, 4u}) {
            const BlockId base{id.value() / size * size};
            EXPECT_EQ(sbBaseStrided(id, size, 0), base);
            std::vector<BlockId> run;
            for (std::uint32_t i = 0; i < size; ++i)
                run.push_back(base + i);
            EXPECT_EQ(sbMembersStrided(base, size, 0), run);
        }
    }
    EXPECT_EQ(sbNeighborBaseStrided(4_id, 4, 0), 0_id);
}

TEST(SuperBlockStrided, BaseClearsStrideField)
{
    // size 2, stride 4 (log 2): members {b, b+4}; bit 2 selects.
    EXPECT_EQ(sbBaseStrided(0_id, 2, 2), 0_id);
    EXPECT_EQ(sbBaseStrided(4_id, 2, 2), 0_id);
    EXPECT_EQ(sbBaseStrided(5_id, 2, 2), 1_id);
    EXPECT_EQ(sbBaseStrided(7_id, 2, 2), 3_id);
    // size 4, stride 2 (log 1): bits 1..2 cleared.
    EXPECT_EQ(sbBaseStrided(6_id, 4, 1), 0_id);
    EXPECT_EQ(sbBaseStrided(9_id, 4, 1), BlockId{9u & ~6u});
}

TEST(SuperBlockStrided, MembersAreStrideSpaced)
{
    EXPECT_EQ(sbMembersStrided(1_id, 2, 2),
              (std::vector<BlockId>{1_id, 5_id}));
    EXPECT_EQ(sbMembersStrided(0_id, 4, 1),
              (std::vector<BlockId>{0_id, 2_id, 4_id, 6_id}));
}

TEST(SuperBlockStrided, NeighborFlipsNextBit)
{
    // Pair {1,5} (size 2 stride 4): neighbour is {9,13}.
    EXPECT_EQ(sbNeighborBaseStrided(1_id, 2, 2), 9_id);
    EXPECT_EQ(sbNeighborBaseStrided(9_id, 2, 2), 1_id);
}

TEST(SuperBlockStrided, NeighborhoodIsInvolution)
{
    for (std::uint32_t s : {0u, 1u, 2u, 3u}) {
        for (std::uint32_t size : {1u, 2u, 4u}) {
            for (std::uint64_t i = 0; i < 64; ++i) {
                const BlockId id{i};
                const BlockId base = sbBaseStrided(id, size, s);
                EXPECT_EQ(sbNeighborBaseStrided(
                              sbNeighborBaseStrided(base, size, s),
                              size, s),
                          base);
            }
        }
    }
}

TEST(SuperBlockStrided, MergeBoundsUseSpan)
{
    // size 8 stride 4: merged span = 16*4 = 64 > fanout 32.
    EXPECT_FALSE(mergeWithinBoundsStrided(0_id, 8, 2, 1 << 20, 32));
    // size 4 stride 2: span 16 <= 32, inside data space.
    EXPECT_TRUE(mergeWithinBoundsStrided(0_id, 4, 1, 1 << 20, 32));
    // Last member past the data space.
    EXPECT_FALSE(mergeWithinBoundsStrided(96_id, 2, 2, 100, 32));
}

} // namespace
} // namespace proram
