/** @file Unit tests for the binary tree's bucket-record storage. */

#include "oram/tree.hh"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "util/logging.hh"

namespace proram
{
namespace
{

using namespace proram::literals;

TEST(Bucket, OccupancyAndFreeSlots)
{
    BinaryTree t(1, 3);
    BucketRef b = t.bucket(0_node);
    EXPECT_EQ(b.occupancy(), 0u);
    EXPECT_EQ(b.freeSlots(), 3u);
    EXPECT_TRUE(b.tryPlace(7_id, 70));
    EXPECT_EQ(b.occupancy(), 1u);
    EXPECT_TRUE(b.tryPlace(8_id, 0));
    EXPECT_TRUE(b.tryPlace(9_id, 0));
    EXPECT_EQ(b.occupancy(), 3u);
    EXPECT_EQ(b.freeSlots(), 0u);
    EXPECT_FALSE(b.tryPlace(10_id, 0));
}

TEST(Bucket, PlacementFillsFirstDummySlot)
{
    BinaryTree t(1, 3);
    BucketRef b = t.bucket(0_node);
    b.tryPlace(1_id, 10);
    b.tryPlace(2_id, 20);
    b.tryPlace(3_id, 30);
    EXPECT_EQ(b.id(0), 1_id);
    b.clearSlot(1);
    EXPECT_TRUE(b.isDummy(1));
    EXPECT_EQ(b.occupancy(), 2u);
    // Reuse reclaims the hole, not a new slot.
    EXPECT_TRUE(b.tryPlace(4_id, 40));
    EXPECT_EQ(b.id(1), 4_id);
    EXPECT_EQ(b.data(1), 40u);
}

TEST(Bucket, ClearSlotIsIdempotent)
{
    BinaryTree t(1, 2);
    BucketRef b = t.bucket(0_node);
    b.tryPlace(5_id, 0);
    b.clearSlot(0);
    b.clearSlot(0); // clearing a dummy must not free a second slot
    EXPECT_EQ(b.freeSlots(), 2u);
    EXPECT_EQ(b.occupancy(), 0u);
}

TEST(Tree, ArenaLayoutIsBucketMajor)
{
    BinaryTree t(2, 3);
    t.bucket(4_node).tryPlace(42_id, 9);
    t.bucket(4_node).tryPlace(0_id, 7);
    // Bucket b is one record of Z stored ids (id + 1, so block 0 is
    // not an empty slot) then Z payloads, right behind bucket b-1's.
    const std::uint64_t *rec = t.record(4_node);
    EXPECT_EQ(rec, t.record(3_node) + 2 * 3);
    EXPECT_EQ(rec[0], 43u);
    EXPECT_EQ(rec[1], 1u);
    EXPECT_EQ(rec[2], 0u);
    EXPECT_EQ(rec[3], 9u);
    EXPECT_EQ(rec[4], 7u);
    EXPECT_EQ(rec[5], 0u);
    EXPECT_EQ(t.slotId(4_node, 0), 42_id);
    EXPECT_EQ(t.slotId(4_node, 1), 0_id);
    EXPECT_EQ(t.slotId(4_node, 2), kInvalidBlock);
    EXPECT_EQ(t.slotData(4_node, 0), 9u);
    // Clearing a slot zeroes both of its words: an empty bucket is an
    // all-zero record.
    t.clearSlot(4_node, 0);
    t.clearSlot(4_node, 1);
    for (std::uint32_t w = 0; w < 2 * 3; ++w)
        EXPECT_EQ(rec[w], 0u) << "word " << w;
}

TEST(Tree, GeometryCounts)
{
    BinaryTree t(3, 4);
    EXPECT_EQ(t.levels(), 3u);
    EXPECT_EQ(t.numLeaves(), 8u);
    EXPECT_EQ(t.numBuckets(), 15u);
    EXPECT_EQ(t.z(), 4u);
}

TEST(Tree, RootIsOnEveryPath)
{
    BinaryTree t(4, 3);
    for (std::uint32_t s = 0; s < t.numLeaves(); ++s)
        EXPECT_EQ(t.nodeOnPath(Leaf{s}, 0_lvl), 0_node);
}

TEST(Tree, LeavesAreDistinctAndAtBottom)
{
    BinaryTree t(3, 3);
    // Leaf nodes occupy heap indices [7, 15).
    TreeIdx prev{0};
    for (std::uint32_t s = 0; s < t.numLeaves(); ++s) {
        const TreeIdx node = t.nodeOnPath(Leaf{s}, 3_lvl);
        EXPECT_GE(node.value(), 7u);
        EXPECT_LT(node.value(), 15u);
        if (s > 0) {
            EXPECT_NE(node, prev);
        }
        prev = node;
    }
}

TEST(Tree, PathIsConnectedParentChain)
{
    BinaryTree t(5, 3);
    for (Leaf s : {0_leaf, 13_leaf, 31_leaf}) {
        TreeIdx parent = t.nodeOnPath(s, 0_lvl);
        for (std::uint32_t l = 1; l <= t.levels(); ++l) {
            const TreeIdx node = t.nodeOnPath(s, Level{l});
            EXPECT_EQ(TreeIdx{(node.value() - 1) / 2}, parent)
                << "path " << s << " broken at level " << l;
            parent = node;
        }
    }
}

TEST(Tree, CommonLevelProperties)
{
    BinaryTree t(3, 3);
    // Same leaf: full depth.
    EXPECT_EQ(t.commonLevel(5_leaf, 5_leaf), 3_lvl);
    // Leaves 0 (000) and 7 (111) diverge at the root.
    EXPECT_EQ(t.commonLevel(0_leaf, 7_leaf), 0_lvl);
    // Leaves 6 (110) and 7 (111) share root + 2 levels.
    EXPECT_EQ(t.commonLevel(6_leaf, 7_leaf), 2_lvl);
    // Symmetric.
    for (std::uint32_t a = 0; a < 8; ++a) {
        for (std::uint32_t b = 0; b < 8; ++b)
            EXPECT_EQ(t.commonLevel(Leaf{a}, Leaf{b}),
                      t.commonLevel(Leaf{b}, Leaf{a}));
    }
}

TEST(Tree, CommonLevelMatchesSharedNodes)
{
    BinaryTree t(4, 3);
    for (std::uint32_t a = 0; a < t.numLeaves(); a += 3) {
        for (std::uint32_t b = 0; b < t.numLeaves(); b += 5) {
            const Level cl = t.commonLevel(Leaf{a}, Leaf{b});
            for (Level l{0}; l <= cl; ++l)
                EXPECT_EQ(t.nodeOnPath(Leaf{a}, l),
                          t.nodeOnPath(Leaf{b}, l));
            if (cl.value() < t.levels()) {
                EXPECT_NE(t.nodeOnPath(Leaf{a}, cl + 1),
                          t.nodeOnPath(Leaf{b}, cl + 1));
            }
        }
    }
}

TEST(Tree, OutOfRangePanics)
{
    BinaryTree t(3, 3);
    EXPECT_THROW(t.nodeOnPath(8_leaf, 0_lvl), SimPanic);
    EXPECT_THROW(t.nodeOnPath(0_leaf, 4_lvl), SimPanic);
}

TEST(Tree, CountRealBlocks)
{
    BinaryTree t(2, 2);
    EXPECT_EQ(t.countRealBlocks(), 0u);
    t.tryPlace(0_node, 1_id, 0);
    t.tryPlace(4_node, 2_id, 0);
    EXPECT_EQ(t.countRealBlocks(), 2u);
}

constexpr BinaryTree::Storage kEager = BinaryTree::Storage::Eager;
constexpr BinaryTree::Storage kOnDemand = BinaryTree::Storage::OnDemand;

TEST(Arena, GeometryRoundsUpToWholeChunks)
{
    // 9 levels = 1023 buckets over 256-bucket chunks = 4 chunks.
    BinaryTree t(9, 3, kOnDemand);
    EXPECT_EQ(t.numChunks(), 4u);
    // Record bytes per chunk: 256 buckets of 3 ids + 3 payloads.
    EXPECT_EQ(t.chunkBytes(), 256u * 2 * 3 * 8);
    EXPECT_EQ(t.bytesTotal(), 4 * t.chunkBytes());
    EXPECT_EQ(t.bytesResident(), 0u);
    // A 3-bucket tree still takes one whole chunk.
    EXPECT_EQ(BinaryTree(1, 3).numChunks(), 1u);
}

TEST(Arena, DenseIsFullyResidentUpFront)
{
    BinaryTree t(9, 3, kEager);
    EXPECT_EQ(t.chunksMaterialized(), t.numChunks());
    EXPECT_EQ(t.bytesResident(), t.bytesTotal());
    // Every chunk is allocated and every bucket starts empty.
    for (std::uint64_t c = 0; c < t.numChunks(); ++c)
        EXPECT_TRUE(t.materialized(c));
    for (TreeIdx n{0}; n.value() < t.numBuckets(); ++n)
        EXPECT_EQ(t.occupancy(n), 0u);
    EXPECT_EQ(t.countRealBlocks(), 0u);
}

TEST(Arena, MaterializeIsIdempotentAndAllDummy)
{
    BinaryTree t(10, 2, kOnDemand);
    const TreeIdx node{3 * 256 + 5}; // chunk 3
    const std::uint64_t *shared = t.record(node);
    EXPECT_TRUE(t.tryPlace(node, 9_id, 90));
    EXPECT_EQ(t.chunksMaterialized(), 1u);
    EXPECT_TRUE(t.materialized(3));
    EXPECT_FALSE(t.materialized(2));
    EXPECT_NE(t.record(node), shared);
    // The fresh chunk is zeroed: every other slot of it is dummy.
    for (std::uint64_t b = 3 * 256; b < 4 * 256; ++b) {
        for (std::uint32_t i = 0; i < t.z(); ++i) {
            if (b != node.value() || i != 0) {
                EXPECT_EQ(t.slotId(TreeIdx{b}, i), kInvalidBlock);
            }
        }
    }
    // A second write into the same chunk allocates nothing.
    const std::uint64_t *rec = t.record(node);
    EXPECT_TRUE(t.tryPlace(TreeIdx{3 * 256}, 10_id, 100));
    EXPECT_EQ(t.record(node), rec);
    EXPECT_EQ(t.chunksMaterialized(), 1u);
}

TEST(SparseTree, ImplicitChunksReadAllDummyWithoutMaterializing)
{
    // 10 levels = 2047 buckets = 8 chunks.
    BinaryTree t(10, 3, kOnDemand);
    EXPECT_EQ(t.chunksMaterialized(), 0u);
    EXPECT_EQ(t.bytesResident(), 0u);
    for (TreeIdx n{0}; n.value() < t.numBuckets(); ++n) {
        EXPECT_EQ(t.occupancy(n), 0u);
        EXPECT_EQ(t.freeSlots(n), 3u);
        for (std::uint32_t i = 0; i < t.z(); ++i) {
            EXPECT_EQ(t.slotId(n, i), kInvalidBlock);
            EXPECT_EQ(t.slotData(n, i), 0u);
        }
    }
    // Reads, prefetches, drains and clears of empty slots never
    // allocate.
    t.clearSlot(900_node, 1);
    t.prefetchBucket(1500_node);
    std::vector<BlockId> ids(t.z());
    std::vector<std::uint64_t> payloads(t.z());
    std::uint32_t seen = 0;
    EXPECT_EQ(t.emptyBucketInto(1600_node, ids.data(), payloads.data(), 0,
                                [&](BlockId id) {
                                    EXPECT_EQ(id, kInvalidBlock);
                                    ++seen;
                                }),
              0u)
        << "an empty bucket drained a block";
    EXPECT_EQ(seen, t.z());
    EXPECT_EQ(t.countRealBlocks(), 0u);
    EXPECT_EQ(t.chunksMaterialized(), 0u);
    for (std::uint64_t c = 0; c < t.numChunks(); ++c)
        EXPECT_FALSE(t.materialized(c));
}

TEST(SparseTree, WritesMaterializeOnlyTouchedChunks)
{
    BinaryTree t(10, 3, kOnDemand);
    EXPECT_TRUE(t.tryPlace(0_node, 1_id, 11));    // chunk 0
    EXPECT_TRUE(t.tryPlace(1000_node, 2_id, 22)); // chunk 3
    EXPECT_EQ(t.chunksMaterialized(), 2u);
    EXPECT_EQ(t.bytesResident(), 2 * t.chunkBytes());
    EXPECT_EQ(t.slotId(0_node, 0), 1_id);
    EXPECT_EQ(t.slotData(1000_node, 0), 22u);
    EXPECT_EQ(t.occupancy(1000_node), 1u);
    EXPECT_EQ(t.countRealBlocks(), 2u);
    // Untouched chunks stay unallocated.
    EXPECT_FALSE(t.materialized(1));
    // Clearing the only real block keeps the chunk allocated but
    // returns its bucket to empty.
    t.clearSlot(1000_node, 0);
    EXPECT_EQ(t.occupancy(1000_node), 0u);
    EXPECT_EQ(t.countRealBlocks(), 1u);
    EXPECT_EQ(t.chunksMaterialized(), 2u);
}

TEST(SparseTree, FillEmptyBucketTakesKBlocksAndAllocatesItsChunk)
{
    BinaryTree t(10, 3, kOnDemand);
    std::uint32_t calls = 0;
    const auto take = [&](std::uint32_t i) {
        EXPECT_EQ(i, calls++);
        return std::pair{BlockId{40 + i}, std::uint64_t{400 + i}};
    };
    // Slots 0 and 1 take blocks; slot 2's pair is read and masked off.
    EXPECT_FALSE(t.fillEmptyBucket(1000_node, 2, take)); // chunk 3
    EXPECT_EQ(calls, 3u);
    EXPECT_EQ(t.chunksMaterialized(), 1u);
    EXPECT_TRUE(t.materialized(3));
    EXPECT_EQ(t.slotId(1000_node, 0), BlockId{40});
    EXPECT_EQ(t.slotData(1000_node, 0), 400u);
    EXPECT_EQ(t.slotId(1000_node, 1), BlockId{41});
    EXPECT_EQ(t.slotData(1000_node, 1), 401u);
    EXPECT_EQ(t.slotId(1000_node, 2), kInvalidBlock);
    EXPECT_EQ(t.slotData(1000_node, 2), 0u);
    EXPECT_EQ(t.countRealBlocks(), 2u);
    // A fill over a bucket that still holds a block says so.
    calls = 0;
    EXPECT_TRUE(t.fillEmptyBucket(1000_node, 1, take));
    EXPECT_EQ(t.occupancy(1000_node), 1u);
}

TEST(SparseTree, OccupancyScanAfterRawCorruptionInFreshChunk)
{
    BinaryTree t(10, 4, kOnDemand);
    // A raw write into an unwritten chunk allocates it as all-dummy
    // first, then lands.
    BucketRef b = t.bucket(777_node);
    b.setRawId(2, 9_id);
    EXPECT_EQ(t.chunksMaterialized(), 1u);
    // Occupancy is a scan of the record's ids, so it sees the planted
    // block at once - in a fresh chunk whose other slots all read as
    // dummies.
    EXPECT_EQ(b.occupancy(), 1u);
    for (std::uint32_t i = 0; i < t.z(); ++i) {
        if (i != 2) {
            EXPECT_TRUE(b.isDummy(i));
        }
    }
    // A neighbouring bucket of the same fresh chunk is untouched.
    EXPECT_EQ(t.bucket(778_node).occupancy(), 0u);
    b.setRawId(2, kInvalidBlock);
    EXPECT_EQ(b.occupancy(), 0u);
}

TEST(SparseTree, BackendsAreFunctionallyIdentical)
{
    // The same operation sequence must leave eager and on-demand
    // storage with the same records, word for word.
    std::vector<BinaryTree> trees;
    trees.emplace_back(10, 3, kEager);
    trees.emplace_back(10, 3, kOnDemand);
    for (BinaryTree &t : trees) {
        for (std::uint64_t n = 0; n < 4 * 256; n += 37)
            t.tryPlace(TreeIdx{n}, BlockId{n}, n * 3);
        t.tryPlace(TreeIdx{37}, 5_id, 50);
        t.clearSlot(TreeIdx{37}, 0);
        // Appended after one earlier block, at place 1.
        BlockId ids[4];
        std::uint64_t payloads[4];
        EXPECT_EQ(t.emptyBucketInto(TreeIdx{74}, ids, payloads, 1,
                                    [](BlockId) {}),
                  2u);
        EXPECT_EQ(ids[1], BlockId{74});
        EXPECT_EQ(payloads[1], 74u * 3);
    }
    const BinaryTree &eager = trees[0];
    const BinaryTree &lazy = trees[1];
    EXPECT_EQ(lazy.countRealBlocks(), eager.countRealBlocks());
    // Buckets of the untouched upper chunks read through the shared
    // zero chunk on one side and the eager block on the other.
    EXPECT_EQ(lazy.chunksMaterialized(), 4u);
    EXPECT_EQ(eager.chunksMaterialized(), 8u);
    for (TreeIdx n{0}; n.value() < eager.numBuckets(); ++n) {
        for (std::uint32_t w = 0; w < 2 * eager.z(); ++w)
            EXPECT_EQ(lazy.record(n)[w], eager.record(n)[w])
                << "bucket " << n << " word " << w;
    }
}

} // namespace
} // namespace proram
