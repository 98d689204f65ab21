/** @file Unit + property tests for the Path ORAM engine. */

#include "oram/path_oram.hh"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "util/logging.hh"
#include "util/random.hh"

namespace proram
{
namespace
{

using namespace proram::literals;

OramConfig
tinyCfg(std::uint32_t z = 3)
{
    OramConfig c;
    c.numDataBlocks = 256;
    c.z = z;
    c.stashCapacity = 50;
    c.seed = 99;
    return c;
}

struct Fixture
{
    explicit Fixture(const OramConfig &cfg = tinyCfg())
        : config(cfg), posMap(cfg.numDataBlocks,
                              Leaf{static_cast<std::uint32_t>(1ULL << cfg.levels())}),
          oram(cfg, posMap)
    {
    }

    /** Assign random leaves and place all blocks. */
    void init()
    {
        std::vector<std::uint64_t> payloads(config.numDataBlocks);
        for (std::uint64_t b = 0; b < config.numDataBlocks; ++b) {
            posMap.setLeaf(BlockId{b}, oram.randomLeaf());
            payloads[b] = b * 3;
        }
        oram.placeInitial(config.numDataBlocks, payloads);
    }

    /** Count copies of a block across stash + tree. */
    int copies(BlockId id)
    {
        int n = oram.stash().contains(id) ? 1 : 0;
        const BinaryTree &t = oram.tree();
        for (std::uint64_t node = 0; node < t.numBuckets(); ++node) {
            for (std::uint32_t i = 0; i < t.z(); ++i) {
                if (t.slotId(TreeIdx{node}, i) == id)
                    ++n;
            }
        }
        return n;
    }

    OramConfig config;
    PositionMap posMap;
    PathOram oram;
};

/** Tree positions (node, slot) holding a real block on path @p leaf,
 *  root first. */
std::vector<std::pair<TreeIdx, std::uint32_t>>
realSlotsOnPath(const BinaryTree &t, Leaf leaf)
{
    std::vector<std::pair<TreeIdx, std::uint32_t>> out;
    for (Level l{0}; l <= t.leafLevel(); ++l) {
        const TreeIdx node = t.nodeOnPath(leaf, l);
        for (std::uint32_t i = 0; i < t.z(); ++i) {
            if (t.slotId(node, i) != kInvalidBlock)
                out.emplace_back(node, i);
        }
    }
    return out;
}

/** Overwrite the real block at @p at with @p id. */
void
plantCopy(BinaryTree &t, std::pair<TreeIdx, std::uint32_t> at, BlockId id)
{
    t.bucket(at.first).setRawId(at.second, id);
}

/** A leaf whose path still holds a real block. */
Leaf
leafWithRealBlock(const BinaryTree &t)
{
    for (std::uint64_t l = 0; l < t.numLeaves(); ++l) {
        const Leaf leaf{static_cast<std::uint32_t>(l)};
        if (!realSlotsOnPath(t, leaf).empty())
            return leaf;
    }
    return kInvalidLeaf;
}

TEST(PathOram, InitialPlacementStoresEveryBlockOnce)
{
    Fixture f;
    f.init();
    EXPECT_EQ(f.oram.tree().countRealBlocks() + f.oram.stash().size(),
              f.config.numDataBlocks);
    EXPECT_EQ(f.copies(0_id), 1);
    EXPECT_EQ(f.copies(255_id), 1);
}

TEST(PathOram, ReadPathPullsMappedBlockIntoStash)
{
    Fixture f;
    f.init();
    const BlockId b{42};
    const Leaf leaf = f.posMap.leafOf(b);
    f.oram.readPath(leaf);
    EXPECT_TRUE(f.oram.stash().contains(b));
}

TEST(PathOram, ReadPathPreservesPayload)
{
    Fixture f;
    f.init();
    const BlockId b{17};
    f.oram.readPath(f.posMap.leafOf(b));
    ASSERT_TRUE(f.oram.stash().contains(b));
    ASSERT_NE(f.oram.stash().findData(b), nullptr);
    EXPECT_EQ(*f.oram.stash().findData(b), b.value() * 3);
}

TEST(PathOram, ReadPathCachesCurrentLeafInStashEntry)
{
    Fixture f;
    f.init();
    const BlockId b{23};
    const Leaf leaf = f.posMap.leafOf(b);
    f.oram.readPath(leaf);
    ASSERT_TRUE(f.oram.stash().contains(b));
    EXPECT_EQ(f.oram.stash().leafOf(b), leaf);
}

TEST(PathOram, RemapWhileResidentRefreshesCachedLeaf)
{
    // The leaf-cache coherence invariant: a remap made through the
    // position map between readPath and writePath must be visible in
    // the stash entry the eviction scan reads.
    Fixture f;
    f.init();
    const BlockId b{42};
    const Leaf leaf = f.posMap.leafOf(b);
    f.oram.readPath(leaf);
    const Leaf remapped{static_cast<std::uint32_t>(
        (leaf.value() + f.oram.tree().numLeaves() / 2) %
        f.oram.tree().numLeaves())};
    f.posMap.setLeaf(b, remapped);
    ASSERT_TRUE(f.oram.stash().contains(b));
    EXPECT_EQ(f.oram.stash().leafOf(b), remapped);
}

TEST(PathOram, RemapMidAccessStopsEvictionBelowDivergence)
{
    // Remap a resident block to the opposite half of the tree (paths
    // share only the root) and write the old path back: a stale
    // cached leaf would bury the block deep on the OLD path; with
    // coherence it may land in the root bucket at most.
    Fixture f;
    f.init();
    const BlockId b{7};
    const Leaf leaf = f.posMap.leafOf(b);
    f.oram.readPath(leaf);
    ASSERT_TRUE(f.oram.stash().contains(b));
    const Leaf opposite{static_cast<std::uint32_t>(
        leaf.value() ^ (f.oram.tree().numLeaves() / 2))}; // flip top bit
    f.posMap.setLeaf(b, opposite);
    f.oram.writePath(leaf);
    const BinaryTree &t = f.oram.tree();
    if (!f.oram.stash().contains(b)) {
        bool in_root = false;
        for (std::uint32_t i = 0; i < t.z(); ++i)
            in_root = in_root || t.slotId(TreeIdx{0}, i) == b;
        EXPECT_TRUE(in_root) << "remapped block evicted below the root";
    }
    EXPECT_EQ(f.copies(b), 1);
}

TEST(PathOram, WritePathEvictsBlocksBackToTree)
{
    Fixture f;
    f.init();
    const Leaf leaf{static_cast<std::uint32_t>(
        5 % f.oram.tree().numLeaves())};
    f.oram.readPath(leaf);
    const auto stash_after_read = f.oram.stash().size();
    f.oram.writePath(leaf);
    // Everything read from the path goes back (no remaps happened).
    EXPECT_LE(f.oram.stash().size(), stash_after_read);
}

TEST(PathOram, AccessWithRemapKeepsSingleCopy)
{
    Fixture f;
    f.init();
    Rng rng(1);
    for (int i = 0; i < 200; ++i) {
        const BlockId b{rng.below(f.config.numDataBlocks)};
        const Leaf leaf = f.posMap.leafOf(b);
        f.oram.readPath(leaf);
        ASSERT_TRUE(f.oram.stash().contains(b));
        f.posMap.setLeaf(b, f.oram.randomLeaf());
        f.oram.writePath(leaf);
    }
    for (BlockId b : {0_id, 77_id, 128_id, 255_id})
        EXPECT_EQ(f.copies(b), 1) << "block " << b;
}

TEST(PathOram, BlocksLandOnlyOnTheirMappedPath)
{
    Fixture f;
    f.init();
    Rng rng(2);
    for (int i = 0; i < 300; ++i) {
        const BlockId b{rng.below(f.config.numDataBlocks)};
        const Leaf leaf = f.posMap.leafOf(b);
        f.oram.readPath(leaf);
        f.posMap.setLeaf(b, f.oram.randomLeaf());
        f.oram.writePath(leaf);
    }
    // Exhaustive invariant sweep.
    const BinaryTree &t = f.oram.tree();
    for (std::uint64_t node = 0; node < t.numBuckets(); ++node) {
        std::uint32_t level = 0;
        for (std::uint64_t n = node; n > 0; n = (n - 1) / 2)
            ++level;
        for (std::uint32_t i = 0; i < t.z(); ++i) {
            const BlockId id = t.slotId(TreeIdx{node}, i);
            if (id == kInvalidBlock)
                continue;
            EXPECT_EQ(t.nodeOnPath(f.posMap.leafOf(id), Level{level}),
                      TreeIdx{node})
                << "block " << id << " off its path";
        }
    }
}

TEST(PathOram, DummyAccessNeverGrowsStash)
{
    Fixture f;
    f.init();
    // Stress the stash first with remapping accesses.
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        const BlockId b{rng.below(f.config.numDataBlocks)};
        const Leaf leaf = f.posMap.leafOf(b);
        f.oram.readPath(leaf);
        f.posMap.setLeaf(b, f.oram.randomLeaf());
        f.oram.writePath(leaf);
    }
    for (int i = 0; i < 50; ++i) {
        const auto before = f.oram.stash().size();
        f.oram.dummyAccess();
        EXPECT_LE(f.oram.stash().size(), before);
    }
}

TEST(PathOram, WritePathPlacesDeepestFirst)
{
    // A block mapped exactly to the accessed path must end up below
    // (deeper than or equal to) blocks that only share the root.
    OramConfig cfg = tinyCfg();
    cfg.numDataBlocks = 8; // tiny tree, levels derived
    Fixture f(cfg);
    const Leaf target{0};
    for (std::uint64_t b = 0; b < 8; ++b)
        f.posMap.setLeaf(BlockId{b}, target); // all on path 0
    for (std::uint64_t b = 0; b < 8; ++b)
        f.oram.stash().insert(BlockId{b}, 0);
    f.oram.writePath(target);
    // With Z=3 and a multi-level path, the leaf bucket must be full.
    const BinaryTree &t = f.oram.tree();
    EXPECT_EQ(t.bucket(t.nodeOnPath(target, t.leafLevel())).occupancy(),
              t.z());
}

TEST(PathOram, ReadPathStashesRootToLeafInSlotOrder)
{
    // Known blocks at known levels and slots of one path: two in one
    // bucket with a dummy slot between them, and empty buckets between
    // the occupied ones. readPath must stash them root to leaf, in slot
    // order within a bucket - the order the goldens pin.
    Fixture f;
    BinaryTree &t = f.oram.tree();
    const Leaf leaf{5};
    const auto plant = [&](std::uint32_t level, std::uint32_t slot,
                           BlockId id) {
        f.posMap.setLeaf(id, leaf);
        BucketRef b = t.bucket(t.nodeOnPath(leaf, Level{level}));
        b.setRawId(slot, id);
        b.setRawData(slot, id.value() * 10);
    };
    plant(t.levels(), 1, 3_id);
    plant(2, 2, 99_id);
    plant(0, 2, 40_id);
    plant(2, 0, 7_id);
    f.oram.readPath(leaf);
    const BlockId order[] = {40_id, 7_id, 99_id, 3_id};
    const Stash &s = f.oram.stash();
    ASSERT_EQ(s.slotCount(), 4u);
    for (std::uint32_t k = 0; k < 4; ++k) {
        EXPECT_EQ(s.idLane()[k], order[k]) << "stash slot " << k;
        EXPECT_EQ(s.dataLane()[k], order[k].value() * 10);
        EXPECT_EQ(s.leafLane()[k], leaf);
    }
    EXPECT_EQ(t.countRealBlocks(), 0u);
}

TEST(PathOram, ReadPathPanicsOnSecondCopyOnThePath)
{
    Fixture f;
    f.init();
    const Leaf leaf{0};
    const auto real = realSlotsOnPath(f.oram.tree(), leaf);
    ASSERT_GE(real.size(), 2u);
    const BlockId first =
        f.oram.tree().slotId(real.front().first, real.front().second);
    plantCopy(f.oram.tree(), real.back(), first);
    EXPECT_THROW(f.oram.readPath(leaf), SimPanic);
}

TEST(PathOram, ReadPathPanicsOnTreeCopyOfStashBlock)
{
    Fixture f;
    f.init();
    const BlockId b{5};
    f.oram.readPath(f.posMap.leafOf(b));
    ASSERT_TRUE(f.oram.stash().contains(b));
    const Leaf other = leafWithRealBlock(f.oram.tree());
    ASSERT_NE(other, kInvalidLeaf);
    plantCopy(f.oram.tree(), realSlotsOnPath(f.oram.tree(), other)[0], b);
    EXPECT_THROW(f.oram.readPath(other), SimPanic);
}

TEST(PathOram, RandomLeafCoversRange)
{
    Fixture f;
    const std::uint64_t leaves = f.oram.tree().numLeaves();
    std::vector<bool> seen(leaves, false);
    for (int i = 0; i < 20000; ++i)
        seen[f.oram.randomLeaf().value()] = true;
    std::size_t covered = 0;
    for (bool s : seen)
        covered += s ? 1 : 0;
    EXPECT_GT(covered, static_cast<std::size_t>(leaves * 0.9));
}

TEST(PathOram, PathReadsCounted)
{
    Fixture f;
    f.init();
    const auto before = f.oram.pathReads();
    f.oram.readPath(0_leaf);
    f.oram.writePath(0_leaf);
    f.oram.dummyAccess();
    EXPECT_EQ(f.oram.pathReads(), before + 2);
}

class PathOramZParam : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(PathOramZParam, InvariantHoldsAcrossZ)
{
    OramConfig cfg = tinyCfg(GetParam());
    Fixture f(cfg);
    f.init();
    Rng rng(4);
    for (int i = 0; i < 150; ++i) {
        const BlockId b{rng.below(cfg.numDataBlocks)};
        const Leaf leaf = f.posMap.leafOf(b);
        f.oram.readPath(leaf);
        ASSERT_TRUE(f.oram.stash().contains(b));
        f.posMap.setLeaf(b, f.oram.randomLeaf());
        f.oram.writePath(leaf);
        while (f.oram.stash().overCapacity())
            f.oram.dummyAccess();
    }
    EXPECT_EQ(f.oram.tree().countRealBlocks() + f.oram.stash().size(),
              cfg.numDataBlocks);
}

INSTANTIATE_TEST_SUITE_P(Z, PathOramZParam,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u));

} // namespace
} // namespace proram
