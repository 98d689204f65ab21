/** @file Unit + property tests for the Ring ORAM engine. */

#include "oram/ring_oram.hh"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "oram/path_oram.hh"
#include "util/bits.hh"
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
    c.scheme = SchemeKind::Ring;
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
    RingOram oram;
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

TEST(RingOram, ScheduledEvictionDrainsRootToLeafInSlotOrder)
{
    // PathOram.ReadPathStashesRootToLeafInSlotOrder for the read half
    // of Ring's scheduled eviction. The planted blocks map to a leaf
    // that shares only the root with the eviction path, so the greedy
    // write-back pools all six at level 0 in drain order and fills
    // the root from the top of the pool: the root ends up holding the
    // last three drained (last first) and the first three stay in the
    // stash in drain order.
    Fixture f;
    BinaryTree &t = f.oram.tree();
    const Leaf ev = f.oram.evictionLeafAt(0); // the first scheduled pass
    const Leaf away{
        static_cast<std::uint32_t>(ev.value() ^ (t.numLeaves() / 2))};
    const auto plant = [&](std::uint32_t level, std::uint32_t slot,
                           BlockId id) {
        f.posMap.setLeaf(id, away);
        t.bucket(t.nodeOnPath(ev, Level{level})).setRawId(slot, id);
    };
    plant(t.levels(), 1, 250_id);
    plant(2, 2, 99_id);
    plant(t.levels() - 2, 1, 12_id);
    plant(0, 2, 40_id);
    plant(t.levels(), 0, 3_id);
    plant(2, 0, 7_id);
    // Drain order: 40, 7, 99, 12, 3, 250.
    EXPECT_EQ(f.oram.dummyAccess(), ev);
    const BlockId stashed[] = {40_id, 7_id, 99_id};
    const Stash &s = f.oram.stash();
    ASSERT_EQ(s.slotCount(), 3u);
    for (std::uint32_t k = 0; k < 3; ++k)
        EXPECT_EQ(s.idLane()[k], stashed[k]) << "stash slot " << k;
    const BucketRef root = t.bucket(0_node);
    EXPECT_EQ(root.id(0), 250_id);
    EXPECT_EQ(root.id(1), 3_id);
    EXPECT_EQ(root.id(2), 12_id);
    EXPECT_EQ(t.countRealBlocks(), 3u);
}

TEST(RingOram, ReverseLexSchedulePermutesTheLeaves)
{
    Fixture f;
    const std::uint64_t leaves = f.oram.tree().numLeaves();
    const std::uint32_t levels = f.oram.tree().levels();
    std::set<std::uint32_t> seen;
    for (std::uint64_t g = 0; g < leaves; ++g) {
        const Leaf l = f.oram.evictionLeafAt(g);
        EXPECT_EQ(l.value(), reverseBits(g, levels)) << "g=" << g;
        seen.insert(l.value());
    }
    // One full period touches every leaf exactly once, then wraps.
    EXPECT_EQ(seen.size(), leaves);
    EXPECT_EQ(f.oram.evictionLeafAt(leaves), f.oram.evictionLeafAt(0));
    // Consecutive evictions alternate tree halves (the max-distance
    // property that keeps upper buckets drained).
    EXPECT_EQ(f.oram.evictionLeafAt(0), 0_leaf);
    EXPECT_EQ(f.oram.evictionLeafAt(1).value(), leaves / 2);
}

TEST(RingOram, InitialPlacementStoresEveryBlockOnce)
{
    Fixture f;
    f.init();
    EXPECT_EQ(f.oram.tree().countRealBlocks() + f.oram.stash().size(),
              f.config.numDataBlocks);
    EXPECT_EQ(f.copies(0_id), 1);
    EXPECT_EQ(f.copies(255_id), 1);
}

TEST(RingOram, ReadPathPullsInterestSetIntoStash)
{
    Fixture f;
    f.init();
    const BlockId b{42};
    const Leaf leaf = f.posMap.leafOf(b);
    f.oram.readPath(leaf);
    EXPECT_TRUE(f.oram.stash().contains(b));
    // The interest set is exactly the blocks mapped to the accessed
    // leaf: everything now in the stash must be mapped there.
    const BinaryTree &t = f.oram.tree();
    for (std::uint64_t blk = 0; blk < f.config.numDataBlocks; ++blk) {
        if (f.oram.stash().contains(BlockId{blk})) {
            EXPECT_EQ(f.posMap.leafOf(BlockId{blk}), leaf)
                << "block " << blk << " not of interest";
        }
    }
    (void)t;
}

TEST(RingOram, ReadPathLeavesOtherBlocksInPlace)
{
    // Unlike Path ORAM, a Ring read must NOT move blocks mapped to
    // other leaves off the accessed path - it reads one (modeled)
    // block per bucket and leaves the rest.
    Fixture f;
    f.init();
    const BlockId b{42};
    const Leaf leaf = f.posMap.leafOf(b);
    const std::uint64_t resident_before = f.oram.tree().countRealBlocks();
    const std::size_t stash_before = f.oram.stash().size();
    f.oram.readPath(leaf);
    const std::uint64_t moved =
        resident_before - f.oram.tree().countRealBlocks();
    EXPECT_EQ(moved, f.oram.stash().size() - stash_before);
    EXPECT_LT(moved, f.oram.tree().levels() + 1ull); // not a full path
}

TEST(RingOram, ReadPathPreservesPayload)
{
    Fixture f;
    f.init();
    const BlockId b{17};
    f.oram.readPath(f.posMap.leafOf(b));
    ASSERT_TRUE(f.oram.stash().contains(b));
    ASSERT_NE(f.oram.stash().findData(b), nullptr);
    EXPECT_EQ(*f.oram.stash().findData(b), b.value() * 3);
}

TEST(RingOram, BucketReadBudgetTriggersEarlyReshuffle)
{
    OramConfig cfg = tinyCfg();
    cfg.ringS = 2;    // reshuffle after two reads
    cfg.ringA = 1024; // keep scheduled evictions out of the way
    Fixture f(cfg);
    f.init();
    EXPECT_EQ(f.oram.ringS(), 2u);

    const Leaf leaf{0};
    const std::uint64_t before = f.oram.schemeCounters().earlyReshuffles;
    for (int i = 0; i < 8; ++i) {
        f.oram.readPath(leaf);
        // The counter resets the moment it hits S: it never rests at
        // or above the budget.
        EXPECT_LT(f.oram.bucketReadCount(TreeIdx{0}), 2u) << "read " << i;
    }
    const std::uint64_t after = f.oram.schemeCounters().earlyReshuffles;
    // 8 reads x (levels+1) buckets at S=2: every bucket reshuffled
    // four times.
    EXPECT_EQ(after - before, 4ull * (f.oram.tree().levels() + 1));
}

TEST(RingOram, ScheduledEvictionEveryAAccesses)
{
    OramConfig cfg = tinyCfg();
    cfg.ringA = 4;
    Fixture f(cfg);
    f.init();
    EXPECT_EQ(f.oram.ringA(), 4u);
    EXPECT_EQ(f.oram.evictionsRun(), 0u);
    for (int i = 0; i < 40; ++i) {
        const BlockId b{static_cast<std::uint64_t>(i) %
                        cfg.numDataBlocks};
        const Leaf leaf = f.posMap.leafOf(b);
        f.oram.readPath(leaf);
        f.posMap.setLeaf(b, f.oram.randomLeaf());
        f.oram.writePath(leaf);
    }
    EXPECT_EQ(f.oram.evictionsRun(), 10u);
}

TEST(RingOram, ScheduledEvictionResetsPathReadCounters)
{
    OramConfig cfg = tinyCfg();
    cfg.ringS = 200; // no early reshuffles; only evictions reset
    cfg.ringA = 1024;
    Fixture f(cfg);
    f.init();
    const Leaf target = f.oram.evictionLeafAt(0);
    for (int i = 0; i < 5; ++i)
        f.oram.readPath(target);
    const BinaryTree &t = f.oram.tree();
    EXPECT_GE(f.oram.bucketReadCount(t.nodeOnPath(target, Level{0})), 5u);
    f.oram.dummyAccess(); // forces eviction g=0 onto `target`
    for (std::uint32_t lvl = 0; lvl <= t.levels(); ++lvl)
        EXPECT_EQ(f.oram.bucketReadCount(t.nodeOnPath(target, Level{lvl})),
                  0u)
            << "level " << lvl;
}

TEST(RingOram, DummyAccessAdvancesScheduleAndNeverGrowsStash)
{
    Fixture f;
    f.init();
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
        const std::uint64_t g = f.oram.evictionsRun();
        const Leaf written = f.oram.dummyAccess();
        EXPECT_EQ(written, f.oram.evictionLeafAt(g));
        EXPECT_EQ(f.oram.evictionsRun(), g + 1);
        EXPECT_LE(f.oram.stash().size(), before);
    }
}

TEST(RingOram, ScheduledEvictionPanicsOnSecondCopyOnThePath)
{
    Fixture f;
    f.init();
    const Leaf ev = f.oram.evictionLeafAt(f.oram.evictionsRun());
    const auto real = realSlotsOnPath(f.oram.tree(), ev);
    ASSERT_GE(real.size(), 2u);
    const BlockId first =
        f.oram.tree().slotId(real.front().first, real.front().second);
    plantCopy(f.oram.tree(), real.back(), first);
    EXPECT_THROW(f.oram.dummyAccess(), SimPanic);
}

TEST(RingOram, ScheduledEvictionPanicsOnTreeCopyOfStashBlock)
{
    Fixture f;
    f.init();
    const BlockId b{5};
    f.oram.readPath(f.posMap.leafOf(b));
    ASSERT_TRUE(f.oram.stash().contains(b));
    const Leaf ev = f.oram.evictionLeafAt(f.oram.evictionsRun());
    const auto real = realSlotsOnPath(f.oram.tree(), ev);
    ASSERT_FALSE(real.empty());
    plantCopy(f.oram.tree(), real.front(), b);
    EXPECT_THROW(f.oram.dummyAccess(), SimPanic);
}

TEST(RingOram, AccessWithRemapKeepsSingleCopy)
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
        while (f.oram.stash().overCapacity())
            f.oram.dummyAccess();
    }
    for (BlockId b : {0_id, 77_id, 128_id, 255_id})
        EXPECT_EQ(f.copies(b), 1) << "block " << b;
    EXPECT_EQ(f.oram.tree().countRealBlocks() + f.oram.stash().size(),
              f.config.numDataBlocks);
}

TEST(RingOram, BlocksLandOnlyOnTheirMappedPath)
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

TEST(RingOram, SchemeCountersTallyBucketTraffic)
{
    Fixture f;
    f.init();
    Rng rng(4);
    for (int i = 0; i < 100; ++i) {
        const BlockId b{rng.below(f.config.numDataBlocks)};
        const Leaf leaf = f.posMap.leafOf(b);
        f.oram.readPath(leaf);
        f.posMap.setLeaf(b, f.oram.randomLeaf());
        f.oram.writePath(leaf);
    }
    const SchemeCounters c = f.oram.schemeCounters();
    // Every readPath bills at least one modeled read per path bucket.
    EXPECT_GE(c.bucketReads, 100ull * (f.oram.tree().levels() + 1));
    // Most buckets hold nothing of interest: dummy reads dominate.
    EXPECT_GT(c.dummyReads, 0u);
    EXPECT_LT(c.dummyReads, c.bucketReads);
    EXPECT_EQ(c.scheduledEvictions, f.oram.evictionsRun());
}

TEST(RingOram, PathReadsCounted)
{
    Fixture f;
    f.init();
    const auto before = f.oram.pathReads();
    f.oram.readPath(0_leaf);
    // writePath only schedules; dummyAccess runs a real path rewrite.
    f.oram.dummyAccess();
    EXPECT_EQ(f.oram.pathReads(), before + 2);
}

TEST(RingOram, FactorySelectsSchemeFromConfig)
{
    OramConfig cfg = tinyCfg();
    PositionMap pm(cfg.numDataBlocks,
                   Leaf{static_cast<std::uint32_t>(1ULL << cfg.levels())});
    cfg.scheme = SchemeKind::Ring;
    EXPECT_STREQ(makeOramScheme(cfg, pm)->name(), "ring");
    cfg.scheme = SchemeKind::Path;
    EXPECT_STREQ(makeOramScheme(cfg, pm)->name(), "path");
}

TEST(RingOram, EnvKnobsResolveSchemeAndParameters)
{
    const auto withEnv = [](const char *name, const char *value,
                            auto &&fn) {
        const char *prev = std::getenv(name);
        const std::string saved = prev ? prev : "";
        ::setenv(name, value, 1);
        fn();
        if (prev != nullptr)
            ::setenv(name, saved.c_str(), 1);
        else
            ::unsetenv(name);
    };

    OramConfig cfg = tinyCfg();
    cfg.scheme = SchemeKind::Default;
    withEnv("PRORAM_SCHEME", "ring", [&] {
        EXPECT_EQ(cfg.resolvedScheme(), SchemeKind::Ring);
    });
    withEnv("PRORAM_SCHEME", "path", [&] {
        EXPECT_EQ(cfg.resolvedScheme(), SchemeKind::Path);
    });
    // An explicit config choice beats the environment.
    cfg.scheme = SchemeKind::Path;
    withEnv("PRORAM_SCHEME", "ring", [&] {
        EXPECT_EQ(cfg.resolvedScheme(), SchemeKind::Path);
    });

    // An explicit ring parameter beats the 2Z default.
    cfg = tinyCfg();
    cfg.ringS = 9;
    EXPECT_EQ(cfg.resolvedRingS(), 9u);
}

TEST(RingOram, DefaultRingParametersDeriveFromZ)
{
    OramConfig cfg = tinyCfg(4);
    EXPECT_EQ(cfg.resolvedRingS(), 8u); // 2 * Z
    EXPECT_EQ(cfg.resolvedRingA(), 2u);
    EXPECT_STREQ(schemeKindName(SchemeKind::Ring), "ring");
    EXPECT_STREQ(schemeKindName(SchemeKind::Path), "path");
    EXPECT_EQ(parseSchemeKind("ring"), SchemeKind::Ring);
    EXPECT_EQ(parseSchemeKind("path"), SchemeKind::Path);
    EXPECT_THROW(parseSchemeKind("square"), SimFatal);
}

class RingOramZParam : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(RingOramZParam, InvariantHoldsAcrossZ)
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

INSTANTIATE_TEST_SUITE_P(Z, RingOramZParam,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u));

} // namespace
} // namespace proram
