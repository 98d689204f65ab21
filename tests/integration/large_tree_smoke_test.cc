/**
 * @file
 * Large-tree smoke: lazy initialization, with the on-demand tree
 * storage it selects, must carry trees far beyond what an eager tree
 * can hold. The always-run case exercises the full lazy drive at 2^20
 * data blocks; the 2^24 case runs where PRORAM_LARGE_SMOKE is set
 * (CI runs it under a ulimit an eager tree cannot satisfy) and the
 * paper-scale 2^26 case where PRORAM_LARGE_SMOKE=26.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <unordered_map>

#include "core/oram_controller.hh"
#include "mem/cache_hierarchy.hh"
#include "obs/metrics.hh"
#include "oram/integrity.hh"
#include "sim/system_config.hh"

namespace proram
{
namespace
{

bool
largeSmokeEnabled()
{
    const char *e = std::getenv("PRORAM_LARGE_SMOKE");
    return e != nullptr && *e != '\0' && std::string(e) != "0";
}

bool
paperScaleEnabled()
{
    const char *e = std::getenv("PRORAM_LARGE_SMOKE");
    return e != nullptr && std::string(e) == "26";
}

OramConfig
largeCfg(std::uint64_t data_blocks)
{
    OramConfig c;
    c.numDataBlocks = data_blocks;
    c.stashCapacity = 400;
    c.seed = 7;
    c.lazyInit = true;
    return c;
}

HierarchyConfig
tinyHier()
{
    HierarchyConfig h;
    h.l1 = CacheConfig{4 * 128, 2, 128};
    h.l2 = CacheConfig{64 * 128, 4, 128};
    return h;
}

/**
 * Drive @p accesses mixed reads/writes over a lazily initialized
 * on-demand tree of @p data_blocks and check payload round-trips, the
 * virtual-residency read-as-zero contract, the tree's residency
 * accounting and (when asked) full structural integrity.
 */
void
driveSparseLazy(std::uint64_t data_blocks, std::uint64_t accesses,
                bool check_integrity)
{
    CacheHierarchy hier(tinyHier());
    OramController ctl(largeCfg(data_blocks), ControllerConfig{}, hier);
    ctl.configureBaseline();

    const BinaryTree &tree = ctl.oram().engine().tree();
    ASSERT_EQ(tree.chunksMaterialized(), 0u); // on-demand storage

    // A block never touched is virtually resident with payload 0.
    std::uint64_t got = ~0ULL;
    ctl.dataAccess(Cycles{0}, BlockId{data_blocks / 2}, OpType::Read,
                   0, &got);
    EXPECT_EQ(got, 0u);

    // Deterministic scattered write/read mix (LCG, fixed seed).
    std::unordered_map<std::uint64_t, std::uint64_t> shadow;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t i = 0; i < accesses; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const BlockId block{(x >> 11) % data_blocks};
        if ((x & 3) != 0) {
            ctl.dataAccess(ctl.busyUntil(), block, OpType::Write,
                           i + 1, nullptr);
            shadow[block.value()] = i + 1;
        } else {
            std::uint64_t v = ~0ULL;
            ctl.dataAccess(ctl.busyUntil(), block, OpType::Read, 0,
                           &v);
            const auto it = shadow.find(block.value());
            EXPECT_EQ(v, it == shadow.end() ? 0 : it->second);
        }
    }
    for (const auto &[id, val] : shadow) {
        std::uint64_t v = ~0ULL;
        ctl.dataAccess(ctl.busyUntil(), BlockId{id}, OpType::Read, 0,
                       &v);
        EXPECT_EQ(v, val);
    }

    // On-demand residency: something was allocated, the byte
    // accounting is chunk-granular, and most chunks are still the
    // shared zero chunk.
    EXPECT_GT(tree.chunksMaterialized(), 0u);
    EXPECT_EQ(tree.bytesResident(),
              tree.chunksMaterialized() * tree.chunkBytes());
    EXPECT_LT(tree.bytesResident(), tree.bytesTotal() / 4);

    // The telemetry reaches the controller's stat group (and from
    // there the proram-metrics-v1 document).
    const stats::StatGroup g = ctl.buildStatGroup();
    EXPECT_EQ(g.get("arenaChunksMaterialized"),
              static_cast<double>(tree.chunksMaterialized()));
    EXPECT_EQ(g.get("arenaBytesResident"),
              static_cast<double>(tree.bytesResident()));
    EXPECT_GT(obs::peakRssBytes(), 0u);

    if (check_integrity) {
        EXPECT_TRUE(checkIntegrity(ctl.oram()).ok);
    }
}

TEST(LargeTreeSmoke, SparseLazyDriveMillionBlocks)
{
    driveSparseLazy(1ULL << 20, 600, /*check_integrity=*/true);
}

TEST(LargeTreeSmoke, SixteenMillionBlocksUnderMemoryCap)
{
    if (!largeSmokeEnabled())
        GTEST_SKIP() << "set PRORAM_LARGE_SMOKE=1 to run";
    // CI runs this under `ulimit -v` tight enough that an eager tree
    // (~805 MB of bucket records at 2^24 blocks) cannot even
    // construct; integrity is skipped (the full-tree scan is what
    // on-demand storage lets us avoid paying).
    driveSparseLazy(1ULL << 24, 400, /*check_integrity=*/false);
}

TEST(LargeTreeSmoke, PaperScaleSixtyFourMillionBlocks)
{
    if (!paperScaleEnabled())
        GTEST_SKIP() << "set PRORAM_LARGE_SMOKE=26 to run";
    driveSparseLazy(1ULL << 26, 400, /*check_integrity=*/false);
}

} // namespace
} // namespace proram
