/**
 * @file
 * OramScheme::placeInitial, the level-by-level initial placement,
 * against the per-block leaf-upward walk it replaced: both must leave
 * every bucket record and the stash identical, word for word and slot
 * for slot.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "oram/scheme.hh"
#include "util/logging.hh"

namespace proram
{
namespace
{

OramConfig
placementCfg(SchemeKind scheme, std::uint32_t z)
{
    OramConfig c;
    c.numDataBlocks = 1024;
    c.z = z;
    c.stashCapacity = 50;
    c.seed = 7;
    c.scheme = scheme;
    return c;
}

/** A scheme over its own position map, with every block's leaf
 *  assigned as UnifiedOram::initialize assigns it: the members of each
 *  aligned group of @p sb_size blocks share their base block's leaf. */
struct Placed
{
    Placed(const OramConfig &cfg, std::uint32_t sb_size)
        : posMap(cfg.numDataBlocks,
                 Leaf{static_cast<std::uint32_t>(1ULL << cfg.levels())}),
          scheme(makeOramScheme(cfg, posMap))
    {
        for (std::uint64_t b = 0; b < cfg.numDataBlocks; ++b) {
            const BlockId base{b - b % sb_size};
            posMap.setLeaf(BlockId{b}, base.value() == b
                                           ? scheme->randomLeaf()
                                           : posMap.leafOf(base));
        }
    }

    PositionMap posMap;
    std::unique_ptr<OramScheme> scheme;
};

/** The placement placeInitial replaced: walk the block's path from its
 *  leaf bucket up to the first free slot, else insert into the stash. */
void
walkPlace(OramScheme &s, BlockId id, std::uint64_t data)
{
    const Leaf leaf = s.posMap().leafOf(id);
    for (std::uint32_t l = s.levels() + 1; l-- > 0;) {
        if (s.tree().tryPlace(s.nodeOnPath(leaf, Level{l}), id, data))
            return;
    }
    s.stash().insert(id, data);
}

/** Every word of every record, then the stash lanes in slot order. */
void
expectSameState(const OramScheme &got, const OramScheme &want)
{
    const BinaryTree &tg = got.tree();
    const BinaryTree &tw = want.tree();
    ASSERT_EQ(tg.numBuckets(), tw.numBuckets());
    std::uint64_t differing = 0;
    for (std::uint64_t n = 0; n < tg.numBuckets(); ++n) {
        const std::uint64_t *rg = tg.record(TreeIdx{n});
        const std::uint64_t *rw = tw.record(TreeIdx{n});
        for (std::uint32_t w = 0; w < 2 * tg.z(); ++w) {
            if (rg[w] != rw[w] && differing++ == 0)
                ADD_FAILURE() << "bucket " << n << " word " << w << ": "
                              << rg[w] << " vs " << rw[w];
        }
    }
    EXPECT_EQ(differing, 0u) << "record words differ";

    const Stash &sg = got.stash();
    const Stash &sw = want.stash();
    ASSERT_EQ(sg.slotCount(), sw.slotCount());
    for (std::size_t s = 0; s < sg.slotCount(); ++s) {
        EXPECT_EQ(sg.idLane()[s], sw.idLane()[s]) << "stash slot " << s;
        EXPECT_EQ(sg.dataLane()[s], sw.dataLane()[s]) << "stash slot " << s;
        EXPECT_EQ(sg.leafLane()[s], sw.leafLane()[s]) << "stash slot " << s;
    }
}

TEST(InitialPlacement, LevelByLevelMatchesLeafUpwardWalk)
{
    for (const SchemeKind kind : {SchemeKind::Path, SchemeKind::Ring}) {
        for (const std::uint32_t z : {1u, 3u, 4u}) {
            for (const std::uint32_t sb : {1u, 4u, 8u}) {
                SCOPED_TRACE(testing::Message()
                             << (kind == SchemeKind::Path ? "path" : "ring")
                             << " z=" << z << " sb=" << sb);
                const OramConfig cfg = placementCfg(kind, z);
                const std::uint64_t n = cfg.numDataBlocks;
                std::vector<std::uint64_t> payloads(n);
                for (std::uint64_t b = 0; b < n; ++b)
                    payloads[b] = b * 3 + 1;

                Placed batch(cfg, sb);
                batch.scheme->placeInitial(n, payloads);
                Placed walk(cfg, sb);
                for (std::uint64_t b = 0; b < n; ++b)
                    walkPlace(*walk.scheme, BlockId{b}, payloads[b]);

                expectSameState(*batch.scheme, *walk.scheme);
                EXPECT_EQ(batch.scheme->tree().countRealBlocks() +
                              batch.scheme->stash().size(),
                          n);
                if (z == 1 && sb == 8) {
                    // 1023 one-slot buckets for 1024 blocks in groups
                    // of 8 per leaf: blocks overflow to the root and a
                    // queue of them reaches the stash, whose order the
                    // comparison above pins.
                    EXPECT_GE(batch.scheme->stash().size(), 3u);
                    EXPECT_EQ(batch.scheme->tree().occupancy(TreeIdx{0}),
                              1u);
                }
            }
        }
    }
}

TEST(InitialPlacement, PanicsBeforeLeafAssignment)
{
    const OramConfig cfg = placementCfg(SchemeKind::Path, 3);
    PositionMap pos_map(cfg.numDataBlocks,
                        Leaf{static_cast<std::uint32_t>(1ULL << cfg.levels())});
    const auto scheme = makeOramScheme(cfg, pos_map);
    EXPECT_THROW(scheme->placeInitial(cfg.numDataBlocks), SimPanic);
}

TEST(InitialPlacement, PayloadCountMustMatchBlockCount)
{
    const OramConfig cfg = placementCfg(SchemeKind::Path, 3);
    Placed p(cfg, 1);
    const std::vector<std::uint64_t> payloads(cfg.numDataBlocks - 1);
    EXPECT_THROW(p.scheme->placeInitial(cfg.numDataBlocks, payloads),
                 SimPanic);
}

} // namespace
} // namespace proram
