/** @file Unit tests for the dense insertion-ordered ORAM stash. */

#include "oram/stash.hh"

#include <gtest/gtest.h>

#include <vector>

namespace proram
{
namespace
{

using namespace proram::literals;

/** Position map every test's stash is built over: 100 blocks, 64
 *  leaves, block b mapped to leaf b % 64. */
struct StashFixture
{
    explicit StashFixture(std::uint32_t capacity) : pm(100, Leaf{64}),
                                                   s(capacity, pm)
    {
        for (std::uint32_t b = 0; b < 100; ++b)
            pm.setLeaf(BlockId{b}, Leaf{b % 64});
    }

    PositionMap pm;
    Stash s;
};

TEST(Stash, InsertFindErase)
{
    StashFixture f(10);
    Stash &s = f.s;
    EXPECT_TRUE(s.insert(5_id, 99));
    EXPECT_TRUE(s.contains(5_id));
    ASSERT_NE(s.findData(5_id), nullptr);
    EXPECT_EQ(*s.findData(5_id), 99u);
    EXPECT_EQ(s.leafOf(5_id), 5_leaf);
    EXPECT_EQ(f.pm.entry(5_id).stashSlot, 0u);
    EXPECT_TRUE(s.erase(5_id));
    EXPECT_FALSE(s.contains(5_id));
    EXPECT_EQ(f.pm.entry(5_id).stashSlot, kNoStashSlot);
    EXPECT_FALSE(s.erase(5_id));
    EXPECT_EQ(s.findData(5_id), nullptr);
    EXPECT_EQ(s.leafOf(5_id), kInvalidLeaf);
}

TEST(Stash, DuplicateInsertRejected)
{
    StashFixture f(10);
    Stash &s = f.s;
    EXPECT_TRUE(s.insert(1_id, 1));
    EXPECT_FALSE(s.insert(1_id, 2));
    EXPECT_EQ(*s.findData(1_id), 1u);
    EXPECT_EQ(s.leafOf(1_id), 1_leaf);
    EXPECT_EQ(s.size(), 1u);
}

TEST(Stash, AppendMatchesInsertsAndGrowsTheLanes)
{
    // A bulk append is the same as inserting its blocks one by one, in
    // order - including when it has to grow the lanes (capacity 4: 16
    // slots of room) partway through.
    StashFixture bulk(4);
    StashFixture single(4);
    for (BlockId b : {90_id, 3_id}) {
        bulk.s.insert(b, b.value());
        single.s.insert(b, b.value());
    }
    std::vector<BlockId> ids;
    std::vector<std::uint64_t> data;
    for (std::uint64_t b = 20; b < 60; ++b) {
        ids.push_back(BlockId{b});
        data.push_back(b * 7);
    }
    bulk.s.append(ids, data.data());
    for (std::size_t k = 0; k < ids.size(); ++k)
        ASSERT_TRUE(single.s.insert(ids[k], data[k]));
    ASSERT_EQ(bulk.s.slotCount(), single.s.slotCount());
    for (std::size_t k = 0; k < bulk.s.slotCount(); ++k) {
        EXPECT_EQ(bulk.s.idLane()[k], single.s.idLane()[k]);
        EXPECT_EQ(bulk.s.leafLane()[k], single.s.leafLane()[k]);
        EXPECT_EQ(bulk.s.dataLane()[k], single.s.dataLane()[k]);
    }
    for (std::uint64_t b = 0; b < 100; ++b) {
        EXPECT_EQ(bulk.pm.entry(BlockId{b}).stashSlot,
                  single.pm.entry(BlockId{b}).stashSlot)
            << "block " << b;
    }
    // The leaf cache follows the grown lane.
    bulk.pm.setLeaf(40_id, 7_leaf);
    EXPECT_EQ(bulk.s.leafOf(40_id), 7_leaf);
}

TEST(Stash, AppendPanicsOnADuplicate)
{
    StashFixture f(4);
    f.s.insert(5_id, 0);
    const BlockId resident[] = {6_id, 5_id};
    const std::uint64_t data[] = {0, 0};
    EXPECT_THROW(f.s.append(resident, data), SimPanic);
    StashFixture g(4);
    const BlockId twice[] = {8_id, 9_id, 8_id};
    const std::uint64_t more[] = {0, 0, 0};
    EXPECT_THROW(g.s.append(twice, more), SimPanic);
}

TEST(Stash, AppendPanicsOnAnIdOutsideThePositionMap)
{
    StashFixture f(4);
    const BlockId ids[] = {1_id, BlockId{100}};
    const std::uint64_t data[] = {0, 0};
    EXPECT_THROW(f.s.append(ids, data), SimPanic);
    const BlockId invalid[] = {kInvalidBlock};
    EXPECT_THROW(f.s.append(invalid, data), SimPanic);
    EXPECT_EQ(f.s.size(), 0u);
}

TEST(Stash, CapacityIsSoft)
{
    StashFixture f(2);
    Stash &s = f.s;
    s.insert(1_id, 0);
    s.insert(2_id, 0);
    EXPECT_FALSE(s.overCapacity());
    s.insert(3_id, 0);
    EXPECT_TRUE(s.overCapacity());
    EXPECT_EQ(s.size(), 3u);
    // Far past the lanes' initial room: growth keeps every lookup.
    for (std::uint64_t b = 10; b < 100; ++b)
        s.insert(BlockId{b}, b);
    EXPECT_EQ(s.size(), 93u);
    for (std::uint64_t b = 10; b < 100; ++b) {
        ASSERT_NE(s.findData(BlockId{b}), nullptr);
        EXPECT_EQ(*s.findData(BlockId{b}), b);
    }
}

TEST(Stash, IterationFollowsInsertionOrder)
{
    StashFixture f(10);
    Stash &s = f.s;
    s.insert(3_id, 0);
    s.insert(9_id, 0);
    s.insert(1_id, 0);
    EXPECT_EQ(s.residentIds(), (std::vector<BlockId>{3_id, 9_id, 1_id}));
    std::vector<BlockId> visited;
    s.forEachResident([&](const StashEntry &e) {
        visited.push_back(e.id);
    });
    EXPECT_EQ(visited, (std::vector<BlockId>{3_id, 9_id, 1_id}));
}

TEST(Stash, InsertionOrderSurvivesEraseAndReinsert)
{
    StashFixture f(10);
    Stash &s = f.s;
    for (BlockId b : {4_id, 8_id, 15_id, 16_id, 23_id})
        s.insert(b, 0);
    s.erase(8_id);
    s.erase(16_id);
    // Survivors keep their relative order; a reinsert goes to the end.
    EXPECT_EQ(s.residentIds(),
              (std::vector<BlockId>{4_id, 15_id, 23_id}));
    s.insert(8_id, 0);
    EXPECT_EQ(s.residentIds(),
              (std::vector<BlockId>{4_id, 15_id, 23_id, 8_id}));
}

TEST(Stash, OrderAndLookupsSurviveCompaction)
{
    // Drop most blocks in one stable pass (the eviction path's
    // removal); order and the position map's id -> slot index must
    // hold for every survivor, and the dropped blocks lose theirs.
    StashFixture f(8);
    Stash &s = f.s;
    for (std::uint64_t b = 0; b < 64; ++b)
        s.insert(BlockId{b}, b * 2);
    s.compactFrom(1, [](std::uint32_t slot) { return slot % 3 != 0; });
    std::vector<BlockId> expect;
    for (std::uint64_t b = 0; b < 64; b += 3)
        expect.push_back(BlockId{b});
    EXPECT_EQ(s.residentIds(), expect);
    for (std::size_t i = 0; i < expect.size(); ++i) {
        const BlockId b = expect[i];
        EXPECT_EQ(f.pm.entry(b).stashSlot, i) << "block " << b;
        ASSERT_NE(s.findData(b), nullptr) << "block " << b;
        EXPECT_EQ(*s.findData(b), b.value() * 2);
        EXPECT_EQ(s.leafOf(b),
                  Leaf{static_cast<std::uint32_t>(b.value() % 64)});
    }
    for (std::uint64_t b = 0; b < 64; ++b) {
        if (b % 3 != 0) {
            EXPECT_FALSE(s.contains(BlockId{b})) << "block " << b;
        }
    }
    EXPECT_EQ(s.size(), expect.size());
}

TEST(Stash, SoALanesStayDenseAndAligned)
{
    // The SoA contract eviction depends on: leafLane()/idLane()/
    // dataLane() are parallel arrays over slotCount() slots, and an
    // erase re-packs all lanes, so no slot is ever dead.
    StashFixture f(8);
    Stash &s = f.s;
    for (std::uint64_t b = 0; b < 6; ++b)
        s.insert(BlockId{b}, b + 100);
    s.erase(1_id);
    s.erase(4_id);
    ASSERT_EQ(s.slotCount(), 4u);
    ASSERT_EQ(s.slotCount(), s.size());
    const std::vector<BlockId> expect{0_id, 2_id, 3_id, 5_id};
    for (std::size_t i = 0; i < s.slotCount(); ++i) {
        const BlockId id = s.idLane()[i];
        EXPECT_EQ(id, expect[i]);
        EXPECT_EQ(s.leafLane()[i],
                  Leaf{static_cast<std::uint32_t>(id.value())});
        EXPECT_EQ(s.dataLane()[i], id.value() + 100);
        EXPECT_EQ(f.pm.entry(id).stashSlot, i);
    }
}

TEST(Stash, UpdateLeafRefreshesResidentEntryOnly)
{
    // A remap through the position map rewrites the resident block's
    // cached leaf via its slot, and touches nothing for the others.
    StashFixture f(4);
    Stash &s = f.s;
    s.insert(6_id, 0);
    f.pm.setLeaf(6_id, 11_leaf);
    EXPECT_EQ(s.leafOf(6_id), 11_leaf);
    EXPECT_EQ(s.leafLane()[0], 11_leaf);
    f.pm.setLeaf(99_id, 5_leaf); // absent: must be a no-op, not an insert
    EXPECT_FALSE(s.contains(99_id));
    EXPECT_EQ(s.size(), 1u);
    EXPECT_EQ(s.leafLane()[0], 11_leaf);
}

TEST(Stash, OccupancySampling)
{
    StashFixture f(10);
    Stash &s = f.s;
    s.insert(1_id, 0);
    s.sampleOccupancy();
    s.insert(2_id, 0);
    s.insert(3_id, 0);
    s.sampleOccupancy();
    EXPECT_EQ(s.occupancy().count(), 2u);
    EXPECT_DOUBLE_EQ(s.occupancy().mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.occupancy().max(), 3.0);
}

TEST(Stash, MutableDataThroughFindData)
{
    StashFixture f(4);
    Stash &s = f.s;
    s.insert(7_id, 10);
    *s.findData(7_id) = 20;
    EXPECT_EQ(*s.findData(7_id), 20u);
}

TEST(Stash, CorruptIndexPanicsInRemovalPass)
{
    // The removal pass checks every slot it touches against the
    // block's stashSlot: a disagreement is a corrupt index.
    StashFixture f(4);
    Stash &s = f.s;
    s.insert(1_id, 0);
    s.insert(2_id, 0);
    f.pm.entry(2_id).stashSlot = 0;
    EXPECT_THROW(s.erase(1_id), SimPanic);
}

TEST(Stash, DestructionClearsTheIndex)
{
    PositionMap pm(10, Leaf{4});
    {
        Stash s(4, pm);
        s.insert(3_id, 0);
        ASSERT_EQ(pm.entry(3_id).stashSlot, 0u);
    }
    EXPECT_EQ(pm.entry(3_id).stashSlot, kNoStashSlot);
    pm.setLeaf(3_id, 1_leaf); // no stash left to write through
    EXPECT_EQ(pm.leafOf(3_id), 1_leaf);
}

} // namespace
} // namespace proram
