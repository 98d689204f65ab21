/** @file Unit tests for PrORAM's dynamic super block policy. */

#include "core/dynamic_policy.hh"

#include <gtest/gtest.h>

#include <set>

#include "core/super_block.hh"
#include "oram/integrity.hh"
#include "util/random.hh"
#include "util/logging.hh"

namespace proram
{
namespace
{

using namespace proram::literals;

struct FakeLlc : LlcProbe
{
    bool probe(BlockId b) const override { return resident.count(b); }
    std::set<BlockId> resident;
};

struct Fixture
{
    explicit Fixture(DynamicPolicyConfig pcfg = {})
    {
        cfg.numDataBlocks = 1ULL << 12;
        cfg.seed = 23;
        oram = std::make_unique<UnifiedOram>(cfg);
        oram->initialize(1);
        policy = std::make_unique<DynamicSuperBlockPolicy>(*oram, llc,
                                                           pcfg);
    }

    AccessDecision access(BlockId b, bool wb = false)
    {
        oram->posMapWalk(b);
        const Leaf leaf = oram->posMap().leafOf(b);
        oram->engine().readPath(leaf);
        auto d = policy->onDataAccess(b, wb);
        oram->engine().writePath(leaf);
        while (oram->engine().stash().overCapacity())
            oram->engine().dummyAccess();
        return d;
    }

    std::uint32_t sbSize(BlockId b)
    {
        return oram->posMap().entry(b).sbSize();
    }

    OramConfig cfg;
    FakeLlc llc;
    std::unique_ptr<UnifiedOram> oram;
    std::unique_ptr<DynamicSuperBlockPolicy> policy;
};

TEST(DynamicPolicy, ConfigValidation)
{
    OramConfig cfg;
    cfg.numDataBlocks = 1ULL << 12;
    UnifiedOram oram(cfg);
    FakeLlc llc;
    DynamicPolicyConfig p;
    p.maxSbSize = 3;
    EXPECT_THROW(DynamicSuperBlockPolicy(oram, llc, p), SimFatal);
    p = {};
    p.maxSbSize = 64; // fanout is 32
    EXPECT_THROW(DynamicSuperBlockPolicy(oram, llc, p), SimFatal);
    p = {};
    p.cMerge = 0.0;
    EXPECT_THROW(DynamicSuperBlockPolicy(oram, llc, p), SimFatal);
}

TEST(DynamicPolicy, AllBlocksStartAsSingletons)
{
    Fixture f;
    for (std::uint64_t b = 0; b < 32; ++b)
        EXPECT_EQ(f.sbSize(BlockId{b}), 1u);
}

TEST(DynamicPolicy, NoMergeWithoutNeighborInLlc)
{
    Fixture f;
    f.access(0_id);
    f.access(0_id);
    f.access(0_id);
    EXPECT_EQ(f.sbSize(0_id), 1u);
    EXPECT_EQ(f.policy->policyStats().merges, 0u);
}

TEST(DynamicPolicy, MergeAfterObservedLocality)
{
    Fixture f;
    // Neighbour 1 is LLC-resident whenever 0 is accessed: locality.
    f.llc.resident = {1_id};
    f.access(0_id); // merge counter 0 -> 1 >= threshold(1)=1 -> merge
    EXPECT_EQ(f.sbSize(0_id), 2u);
    EXPECT_EQ(f.sbSize(1_id), 2u);
    EXPECT_EQ(f.oram->posMap().leafOf(0_id), f.oram->posMap().leafOf(1_id));
    EXPECT_EQ(f.policy->policyStats().merges, 1u);
    EXPECT_TRUE(checkIntegrity(*f.oram).ok);
}

TEST(DynamicPolicy, MergeRemapRefreshesStashCachedLeaves)
{
    // A merge remaps blocks that are stash-resident mid-access; the
    // stash's cached leaf copies must see the new mapping so this
    // same access's write-back evicts along the right path.
    Fixture f;
    f.llc.resident = {1_id};
    f.oram->posMapWalk(0_id);
    const Leaf old_leaf = f.oram->posMap().leafOf(0_id);
    f.oram->engine().readPath(old_leaf);
    ASSERT_TRUE(f.oram->engine().stash().contains(0_id));
    f.policy->onDataAccess(0_id, /*wb=*/false); // merges (0,1), remaps
    ASSERT_EQ(f.sbSize(0_id), 2u);
    const Stash &stash = f.oram->engine().stash();
    ASSERT_TRUE(stash.contains(0_id));
    EXPECT_EQ(stash.leafOf(0_id), f.oram->posMap().leafOf(0_id));
    if (stash.contains(1_id)) {
        EXPECT_EQ(stash.leafOf(1_id), f.oram->posMap().leafOf(1_id));
    }
    f.oram->engine().writePath(old_leaf);
    EXPECT_TRUE(checkIntegrity(*f.oram).ok);
}

TEST(DynamicPolicy, BreakRemapRefreshesStashCachedLeaves)
{
    DynamicPolicyConfig p;
    p.breakMode = DynamicPolicyConfig::BreakMode::Static;
    Fixture f(p);
    f.llc.resident = {1_id};
    f.access(0_id); // merge
    ASSERT_EQ(f.sbSize(0_id), 2u);
    f.llc.resident.clear();
    bool broke = false;
    for (int i = 0; i < 8 && !broke; ++i) {
        f.oram->posMapWalk(0_id);
        const Leaf leaf = f.oram->posMap().leafOf(0_id);
        f.oram->engine().readPath(leaf);
        f.policy->onDataAccess(0_id, /*wb=*/false);
        broke = f.sbSize(0_id) == 1;
        if (broke) {
            // Both halves were just remapped to fresh independent
            // leaves; the resident copy's cached leaf must match.
            ASSERT_TRUE(f.oram->engine().stash().contains(0_id));
            EXPECT_EQ(f.oram->engine().stash().leafOf(0_id),
                      f.oram->posMap().leafOf(0_id));
        }
        f.oram->engine().writePath(leaf);
        while (f.oram->engine().stash().overCapacity())
            f.oram->engine().dummyAccess();
    }
    ASSERT_TRUE(broke);
    EXPECT_TRUE(checkIntegrity(*f.oram).ok);
}

TEST(DynamicPolicy, MergeCounterDecrementsOnNoLocality)
{
    Fixture f;
    f.llc.resident = {1_id};
    // Raise the threshold so one observation is not enough.
    f.policy->onEpoch(/*ev=*/0.5, /*acc=*/1.0); // adaptive > 0
    const double thr = f.policy->mergeThreshold(1);
    ASSERT_GT(thr, 1.0);
    f.access(0_id);
    EXPECT_EQ(f.sbSize(0_id), 1u);
    const auto c1 = f.policy->readMergeCounter(0_id, 1);
    EXPECT_EQ(c1, 1u);
    // Now neighbour absent: counter decrements.
    f.llc.resident.clear();
    f.access(0_id);
    EXPECT_EQ(f.policy->readMergeCounter(0_id, 1), 0u);
}

TEST(DynamicPolicy, MergedGroupPrefetchesSibling)
{
    Fixture f;
    f.llc.resident = {1_id};
    f.access(0_id);           // merged
    f.llc.resident.clear(); // sibling no longer cached
    auto d = f.access(0_id);
    EXPECT_EQ(d.prefetches, std::vector<BlockId>{1_id});
    EXPECT_TRUE(f.oram->posMap().entry(1_id).prefetchBit);
}

TEST(DynamicPolicy, PrefetchHitFeedsBreakCounterUp)
{
    Fixture f;
    f.llc.resident = {1_id};
    f.access(0_id); // merge
    f.llc.resident.clear();
    f.access(0_id); // prefetch 1
    f.policy->onDemandTouch(1_id);
    f.access(0_id); // consume: hit
    EXPECT_EQ(f.policy->policyStats().prefetchHits, 1u);
    EXPECT_EQ(f.sbSize(0_id), 2u) << "hit must not break the super block";
}

TEST(DynamicPolicy, RepeatedMissesBreakSuperBlock)
{
    DynamicPolicyConfig p;
    p.breakMode = DynamicPolicyConfig::BreakMode::Static;
    Fixture f(p);
    f.llc.resident = {1_id};
    f.access(0_id); // merge
    f.llc.resident.clear();
    // Break counter init = 3 (2 bits). Each access prefetches 1,
    // never used -> next access decrements. 3 misses drop it to 0,
    // the 4th pushes below the static threshold -> break.
    int broke_at = -1;
    for (int i = 0; i < 8; ++i) {
        f.access(0_id);
        if (f.sbSize(0_id) == 1) {
            broke_at = i;
            break;
        }
    }
    EXPECT_GE(broke_at, 2);
    EXPECT_NE(broke_at, -1) << "super block never broke";
    EXPECT_EQ(f.policy->policyStats().breaks, 1u);
    // Halves mapped independently.
    EXPECT_EQ(f.sbSize(1_id), 1u);
    EXPECT_TRUE(checkIntegrity(*f.oram).ok);
}

TEST(DynamicPolicy, BreakModeNoneNeverBreaks)
{
    DynamicPolicyConfig p;
    p.breakMode = DynamicPolicyConfig::BreakMode::None;
    Fixture f(p);
    f.llc.resident = {1_id};
    f.access(0_id);
    f.llc.resident.clear();
    for (int i = 0; i < 20; ++i)
        f.access(0_id);
    EXPECT_EQ(f.sbSize(0_id), 2u);
    EXPECT_EQ(f.policy->policyStats().breaks, 0u);
}

TEST(DynamicPolicy, MaxSbSizeCapsGrowth)
{
    DynamicPolicyConfig p;
    p.maxSbSize = 2;
    Fixture f(p);
    f.llc.resident = {0_id, 1_id, 2_id, 3_id};
    for (int i = 0; i < 10; ++i) {
        f.access(0_id);
        f.access(2_id);
    }
    EXPECT_EQ(f.sbSize(0_id), 2u);
    EXPECT_EQ(f.sbSize(2_id), 2u);
    // Pair (0,1) and (2,3) must NOT merge into a size-4 group.
    EXPECT_EQ(f.policy->policyStats().merges, 2u);
}

TEST(DynamicPolicy, GrowsToSize4WhenAllowed)
{
    DynamicPolicyConfig p;
    p.maxSbSize = 4;
    Fixture f(p);
    f.llc.resident = {0_id, 1_id, 2_id, 3_id};
    for (int i = 0; i < 12 && f.sbSize(0_id) < 4; ++i) {
        f.access(0_id);
        f.access(2_id);
    }
    EXPECT_EQ(f.sbSize(0_id), 4u);
    for (std::uint64_t m = 0; m < 4; ++m)
        EXPECT_EQ(f.oram->posMap().leafOf(BlockId{m}),
                  f.oram->posMap().leafOf(0_id));
    EXPECT_TRUE(checkIntegrity(*f.oram).ok);
}

TEST(DynamicPolicy, CounterBitSlicingRoundTrips)
{
    Fixture f;
    for (std::uint32_t v : {0u, 1u, 2u, 3u}) {
        f.policy->writeMergeCounter(8_id, 1, v);
        EXPECT_EQ(f.policy->readMergeCounter(8_id, 1), v);
    }
    for (std::uint32_t v : {0u, 5u, 15u}) {
        f.policy->writeMergeCounter(8_id, 2, v);
        EXPECT_EQ(f.policy->readMergeCounter(8_id, 2), v);
    }
    for (std::uint32_t v : {0u, 1u, 2u, 3u}) {
        f.policy->writeBreakCounter(12_id, 2, v);
        EXPECT_EQ(f.policy->readBreakCounter(12_id, 2), v);
    }
}

TEST(DynamicPolicy, CounterBitsLiveInPosMapEntries)
{
    Fixture f;
    f.policy->writeMergeCounter(0_id, 1, 0b10);
    EXPECT_TRUE(f.oram->posMap().entry(0_id).mergeBit);
    EXPECT_FALSE(f.oram->posMap().entry(1_id).mergeBit);
    f.policy->writeBreakCounter(0_id, 2, 0b01);
    EXPECT_FALSE(f.oram->posMap().entry(0_id).breakBit);
    EXPECT_TRUE(f.oram->posMap().entry(1_id).breakBit);
}

TEST(DynamicPolicy, StaticVsAdaptiveThresholds)
{
    DynamicPolicyConfig p;
    p.mergeThreshold = DynamicPolicyConfig::MergeThreshold::Static;
    Fixture f(p);
    EXPECT_DOUBLE_EQ(f.policy->mergeThreshold(1), 2.0);
    EXPECT_DOUBLE_EQ(f.policy->mergeThreshold(2), 4.0);
    EXPECT_DOUBLE_EQ(f.policy->mergeThreshold(4), 8.0);

    Fixture g;
    // Fresh adaptive state: rates zero -> merge threshold is the
    // hysteresis term; break threshold floors at the bottomed-out
    // value of 1.
    EXPECT_DOUBLE_EQ(g.policy->mergeThreshold(1), 1.0);
    EXPECT_DOUBLE_EQ(g.policy->breakThreshold(2), 1.0);
}

TEST(DynamicPolicy, AdaptiveThresholdFollowsEquation1)
{
    Fixture f;
    f.policy->onEpoch(0.2, 0.5); // phr defaults to 1.0 (no samples)
    // threshold = C * n^2 * ev * acc / phr = 1 * 4 * 0.2 * 0.5 / 1.
    EXPECT_NEAR(f.policy->adaptiveThreshold(2, 1.0), 0.4, 1e-9);
    EXPECT_NEAR(f.policy->mergeThreshold(2), 2.4, 1e-9);
    // Break threshold floors at 1.0 (bottomed-out counter breaks).
    EXPECT_NEAR(f.policy->breakThreshold(2), 1.0, 1e-9);
    // Coefficient scales linearly (Fig. 10).
    EXPECT_NEAR(f.policy->adaptiveThreshold(2, 4.0), 1.6, 1e-9);
    f.policy->onEpoch(0.8, 1.0); // adaptive(2) = 3.2 > floor
    EXPECT_NEAR(f.policy->breakThreshold(2), 3.2, 1e-9);
}

TEST(DynamicPolicy, PrefetchHitRateLowersThreshold)
{
    Fixture hi, lo;
    // hi: all prefetch hits; lo: all misses.
    hi.llc.resident = {1_id};
    hi.access(0_id);
    hi.llc.resident.clear();
    hi.access(0_id);
    hi.policy->onDemandTouch(1_id);
    hi.access(0_id);
    hi.policy->onEpoch(0.3, 0.8);

    lo.llc.resident = {1_id};
    lo.access(0_id);
    lo.llc.resident.clear();
    lo.access(0_id);
    lo.access(0_id);
    lo.policy->onEpoch(0.3, 0.8);

    EXPECT_LT(hi.policy->adaptiveThreshold(2, 1.0),
              lo.policy->adaptiveThreshold(2, 1.0));
}

TEST(DynamicPolicy, HysteresisSeparatesMergeAndBreak)
{
    Fixture f;
    f.policy->onEpoch(0.5, 1.0);
    EXPECT_NEAR(f.policy->mergeThreshold(2) -
                    f.policy->breakThreshold(2),
                2.0, 1e-9);
}

TEST(DynamicPolicy, InitialBreakCounterClamped)
{
    EXPECT_EQ(DynamicSuperBlockPolicy::initialBreakCounter(2), 3u);
    EXPECT_EQ(DynamicSuperBlockPolicy::initialBreakCounter(4), 8u);
    EXPECT_EQ(DynamicSuperBlockPolicy::initialBreakCounter(8), 16u);
}

TEST(DynamicPolicy, WritebackIsRemapOnly)
{
    Fixture f;
    f.llc.resident = {1_id};
    auto d = f.access(0_id, /*wb=*/true);
    EXPECT_TRUE(d.prefetches.empty());
    EXPECT_EQ(f.sbSize(0_id), 1u) << "write-backs must not merge";
    EXPECT_EQ(f.policy->readMergeCounter(0_id, 1), 0u);
}

TEST(DynamicPolicy, BrokenHalvesDoNotInstantlyRemerge)
{
    DynamicPolicyConfig p;
    p.breakMode = DynamicPolicyConfig::BreakMode::Static;
    Fixture f(p);
    f.llc.resident = {1_id};
    f.access(0_id);
    f.llc.resident.clear();
    for (int i = 0; i < 8 && f.sbSize(0_id) == 2; ++i)
        f.access(0_id);
    ASSERT_EQ(f.sbSize(0_id), 1u);
    // Merge bits were cleared on break.
    EXPECT_EQ(f.policy->readMergeCounter(0_id, 1), 0u);
}

TEST(DynamicPolicy, MergeRequiresCoherentNeighbor)
{
    DynamicPolicyConfig p;
    p.maxSbSize = 4;
    Fixture f(p);
    // Merge (0,1) but leave (2,3) as singletons; then demand locality
    // between pair (0,1) and its size-2 neighbour (2,3): merging must
    // be refused while (2,3) is incoherent (different leaves).
    f.llc.resident = {1_id};
    f.access(0_id);
    ASSERT_EQ(f.sbSize(0_id), 2u);
    // Keep 1 resident too so the (0,1) break counter never decays
    // (a sibling in the LLC is not re-prefetched).
    f.llc.resident = {1_id, 2_id, 3_id};
    for (int i = 0; i < 5; ++i)
        f.access(0_id);
    EXPECT_EQ(f.sbSize(0_id), 2u);
    EXPECT_TRUE(checkIntegrity(*f.oram).ok);
}

TEST(DynamicPolicy, IntegrityUnderRandomChurn)
{
    DynamicPolicyConfig p;
    p.maxSbSize = 4;
    p.breakMode = DynamicPolicyConfig::BreakMode::Static;
    Fixture f(p);
    Rng rng(17);
    for (int i = 0; i < 600; ++i) {
        const BlockId b{rng.below(256)};
        // Randomly toggle neighbour residency to exercise both paths.
        f.llc.resident.clear();
        if (rng.chance(0.5)) {
            const std::uint32_t n = f.sbSize(b);
            const BlockId nb = sbNeighborBaseStrided(
                sbBaseStrided(b, n, 0), n, 0);
            for (BlockId m : sbMembersStrided(nb, n, 0))
                f.llc.resident.insert(m);
        }
        f.access(b, rng.chance(0.2));
        if (rng.chance(0.3))
            f.policy->onDemandTouch(BlockId{rng.below(256)});
        if (i % 100 == 99)
            f.policy->onEpoch(rng.real() * 0.3, rng.real());
    }
    const auto rep = checkIntegrity(*f.oram);
    EXPECT_TRUE(rep.ok) << (rep.violations.empty()
                                ? ""
                                : rep.violations.front());
}


TEST(DynamicPolicyStrided, MergesStridePairs)
{
    DynamicPolicyConfig p;
    p.strideLog = 2; // pair (b, b+4)
    Fixture f(p);
    f.llc.resident = {4_id};
    f.access(0_id); // neighbour of 0 at stride 4 is block 4 -> merge
    EXPECT_EQ(f.sbSize(0_id), 2u);
    EXPECT_EQ(f.sbSize(4_id), 2u);
    EXPECT_EQ(f.oram->posMap().entry(0_id).sbStrideLog, 2u);
    EXPECT_EQ(f.oram->posMap().leafOf(0_id), f.oram->posMap().leafOf(4_id));
    // The contiguous neighbour is untouched.
    EXPECT_EQ(f.sbSize(1_id), 1u);
    EXPECT_TRUE(checkIntegrity(*f.oram).ok);
}

TEST(DynamicPolicyStrided, ContiguousResidencyDoesNotMerge)
{
    DynamicPolicyConfig p;
    p.strideLog = 2;
    Fixture f(p);
    f.llc.resident = {1_id}; // contiguous neighbour, wrong stride
    for (int i = 0; i < 4; ++i)
        f.access(0_id);
    EXPECT_EQ(f.sbSize(0_id), 1u);
}

TEST(DynamicPolicyStrided, StridedGroupPrefetchesStrideSibling)
{
    DynamicPolicyConfig p;
    p.strideLog = 3;
    Fixture f(p);
    f.llc.resident = {8_id};
    f.access(0_id);
    ASSERT_EQ(f.sbSize(0_id), 2u);
    f.llc.resident.clear();
    auto d = f.access(0_id);
    EXPECT_EQ(d.prefetches, std::vector<BlockId>{8_id});
}

TEST(DynamicPolicyStrided, BreakRestoresStridedSingletons)
{
    DynamicPolicyConfig p;
    p.strideLog = 2;
    p.breakMode = DynamicPolicyConfig::BreakMode::Static;
    Fixture f(p);
    f.llc.resident = {4_id};
    f.access(0_id);
    ASSERT_EQ(f.sbSize(0_id), 2u);
    f.llc.resident.clear();
    for (int i = 0; i < 8 && f.sbSize(0_id) == 2; ++i)
        f.access(0_id);
    EXPECT_EQ(f.sbSize(0_id), 1u);
    EXPECT_EQ(f.sbSize(4_id), 1u);
    EXPECT_TRUE(checkIntegrity(*f.oram).ok);
}

TEST(DynamicPolicyStrided, SpanValidation)
{
    OramConfig cfg;
    cfg.numDataBlocks = 1ULL << 12;
    UnifiedOram oram(cfg);
    FakeLlc llc;
    DynamicPolicyConfig p;
    p.maxSbSize = 4;
    p.strideLog = 4; // span 64 > fanout 32
    EXPECT_THROW(DynamicSuperBlockPolicy(oram, llc, p), SimFatal);
    p.strideLog = 3; // span 32 == fanout: allowed
    EXPECT_NO_THROW(DynamicSuperBlockPolicy(oram, llc, p));
}

TEST(DynamicPolicyStrided, ChurnKeepsIntegrity)
{
    DynamicPolicyConfig p;
    p.strideLog = 2;
    p.maxSbSize = 4;
    p.breakMode = DynamicPolicyConfig::BreakMode::Static;
    Fixture f(p);
    Rng rng(29);
    for (int i = 0; i < 500; ++i) {
        const BlockId b{rng.below(512)};
        f.llc.resident.clear();
        if (rng.chance(0.5)) {
            const std::uint32_t n = f.sbSize(b);
            const BlockId nb = sbNeighborBaseStrided(
                sbBaseStrided(b, n, 2), n, 2);
            for (BlockId m : sbMembersStrided(nb, n, 2))
                f.llc.resident.insert(m);
        }
        f.access(b, rng.chance(0.2));
    }
    const auto rep = checkIntegrity(*f.oram);
    EXPECT_TRUE(rep.ok) << (rep.violations.empty()
                                ? ""
                                : rep.violations.front());
}

} // namespace
} // namespace proram
