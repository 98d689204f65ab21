/**
 * @file Differential test of the path kernel (OramScheme::drainPath
 * and OramScheme::evictGreedy): a randomized run of each scheme beside
 * a reference model written here, the per-slot eviction the kernel
 * replaced - drain a path bucket by bucket, inserting each block into
 * the stash; counting-sort the stash slots deepest level first with a
 * cursor per level; pool them on a stack; fill each bucket's first
 * free slots from the top of the pool; then erase the placed blocks
 * one stable pass at a time. After every access the bucket records,
 * the stash lanes and every PosEntry::stashSlot must match the model
 * word for word.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "oram/scheme.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace proram
{
namespace
{

/** The pre-kernel algorithm over plain vectors: the oracle. */
class ReferenceOram
{
  public:
    ReferenceOram(std::uint32_t levels, std::uint32_t z,
                  std::uint64_t num_blocks)
        : levels_(levels), z_(z), words_(((2ULL << levels) - 1) * 2 * z, 0),
          slotOf_(num_blocks, kNoStashSlot), leafOf_(num_blocks)
    {
    }

    /** Copy the scheme's whole state (the start of the run). */
    void copyFrom(const OramScheme &scheme, const PositionMap &pos_map)
    {
        const BinaryTree &t = scheme.tree();
        for (std::uint64_t n = 0; n < t.numBuckets(); ++n) {
            const std::uint64_t *rec = t.record(TreeIdx{n});
            for (std::uint32_t w = 0; w < 2 * z_; ++w)
                words_[n * 2 * z_ + w] = rec[w];
        }
        const Stash &s = scheme.stash();
        ids_.assign(s.idLane(), s.idLane() + s.slotCount());
        leaves_.assign(s.leafLane(), s.leafLane() + s.slotCount());
        data_.assign(s.dataLane(), s.dataLane() + s.slotCount());
        for (std::uint64_t b = 0; b < slotOf_.size(); ++b) {
            const PosEntry &e = pos_map.entry(BlockId{b});
            slotOf_[b] = e.stashSlot;
            leafOf_[b] = e.leaf;
        }
    }

    void setLeaf(BlockId id, Leaf leaf)
    {
        leafOf_[id.value()] = leaf;
        if (slotOf_[id.value()] != kNoStashSlot)
            leaves_[slotOf_[id.value()]] = leaf;
    }

    void insert(BlockId id, std::uint64_t data)
    {
        ASSERT_EQ(slotOf_[id.value()], kNoStashSlot) << "block " << id;
        slotOf_[id.value()] = static_cast<std::uint32_t>(ids_.size());
        ids_.push_back(id);
        leaves_.push_back(leafOf_[id.value()]);
        data_.push_back(data);
    }

    void setData(BlockId id, std::uint64_t data)
    {
        data_[slotOf_[id.value()]] = data;
    }

    /** Path ORAM's read: every real block, root to leaf, slot order. */
    void drain(Leaf leaf)
    {
        for (std::uint32_t l = 0; l <= levels_; ++l) {
            std::uint64_t *rec = record(leaf, l);
            for (std::uint32_t i = 0; i < z_; ++i) {
                if (rec[i] == 0)
                    continue;
                insert(BlockId{rec[i] - 1}, rec[z_ + i]);
                rec[i] = 0;
                rec[z_ + i] = 0;
            }
        }
    }

    /** Ring ORAM's read: only the blocks mapped to @p leaf. */
    void ringRead(Leaf leaf)
    {
        for (std::uint32_t l = 0; l <= levels_; ++l) {
            std::uint64_t *rec = record(leaf, l);
            for (std::uint32_t i = 0; i < z_; ++i) {
                if (rec[i] == 0 || leafOf_[rec[i] - 1] != leaf)
                    continue;
                insert(BlockId{rec[i] - 1}, rec[z_ + i]);
                rec[i] = 0;
                rec[z_ + i] = 0;
            }
        }
    }

    /** The greedy eviction as it was before the path kernel. */
    void evict(Leaf leaf)
    {
        const auto slots = static_cast<std::uint32_t>(ids_.size());
        std::vector<std::uint32_t> level(slots);
        std::vector<std::uint32_t> hist(levels_ + 1, 0);
        for (std::uint32_t s = 0; s < slots; ++s) {
            const std::uint32_t diff = leaves_[s] ^ leaf;
            level[s] = levels_ - static_cast<std::uint32_t>(
                                     std::bit_width(diff));
            ++hist[level[s]];
        }
        std::vector<std::uint32_t> start(levels_ + 1);
        std::vector<std::uint32_t> cursor(levels_ + 1);
        std::uint32_t offset = 0;
        for (std::uint32_t l = levels_ + 1; l-- > 0;) {
            start[l] = offset;
            cursor[l] = offset;
            offset += hist[l];
        }
        std::vector<std::uint32_t> sorted(slots);
        for (std::uint32_t s = 0; s < slots; ++s)
            sorted[cursor[level[s]]++] = s;

        std::vector<std::uint32_t> pool;
        std::vector<bool> placed(slots, false);
        for (std::uint32_t l = levels_ + 1; l-- > 0;) {
            for (std::uint32_t j = 0; j < hist[l]; ++j)
                pool.push_back(sorted[start[l] + j]);
            std::uint64_t *rec = record(leaf, l);
            for (std::uint32_t i = 0; i < z_ && !pool.empty(); ++i) {
                if (rec[i] != 0)
                    continue;
                const std::uint32_t s = pool.back();
                pool.pop_back();
                rec[i] = ids_[s].value() + 1;
                rec[z_ + i] = data_[s];
                placed[s] = true;
            }
        }
        for (std::uint32_t s = slots; s-- > 0;) {
            if (placed[s])
                erase(s);
        }
    }

    /** Fail unless @p scheme holds exactly this state. */
    void expectSame(const OramScheme &scheme, const PositionMap &pos_map,
                    const std::string &when) const
    {
        const BinaryTree &t = scheme.tree();
        for (std::uint64_t n = 0; n < t.numBuckets(); ++n) {
            const std::uint64_t *rec = t.record(TreeIdx{n});
            const std::uint64_t *want = &words_[n * 2 * z_];
            if (std::equal(rec, rec + 2 * z_, want))
                continue;
            for (std::uint32_t w = 0; w < 2 * z_; ++w) {
                ASSERT_EQ(rec[w], want[w])
                    << when << ": bucket " << n << " word " << w;
            }
        }
        const Stash &s = scheme.stash();
        ASSERT_EQ(s.slotCount(), ids_.size()) << when;
        for (std::size_t k = 0; k < ids_.size(); ++k) {
            ASSERT_EQ(s.idLane()[k], ids_[k]) << when << ": slot " << k;
            ASSERT_EQ(s.leafLane()[k], leaves_[k]) << when << ": slot " << k;
            ASSERT_EQ(s.dataLane()[k], data_[k]) << when << ": slot " << k;
        }
        for (std::uint64_t b = 0; b < slotOf_.size(); ++b) {
            ASSERT_EQ(pos_map.entry(BlockId{b}).stashSlot, slotOf_[b])
                << when << ": block " << b;
        }
    }

    std::size_t stashSize() const { return ids_.size(); }
    BlockId stashId(std::size_t slot) const { return ids_[slot]; }

  private:
    std::uint64_t *record(Leaf leaf, std::uint32_t l)
    {
        const std::uint64_t node = ((1ULL << l) - 1) +
                                   (std::uint64_t{leaf.value()} >>
                                    (levels_ - l));
        return &words_[node * 2 * z_];
    }

    /** Remove slot @p s, keeping the survivors' order. */
    void erase(std::uint32_t s)
    {
        slotOf_[ids_[s].value()] = kNoStashSlot;
        ids_.erase(ids_.begin() + s);
        leaves_.erase(leaves_.begin() + s);
        data_.erase(data_.begin() + s);
        for (std::uint32_t k = s; k < ids_.size(); ++k)
            slotOf_[ids_[k].value()] = k;
    }

    std::uint32_t levels_;
    std::uint32_t z_;
    std::vector<std::uint64_t> words_;
    std::vector<BlockId> ids_;
    std::vector<Leaf> leaves_;
    std::vector<std::uint64_t> data_;
    std::vector<std::uint32_t> slotOf_;
    std::vector<Leaf> leafOf_;
};

using KernelParam = std::tuple<SchemeKind, bool, std::uint32_t>;

class PathKernel : public ::testing::TestWithParam<KernelParam>
{
};

TEST_P(PathKernel, MatchesTheReferenceEviction)
{
    const auto [kind, on_demand, z] = GetParam();
    OramConfig cfg;
    cfg.numDataBlocks = 1024;
    cfg.z = z;
    cfg.stashCapacity = 6; // lanes start at 16 slots, so they grow
    cfg.lazyInit = on_demand;
    cfg.scheme = kind;
    cfg.seed = 7 + z;
    const std::uint64_t n = cfg.numDataBlocks;
    const Leaf leaves{static_cast<std::uint32_t>(1ULL << cfg.levels())};
    PositionMap pos_map(n, leaves);
    const std::unique_ptr<OramScheme> scheme = makeOramScheme(cfg, pos_map);
    std::vector<Leaf> scheduled;
    scheme->setEvictionObserver([&](Leaf l) { scheduled.push_back(l); });

    // Half the blocks are placed up front; the rest are created in
    // the stash in bursts, as lazily initialized blocks are.
    std::vector<std::uint64_t> payloads(n / 2);
    for (std::uint64_t b = 0; b < n; ++b)
        pos_map.setLeaf(BlockId{b}, scheme->randomLeaf());
    for (std::uint64_t b = 0; b < n / 2; ++b)
        payloads[b] = b * 3 + 1;
    scheme->placeInitial(n / 2, payloads);
    ReferenceOram ref(scheme->levels(), z, n);
    ref.copyFrom(*scheme, pos_map);
    ASSERT_NO_FATAL_FAILURE(ref.expectSame(*scheme, pos_map, "set-up"));

    Rng rng(100 + z);
    std::uint64_t created = n / 2;
    std::size_t peak = 0;
    const auto evictScheduled = [&] {
        for (Leaf ev : scheduled) {
            ref.drain(ev);
            ref.evict(ev);
        }
        scheduled.clear();
    };
    for (int step = 0; step < 400; ++step) {
        const std::string when = "step " + std::to_string(step);
        if (step % 9 == 8) {
            const Leaf leaf = scheme->dummyAccess();
            if (kind == SchemeKind::Path) {
                ref.drain(leaf);
                ref.evict(leaf);
            }
            evictScheduled();
            ASSERT_NO_FATAL_FAILURE(ref.expectSame(*scheme, pos_map, when));
            continue;
        }
        const BlockId b{rng.below(created)};
        const Leaf leaf = pos_map.leafOf(b);
        scheme->readPath(leaf);
        if (kind == SchemeKind::Path)
            ref.drain(leaf);
        else
            ref.ringRead(leaf);
        ASSERT_NO_FATAL_FAILURE(ref.expectSame(*scheme, pos_map, when));
        peak = std::max(peak, ref.stashSize());

        // Between read and write: a payload write, remaps of the
        // accessed block and of other residents, and new blocks.
        if (scheme->stash().contains(b)) {
            *scheme->stash().findData(b) = step;
            ref.setData(b, step);
        }
        const auto remap = [&](BlockId id) {
            const Leaf fresh = scheme->randomLeaf();
            pos_map.setLeaf(id, fresh);
            ref.setLeaf(id, fresh);
        };
        remap(b);
        for (int r = 0; r < 3 && ref.stashSize() > 0; ++r)
            remap(ref.stashId(rng.below(ref.stashSize())));
        const std::uint64_t burst = step % 40 == 20 ? 24 : rng.below(2);
        for (std::uint64_t k = 0; k < burst && created < n; ++k, ++created) {
            ASSERT_TRUE(scheme->stash().insert(BlockId{created}, created));
            ref.insert(BlockId{created}, created);
        }
        peak = std::max(peak, ref.stashSize());

        scheme->writePath(leaf);
        if (kind == SchemeKind::Path)
            ref.evict(leaf);
        evictScheduled();
        ASSERT_NO_FATAL_FAILURE(ref.expectSame(*scheme, pos_map, when));
    }
    // The run must have taken the stash past twice its capacity and
    // past its lanes' first 16 slots, so they grew.
    EXPECT_GT(peak, 16u);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesStoragesAndZ, PathKernel,
    ::testing::Combine(::testing::Values(SchemeKind::Path,
                                         SchemeKind::Ring),
                       ::testing::Bool(),
                       ::testing::Values(1u, 2u, 3u, 4u, 7u)),
    [](const auto &info) {
        return std::string(schemeKindName(std::get<0>(info.param))) +
               (std::get<1>(info.param) ? "_ondemand" : "_eager") + "_z" +
               std::to_string(std::get<2>(info.param));
    });

/**
 * On on-demand storage an empty bucket is only read: a path drained
 * and written back with nothing to place allocates no chunk, and an
 * eviction allocates only the chunks of the buckets it fills.
 */
TEST(PathKernelStorage, OnlyFilledBucketsAllocateTheirChunks)
{
    for (const SchemeKind kind : {SchemeKind::Path, SchemeKind::Ring}) {
        SCOPED_TRACE(schemeKindName(kind));
        OramConfig cfg;
        cfg.numDataBlocks = 4096;
        cfg.lazyInit = true;
        cfg.scheme = kind;
        const std::uint64_t n = cfg.numDataBlocks;
        const Leaf leaves{static_cast<std::uint32_t>(1ULL << cfg.levels())};
        // Neither scheme picks its background eviction path from the
        // data (Path draws it from the scheme's RNG, Ring takes the
        // next reverse-lexicographic path), so a twin built from the
        // same configuration and given the same calls names the
        // scheme's next one.
        PositionMap pos_map(n, leaves);
        PositionMap twin_map(n, leaves);
        const std::unique_ptr<OramScheme> scheme =
            makeOramScheme(cfg, pos_map);
        const std::unique_ptr<OramScheme> twin =
            makeOramScheme(cfg, twin_map);
        const BinaryTree &tree = scheme->tree();
        const std::uint32_t levels = scheme->levels();
        ASSERT_GE(levels, 8u);
        ASSERT_GT(tree.numChunks(), 1u);

        // An empty tree and an empty stash: reads, write-backs and
        // background evictions allocate nothing.
        Rng rng(3);
        for (int step = 0; step < 24; ++step) {
            const Leaf leaf{
                static_cast<std::uint32_t>(rng.below(leaves.value()))};
            for (OramScheme *s : {scheme.get(), twin.get()}) {
                s->readPath(leaf);
                s->writePath(leaf);
            }
            ASSERT_EQ(scheme->dummyAccess(), twin->dummyAccess());
        }
        EXPECT_GE(scheme->pathReads(), 48u);
        EXPECT_EQ(tree.chunksMaterialized(), 0u);

        // One block for each of levels 0-7 of the next eviction path:
        // a block whose leaf first differs from the path's at level
        // l + 1 can go no deeper than level l. Levels 0-7 are buckets
        // 0-254, all in chunk 0.
        const Leaf next = twin->dummyAccess();
        for (std::uint32_t l = 0; l < 8; ++l) {
            const BlockId id{l};
            pos_map.setLeaf(id,
                            Leaf{next.value() ^ (1u << (levels - 1 - l))});
            ASSERT_TRUE(scheme->stash().insert(id, 100 + l));
        }
        ASSERT_EQ(scheme->dummyAccess(), next);
        EXPECT_EQ(scheme->stash().size(), 0u);
        EXPECT_EQ(tree.countRealBlocks(), 8u);
        for (std::uint32_t l = 0; l < 8; ++l) {
            EXPECT_EQ(tree.slotId(scheme->nodeOnPath(next, Level{l}), 0),
                      BlockId{l});
        }
        EXPECT_EQ(tree.chunksMaterialized(), 1u);
        EXPECT_TRUE(tree.materialized(0));
    }
}

} // namespace
} // namespace proram
