#include "oram/scheme.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/trace.hh"
#include "oram/path_oram.hh"
#include "oram/ring_oram.hh"
#include "util/annotations.hh"
#include "util/logging.hh"

namespace proram
{

namespace
{

/** levelScratch_ mark of a slot evictGreedy placed in the tree (no
 *  real level is this large). */
constexpr std::uint32_t kPlaced = 0xFFFFFFFFu;

/** Slot numbers moved per step of the eviction's pool copy: a level's
 *  group is copied in whole steps, so the copy has one branch per
 *  step rather than per slot, and the sorted and pool scratch carry
 *  this much padding. */
constexpr std::uint32_t kPoolCopyStep = 8;

/** How many places ahead in its id list a placeInitial pass requests
 *  a bucket record: enough misses in flight to cover memory latency
 *  at a few ns of work per block. */
constexpr std::size_t kPlacePrefetchAhead = 16;

} // namespace

OramScheme::OramScheme(const OramConfig &cfg, PositionMap &pos_map)
    : cfg_(cfg), posMap_(pos_map),
      tree_(cfg.levels(), cfg.z,
            cfg.lazyInit ? BinaryTree::Storage::OnDemand
                         : BinaryTree::Storage::Eager),
      stash_(cfg.stashCapacity, pos_map),
      rng_(cfg.seed ^ 0x0aa77aa55aa33aa1ULL)
{
    // Pre-size every eviction scratch buffer from the tree geometry so
    // the first accesses after construction are allocation-free too.
    // The slot bound matches the stash lanes' initial room plus one
    // path's worth of readPath growth; reserveScratch() covers the
    // (rare) overshoot.
    const std::size_t depth = tree_.levels() + 1;
    const std::size_t slot_bound =
        static_cast<std::size_t>(cfg.stashCapacity) * 2 + depth * tree_.z();
    reserveScratch(slot_bound);
    nodeScratch_.resize(depth);
    drainIdScratch_.resize(depth * tree_.z());
    drainDataScratch_.resize(depth * tree_.z());
    histScratch_.resize(depth, 0);
    levelStartScratch_.resize(depth, 0);
}

OramScheme::~OramScheme() = default;

const SchemeCounters &
OramScheme::schemeCounters() const
{
    static const SchemeCounters none;
    return none;
}

void
OramScheme::reserveScratch(std::size_t slots)
{
    if (levelScratch_.size() < slots + 1) {
        levelScratch_.resize(slots + 1);
        rankScratch_.resize(slots + 1);
    }
    if (sortedScratch_.size() < slots + kPoolCopyStep) {
        sortedScratch_.resize(slots + kPoolCopyStep);
        poolScratch_.resize(tree_.z() + slots + kPoolCopyStep, 0);
    }
}

PRORAM_OBLIVIOUS PRORAM_HOT void
OramScheme::drainPath(Leaf leaf)
{
    // Three passes, so the path's cache misses overlap instead of
    // forming one chain of dependent loads per bucket and per block.
    // 1. Every bucket record of the path is requested up front.
    const std::uint32_t depth = tree_.levels() + 1;
    TreeIdx *nodes = nodeScratch_.data();
    for (std::uint32_t l = 0; l < depth; ++l) {
        nodes[l] = tree_.nodeOnPath(leaf, Level{l});
        tree_.prefetchBucket(nodes[l]);
    }
    // 2. The buckets are emptied into the scratch root to leaf, each
    //    in slot order, with no branch per slot or per bucket
    //    (BinaryTree::emptyBucketInto). Each slot's position-map entry
    //    is requested as its id is copied (a dummy's clamps to the
    //    map's end).
    BlockId *ids = drainIdScratch_.data();
    std::uint64_t *payloads = drainDataScratch_.data();
    std::uint32_t drained = 0;
    for (std::uint32_t l = 0; l < depth; ++l) {
        drained = tree_.emptyBucketInto(
            nodes[l], ids, payloads, drained,
            [this](BlockId id) { posMap_.prefetchEntry(id); });
    }
    // 3. The blocks enter the stash in drain order - the order the
    //    goldens pin - in one append.
    stash_.append({ids, drained}, payloads);
}

PRORAM_OBLIVIOUS PRORAM_HOT void
OramScheme::evictGreedy(Leaf leaf)
{
    // Counting-sort eviction: one sweep over the contiguous leaf lane
    // classifies every stash slot's deepest eligible level
    // (BinaryTree::commonLevel), counts the slots per level and keeps
    // each slot's rank within its level; the slot numbers are then
    // scattered straight to their places in one flat array grouped
    // deepest level first. Insertion order within a level is
    // preserved: it fixes which blocks win a contended bucket, and
    // the fixed-seed goldens pin those placements.
    const std::uint32_t levels = tree_.levels();
    const std::uint32_t z = tree_.z();
    const std::uint32_t slots =
        static_cast<std::uint32_t>(stash_.slotCount());
    reserveScratch(slots);

    const BlockId *ids = stash_.idLane();
    const Leaf *leaves = stash_.leafLane();
    const std::uint64_t *payloads = stash_.dataLane();
    std::uint32_t *level = levelScratch_.data();
    std::uint32_t *rank = rankScratch_.data();
    std::uint32_t *hist = histScratch_.data();
    std::uint32_t *start = levelStartScratch_.data();
    std::uint32_t *sorted = sortedScratch_.data();
    std::fill_n(hist, levels + 1, 0);
    {
        PRORAM_TRACE_SCOPE_ARG("evict", "classify", "slots", slots);
        for (std::uint32_t s = 0; s < slots; ++s) {
            panic_if(leaves[s] == kInvalidLeaf, "stash block ", ids[s],
                     " has no leaf");
            const std::uint32_t l =
                tree_.commonLevel(leaves[s], leaf).value();
            level[s] = l;
            rank[s] = hist[l]++;
        }
    }
    std::uint32_t offset = 0;
    for (std::uint32_t l = levels + 1; l-- > 0;) {
        start[l] = offset;
        offset += hist[l];
    }
    for (std::uint32_t s = 0; s < slots; ++s)
        sorted[start[level[s]] + rank[s]] = s;

    // Fill buckets greedily from the leaf upward; unplaced deeper
    // blocks stay pooled and may still land closer to the root. Each
    // level's group joins the top of the pool stack, and the bucket's
    // first k = min(Z, pooled) slots take the pool's top k, the last
    // pushed first - one Z-trip loop of selects per bucket. A bucket
    // that takes nothing is not touched. Ids and payloads come
    // straight from the lanes, which do not change until the final
    // pass drops the placed slots; that pass starts at the lowest
    // placed slot, since no slot below it moves.
    PRORAM_TRACE_SCOPE_ARG("evict", "scatterFill", "leaf", leaf);
    std::uint32_t *pool = poolScratch_.data() + z;
    std::uint32_t pooled = 0;
    std::uint32_t lowest = slots;
    TreeIdx node = tree_.nodeOnPath(leaf, tree_.leafLevel());
    for (std::uint32_t l = levels + 1; l-- > 0;
         node = BinaryTree::parentOf(node)) {
        const std::uint32_t *group = sorted + start[l];
        const std::uint32_t count = hist[l];
        for (std::uint32_t j = 0; j < count; j += kPoolCopyStep) {
            std::uint32_t step[kPoolCopyStep];
            std::memcpy(step, group + j, sizeof step);
            std::memcpy(pool + pooled + j, step, sizeof step);
        }
        pooled += count;
        const std::uint32_t k = std::min(z, pooled);
        if (k == 0)
            continue;

        // Slot i takes the pool entry i below the top. For i >= k that
        // entry is one of the zeros below the pool's base - slot 0 of
        // the lanes, always allocated - whose lanes are read and
        // masked off, and whose mark goes to the entry past the
        // slots.
        const std::uint32_t *top = pool + pooled - 1;
        const bool held =
            tree_.fillEmptyBucket(node, k, [&](std::uint32_t i) {
                const std::uint32_t s = *(top - i);
                const std::uint32_t placed = i < k ? s : slots;
                level[placed] = kPlaced;
                lowest = std::min(lowest, placed);
                return std::pair{ids[s], payloads[s]};
            });
        panic_if(held, "evictGreedy: bucket ", node, " of path ", leaf,
                 " held a block before the fill");
        pooled -= k;
    }
    stash_.compactFrom(
        lowest, [level](std::uint32_t s) { return level[s] == kPlaced; });
    stash_.sampleOccupancy();
}

void
OramScheme::placeInitial(std::uint64_t count,
                         std::span<const std::uint64_t> payloads)
{
    panic_if(!payloads.empty() && payloads.size() != count,
             "placeInitial: ", payloads.size(), " payloads for ", count,
             " blocks");
    // Level by level rather than block by block. A leaf-upward walk
    // would offer each block in turn to the buckets of its path,
    // deepest first, until one has a free slot. Instead, the leaf pass
    // offers every block, in id order, to its leaf bucket and keeps
    // the ids that do not fit; the pass for the next level up offers
    // only that overflow list, in order, and so on up to the root;
    // whatever overflows the root enters the stash in id order.
    //
    // Both give the same tree and stash. In either, a bucket at level
    // l is offered exactly the blocks that overflowed every deeper
    // bucket on their path, in increasing id order, and it takes them
    // into its first dummy slots until it is full: its children's
    // overflow depends only on what they were offered, in what order.
    // By induction from the leaves, the same blocks land in the same
    // slots and the same blocks reach the stash in the same order
    // (InitialPlacement.LevelByLevelMatchesLeafUpwardWalk).
    //
    // What changes is the memory access pattern. Each pass walks an
    // id-ordered list, so the bucket record of the block
    // kPlacePrefetchAhead places further on is requested early and
    // the passes' misses overlap instead of forming one dependent
    // chain per block.
    const auto leafOf = [this](BlockId id) {
        const Leaf leaf = posMap_.leafOf(id);
        panic_if(leaf == kInvalidLeaf,
                 "placeInitial before leaf assignment");
        return leaf;
    };
    const auto payloadOf = [payloads](BlockId id) -> std::uint64_t {
        return payloads.empty() ? 0 : payloads[id.value()];
    };
    const auto prefetch = [&](BlockId id, Level level) {
        tree_.prefetchBucket(tree_.nodeOnPath(leafOf(id), level));
    };
    const auto place = [&](BlockId id, Level level) {
        return tree_.tryPlace(tree_.nodeOnPath(leafOf(id), level), id,
                              payloadOf(id));
    };

    std::vector<BlockId> overflow;
    const Level leaf_level = tree_.leafLevel();
    for (std::uint64_t b = 0; b < count; ++b) {
        if (b + kPlacePrefetchAhead < count)
            prefetch(BlockId{b + kPlacePrefetchAhead}, leaf_level);
        if (!place(BlockId{b}, leaf_level))
            overflow.push_back(BlockId{b});
    }
    // The passes above the leaves filter the list in place: a level
    // keeps an ordered subsequence of the ids it reads, and its write
    // cursor never passes its read cursor.
    for (std::uint32_t l = tree_.levels(); l-- > 0 && !overflow.empty();) {
        const std::size_t n = overflow.size();
        std::size_t kept = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (i + kPlacePrefetchAhead < n)
                prefetch(overflow[i + kPlacePrefetchAhead], Level{l});
            if (!place(overflow[i], Level{l}))
                overflow[kept++] = overflow[i];
        }
        overflow.resize(kept);
    }
    for (const BlockId id : overflow)
        stash_.insert(id, payloadOf(id));
}

std::unique_ptr<OramScheme>
makeOramScheme(const OramConfig &cfg, PositionMap &pos_map)
{
    switch (cfg.resolvedScheme()) {
      case SchemeKind::Path:
        return std::make_unique<PathOram>(cfg, pos_map);
      case SchemeKind::Ring:
        return std::make_unique<RingOram>(cfg, pos_map);
      case SchemeKind::Default:
        break;
    }
    panic("unresolved ORAM scheme");
}

} // namespace proram
