#include "oram/scheme.hh"

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
    const std::size_t slot_bound =
        static_cast<std::size_t>(cfg.stashCapacity) * 2 +
        static_cast<std::size_t>(tree_.levels() + 1) * tree_.z();
    reserveScratch(slot_bound);
    const std::size_t level_slots = tree_.levels() + 2;
    pathScratch_.resize(tree_.levels() + 1);
    drainScratch_.resize(static_cast<std::size_t>(tree_.levels() + 1) *
                         tree_.z());
    histScratch_.resize(level_slots, 0);
    levelStartScratch_.resize(level_slots, 0);
    levelCursorScratch_.resize(level_slots, 0);
}

OramScheme::~OramScheme() = default;

void
OramScheme::reserveScratch(std::size_t slots)
{
    if (levelScratch_.size() < slots)
        levelScratch_.resize(slots);
    if (sortedScratch_.size() < slots)
        sortedScratch_.resize(slots);
}

PRORAM_OBLIVIOUS PRORAM_HOT void
OramScheme::drainPath(Leaf leaf)
{
    // Three passes, so the path's cache misses overlap instead of
    // forming one chain of dependent loads per bucket and per block.
    // 1. Every bucket record of the path is requested up front.
    const std::uint32_t depth = tree_.levels() + 1;
    for (std::uint32_t l = 0; l < depth; ++l) {
        pathScratch_[l] = tree_.nodeOnPath(leaf, Level{l});
        tree_.prefetchBucket(pathScratch_[l]);
    }
    // 2. The buckets are emptied into the pair scratch, and each
    //    block's position-map entry is requested as its id appears.
    std::uint32_t drained = 0;
    for (std::uint32_t l = 0; l < depth; ++l) {
        tree_.drainBucket(pathScratch_[l],
                          [this, &drained](BlockId id, std::uint64_t data) {
                              drainScratch_[drained++] = {id, data};
                              posMap_.prefetchEntry(id);
                          });
    }
    // 3. The blocks enter the stash in drain order: root to leaf, slot
    //    order within a bucket - the order the goldens pin.
    for (std::uint32_t k = 0; k < drained; ++k) {
        const auto &[id, data] = drainScratch_[k];
        panic_if(!stash_.insert(id, data), "block ", id,
                 " duplicated between tree and stash");
    }
}

PRORAM_OBLIVIOUS PRORAM_HOT void
OramScheme::evictGreedy(Leaf leaf)
{
    // Counting-sort eviction: one sweep over the contiguous leaf lane
    // classifies every stash slot's deepest eligible level
    // (BinaryTree::commonLevel) and histograms the slots per level,
    // then the slot numbers are stable-scattered into one flat array
    // grouped deepest level first. Insertion order within a level is
    // preserved: it fixes which blocks win a contended bucket, and
    // the fixed-seed goldens pin those placements.
    const std::uint32_t levels = tree_.levels();
    const std::uint32_t slots =
        static_cast<std::uint32_t>(stash_.slotCount());
    reserveScratch(slots);

    const BlockId *ids = stash_.idLane();
    const Leaf *leaves = stash_.leafLane();
    const std::uint64_t *payloads = stash_.dataLane();
    for (std::uint32_t l = 0; l <= levels; ++l)
        histScratch_[l] = 0;
    {
        PRORAM_TRACE_SCOPE_ARG("evict", "classify", "slots", slots);
        for (std::uint32_t s = 0; s < slots; ++s) {
            panic_if(leaves[s] == kInvalidLeaf, "stash block ", ids[s],
                     " has no leaf");
            const std::uint32_t l =
                tree_.commonLevel(leaves[s], leaf).value();
            levelScratch_[s] = l;
            ++histScratch_[l];
        }
    }
    std::uint32_t offset = 0;
    for (std::uint32_t l = levels + 1; l-- > 0;) {
        levelStartScratch_[l] = offset;
        levelCursorScratch_[l] = offset;
        offset += histScratch_[l];
    }
    for (std::uint32_t s = 0; s < slots; ++s)
        sortedScratch_[levelCursorScratch_[levelScratch_[s]]++] = s;

    // Fill buckets greedily from the leaf upward; unplaced deeper
    // blocks stay pooled and may still land closer to the root. The
    // pool is a stack of slot numbers kept in the already-read prefix
    // of the sorted array (it never holds more than has been read).
    // Ids and payloads come straight from the lanes, which do not
    // change until the final pass drops the placed slots.
    PRORAM_TRACE_SCOPE_ARG("evict", "scatterFill", "leaf", leaf);
    std::uint32_t *pool = sortedScratch_.data();
    std::uint32_t pooled = 0;
    for (std::uint32_t l = levels + 1; l-- > 0;) {
        const std::uint32_t start = levelStartScratch_[l];
        const std::uint32_t end = start + histScratch_[l];
        for (std::uint32_t s = start; s < end; ++s)
            pool[pooled++] = sortedScratch_[s];
        tree_.fillBucket(tree_.nodeOnPath(leaf, Level{l}), pooled,
                         [&](BlockId &id, std::uint64_t &data) {
                             const std::uint32_t s = pool[--pooled];
                             id = ids[s];
                             data = payloads[s];
                             levelScratch_[s] = kPlaced;
                         });
    }
    stash_.eraseSlotsIf(
        [this](std::uint32_t s) { return levelScratch_[s] == kPlaced; });
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
