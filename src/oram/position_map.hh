/**
 * @file
 * Position map state plus the unified-recursion address-space layout.
 *
 * Functionally, the position map is one flat table: for every
 * tree-resident block (data blocks *and* position-map blocks) it holds
 * the current leaf, the super-block size, and the per-block metadata
 * bits of the dynamic super block scheme (merge / break / prefetch /
 * hit - paper Sec. 4.1 and 4.5.1). The *recursion* (which position-map
 * block must be on-chip to know a leaf, and which path accesses a PLB
 * miss costs) is modelled by BlockSpace + PosMapBlockCache and charged
 * by the unified ORAM front end.
 *
 * Stash index and leaf-cache coherence: each entry also records the
 * stash slot of its block (kNoStashSlot while the block is in the
 * tree), so the stash needs no hash table of its own (oram/stash.hh).
 * Stash slots cache their block's leaf so the eviction scan never
 * re-reads the position map; setLeaf() is the one mutation point for
 * leaves and writes a stash-resident block's cached copy through its
 * slot - remap call sites do not, and must not, update the stash
 * themselves.
 */

#ifndef PRORAM_ORAM_POSITION_MAP_HH
#define PRORAM_ORAM_POSITION_MAP_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "oram/config.hh"
#include "util/annotations.hh"
#include "util/huge_pages.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace proram
{

/** PosEntry::stashSlot of a block that is not in the stash. */
inline constexpr std::uint32_t kNoStashSlot = 0xFFFFFFFFu;

/** Per-block position-map entry (Fig. 4 of the paper). */
struct PosEntry
{
    Leaf leaf = kInvalidLeaf;
    /** Slot of this block in the stash lanes, or kNoStashSlot when
     *  the block is in the tree (or not yet created). Owned by
     *  Stash; the stash's id index. */
    std::uint32_t stashSlot = kNoStashSlot;
    /** log2 of the super block this block belongs to (0 = alone). */
    std::uint8_t sbSizeLog = 0;
    /** log2 of the group's member stride (0 = contiguous; Sec. 6.2
     *  strided-super-block extension). */
    std::uint8_t sbStrideLog = 0;
    /** Merge-counter bit contributed by this block. */
    bool mergeBit : 1 = false;
    /** Break-counter bit contributed by this block. */
    bool breakBit : 1 = false;
    /** Block was brought in as a prefetch (Sec. 4.3). */
    bool prefetchBit : 1 = false;
    /** Block's last prefetch was demand-used (Sec. 4.3). */
    bool hitBit : 1 = false;

    std::uint32_t sbSize() const { return 1u << sbSizeLog; }
};

// One entry per tree-resident block: at 2^26 blocks every byte here
// is 64 MB of host memory, so the stash index rides in the padding
// the four flag bits freed.
static_assert(sizeof(PosEntry) == 12, "PosEntry must stay 12 bytes");

/**
 * Unified ORAM block-id layout: data blocks first, then one contiguous
 * range per tree-resident position-map level. The last (smallest)
 * position-map table is on-chip and has no block ids.
 */
class BlockSpace
{
  public:
    explicit BlockSpace(const OramConfig &cfg);

    std::uint64_t numDataBlocks() const { return numData_; }
    std::uint64_t numTotalBlocks() const { return total_; }
    std::uint32_t posMapLevels() const
    {
        return static_cast<std::uint32_t>(levelBase_.size());
    }
    std::uint32_t fanout() const { return fanout_; }

    bool isData(BlockId id) const { return id.value() < numData_; }

    /**
     * The position-map block holding @p id's entry, or kInvalidBlock
     * if the entry lives in the on-chip table.
     */
    BlockId posMapBlockOf(BlockId id) const;

    /** Recursion level of a block: 0 = data, k = level-k pos-map. */
    std::uint32_t levelOf(BlockId id) const;

    /** First block id of pos-map level @p level (1-based). */
    BlockId levelBase(std::uint32_t level) const;

    /** Number of blocks at pos-map level @p level (1-based). */
    std::uint64_t levelCount(std::uint32_t level) const;

  private:
    std::uint64_t numData_;
    std::uint32_t fanout_;
    std::uint64_t total_;
    std::vector<BlockId> levelBase_;
    std::vector<std::uint64_t> levelCount_;
};

/** Flat functional position map over all tree-resident blocks. */
class PositionMap
{
  public:
    PositionMap(std::uint64_t num_blocks, Leaf num_leaves);

    PosEntry &entry(BlockId id)
    {
        panic_if(id.value() >= size_, "pos-map index ", id,
                 " out of range");
        return entries_[id.value()];
    }
    const PosEntry &entry(BlockId id) const
    {
        panic_if(id.value() >= size_, "pos-map index ", id,
                 " out of range");
        return entries_[id.value()];
    }

    Leaf leafOf(BlockId id) const { return entry(id).leaf; }

    /**
     * Start loading @p id's entry into the cache, for writing. An
     * out-of-range id is clamped to the end of the map, so no
     * out-of-range pointer is formed; entry() still panics on it.
     * Always inlined, like BinaryTree::prefetchBucket, so gcc cannot
     * delete the call as side-effect free.
     */
    PRORAM_OBLIVIOUS PRORAM_HOT __attribute__((always_inline)) void
    prefetchEntry(BlockId id) const
    {
        const std::uint64_t at =
            std::min<std::uint64_t>(id.value(), size_);
        __builtin_prefetch(entries_.get() + at, 1);
    }

    /**
     * Remap @p id to @p leaf. The single write point for leaves: a
     * stash-resident block's cached copy is rewritten through its
     * stash slot, so a remap made mid-access is visible to that
     * access's own eviction scan. (Writing entry(id).leaf directly
     * bypasses the stash and is a coherence bug whenever the block
     * can be stash-resident; checkIntegrity reports it.)
     */
    void setLeaf(BlockId id, Leaf leaf)
    {
        PosEntry &e = entry(id);
        e.leaf = leaf;
        if (e.stashSlot != kNoStashSlot)
            stashLeaves_[e.stashSlot] = leaf;
    }

    /** Register the stash's leaf lane as the cache setLeaf writes
     *  through. Called by Stash whenever the lane (re)allocates, and
     *  with nullptr when the stash goes away. */
    void attachLeafCache(Leaf *lane) { stashLeaves_ = lane; }

    std::uint64_t size() const { return size_; }
    Leaf numLeaves() const { return numLeaves_; }

  private:
    /** One entry per block, huge-page advised (util/huge_pages.hh). */
    HugeArray<PosEntry> entries_;
    std::uint64_t size_;
    Leaf numLeaves_;
    /** The attached stash's leaf lane, indexed by stash slot. */
    Leaf *stashLeaves_ = nullptr;
};

/**
 * PLB: fully-associative LRU cache of position-map *blocks* held
 * on-chip (Unified ORAM / Freecursive). A hit means the leaf labels of
 * that block's children are available without extra path accesses.
 * Write-back of evicted pos-map blocks is treated as free (the entry's
 * authoritative copy lives in PositionMap); DESIGN.md records this
 * simplification.
 *
 * Layout: fixed slot array with intrusive prev/next index links (the
 * LRU chain), plus a table of one slot number per position-map block:
 * the position-map blocks are one dense id range after the data
 * blocks, so id -> slot is an array index (4 B per position-map
 * block). No per-operation allocation; an LRU refresh rewires three
 * slots' links in place.
 */
class PosMapBlockCache
{
  public:
    /** @param entries capacity in blocks; the cacheable blocks are
     *  the @p num_blocks ids from @p first_block on. Any other id
     *  panics. */
    PosMapBlockCache(std::uint32_t entries, BlockId first_block,
                     std::uint64_t num_blocks);

    /** @return true if @p pm_block is cached; refreshes LRU. */
    bool lookup(BlockId pm_block);

    /** Insert (possibly evicting LRU). */
    void insert(BlockId pm_block);

    bool contains(BlockId pm_block) const;
    std::size_t size() const { return used_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

    struct Node
    {
        BlockId id = kInvalidBlock;
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
    };

    /** Index of @p pm_block in slotOf_; panics outside the range. */
    std::uint64_t indexOf(BlockId pm_block) const
    {
        const std::uint64_t i = pm_block.value() - first_.value();
        panic_if(i >= slotOf_.size(), "PLB: block ", pm_block,
                 " is not a position-map block");
        return i;
    }

    /** Unhook @p slot from the chain (it must be linked). */
    void unlink(std::uint32_t slot);
    /** Make @p slot the MRU head. */
    void linkFront(std::uint32_t slot);

    std::uint32_t capacity_;
    std::vector<Node> nodes_;
    /** Slots [0, used_) hold (or held) entries; the rest are virgin. */
    std::uint32_t used_ = 0;
    std::uint32_t head_ = kNil; // MRU
    std::uint32_t tail_ = kNil; // LRU
    BlockId first_;
    /** Slot of each cacheable block, indexed by its id minus first_;
     *  kNil when the block is not cached. */
    std::vector<std::uint32_t> slotOf_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace proram

#endif // PRORAM_ORAM_POSITION_MAP_HH
