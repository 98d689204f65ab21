/**
 * @file
 * The on-chip stash: blocks read from the tree that have not yet been
 * evicted back. Path ORAM's invariant is that a block mapped to leaf s
 * is either on path s or in the stash.
 *
 * Storage is one dense insertion-ordered array in structure-of-arrays
 * form: three parallel lanes (block ids, cached leaves, payload words)
 * share slot numbering, and slots [0, size()) are exactly the
 * resident blocks - there are no dead slots. The id -> slot index is
 * not a hash table: it is PosEntry::stashSlot in the position map the
 * stash is built over, which every access loads anyway for the
 * block's leaf. A path read enters the stash as one bulk append.
 * Removal is one stable pass that keeps the survivors' relative order
 * (iteration order stays insertion order - the determinism the
 * eviction placements and replay tests rely on) and rewrites
 * stashSlot for the blocks that moved; it starts at the first removed
 * slot, since the slots below it do not move (compactFrom; eviction
 * runs it once per path). The leaf lane is what the eviction scan
 * streams: OramScheme::evictGreedy reads one contiguous Leaf array
 * with no per-entry struct stride. Cached leaves mirror the
 * position map (PositionMap::setLeaf writes through the slot), so
 * eviction never does a position-map lookup per block per access.
 */

#ifndef PRORAM_ORAM_STASH_HH
#define PRORAM_ORAM_STASH_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "oram/position_map.hh"
#include "stats/stats.hh"
#include "util/annotations.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace proram
{

/** Snapshot view of one resident stash block (assembled from the SoA
 *  lanes; not the storage format). */
struct StashEntry
{
    BlockId id = kInvalidBlock;
    Leaf leaf = kInvalidLeaf;
    std::uint64_t data = 0;
};

/**
 * Dense block store with occupancy statistics, indexed through the
 * position map it is built over (which must outlive it). The capacity
 * is a soft threshold consulted by the controller to trigger
 * background eviction - the stash itself never refuses an insertion
 * (hardware would deadlock; the controller's job is to keep it small).
 *
 * Pointers returned by findData() and the lane pointers are
 * invalidated by insert() and by any removal.
 */
class Stash
{
  public:
    Stash(std::uint32_t capacity, PositionMap &pos_map);
    ~Stash();

    Stash(const Stash &) = delete;
    Stash &operator=(const Stash &) = delete;

    /** Add a block under its current position-map leaf. @return false
     *  if already present (the existing entry is left untouched). */
    PRORAM_OBLIVIOUS PRORAM_HOT bool insert(BlockId id,
                                            std::uint64_t data)
    {
        PosEntry &e = posMap_.entry(id);
        if (e.stashSlot != kNoStashSlot)
            return false;
        if (size_ == ids_.size())
            grow();
        e.stashSlot = size_;
        ids_[size_] = id;
        leaves_[size_] = e.leaf;
        data_[size_] = data;
        ++size_;
        return true;
    }

    /**
     * Add the blocks ids[k] with payloads data[k], in order, each under
     * its current position-map leaf - the inserts of a whole path in
     * one pass, with the lanes, the size and the position map's base
     * in locals. Panics if an id is outside the position map, and if
     * a block is already present (including twice in @p ids): a
     * second copy in the tree and the stash.
     */
    PRORAM_OBLIVIOUS PRORAM_HOT void append(std::span<const BlockId> ids,
                                            const std::uint64_t *data)
    {
        const auto n = static_cast<std::uint32_t>(ids.size());
        std::uint64_t top = 0;
        for (std::uint32_t k = 0; k < n; ++k)
            top = std::max(top, ids[k].value());
        panic_if(n != 0 && top >= posMap_.size(), "pos-map index ", top,
                 " out of range");
        while (size_ + n > ids_.size())
            grow();
        PosEntry *const map = posMap_.entries();
        BlockId *const lane_ids = ids_.data();
        Leaf *const lane_leaves = leaves_.data();
        std::uint64_t *const lane_data = data_.data();
        std::uint32_t size = size_;
        for (std::uint32_t k = 0; k < n; ++k) {
            PosEntry &e = map[ids[k].value()];
            panic_if(e.stashSlot != kNoStashSlot, "block ", ids[k],
                     " duplicated between tree and stash");
            e.stashSlot = size;
            lane_ids[size] = ids[k];
            lane_leaves[size] = e.leaf;
            lane_data[size] = data[k];
            ++size;
        }
        size_ = size;
    }

    bool contains(BlockId id) const
    {
        return posMap_.entry(id).stashSlot != kNoStashSlot;
    }

    /** @return pointer to the block's payload word or nullptr.
     *  Invalidated by any mutating call. */
    std::uint64_t *findData(BlockId id)
    {
        const std::uint32_t slot = posMap_.entry(id).stashSlot;
        return slot == kNoStashSlot ? nullptr : &data_[slot];
    }

    /** Cached leaf of @p id, or kInvalidLeaf if not resident. */
    Leaf leafOf(BlockId id) const
    {
        const std::uint32_t slot = posMap_.entry(id).stashSlot;
        return slot == kNoStashSlot ? kInvalidLeaf : leaves_[slot];
    }

    /** Remove a block (one stable pass over the slots behind it).
     *  @return true if it was present. */
    bool erase(BlockId id);

    /**
     * Remove every slot s >= @p first with drop(s) true in one stable
     * pass: survivors keep their relative order, the blocks from
     * @p first on get their PosEntry::stashSlot rewritten and the
     * removed blocks get kNoStashSlot. The slots below @p first must
     * all survive; they are not visited. Panics if a visited slot and
     * its block's stashSlot disagree (the index is corrupt). drop is
     * evaluated once per slot, in slot order, before any lane changes
     * at that slot. The pass has no branch per slot: every visited
     * slot is copied down, and a removed one is overwritten by the
     * next survivor or left past the new end.
     */
    template <typename Drop>
    PRORAM_OBLIVIOUS PRORAM_HOT void compactFrom(std::uint32_t first,
                                                 Drop &&drop)
    {
        // Every resident id passed the range check on its way in.
        PosEntry *const map = posMap_.entries();
        BlockId *const ids = ids_.data();
        Leaf *const leaves = leaves_.data();
        std::uint64_t *const data = data_.data();
        const std::uint32_t size = size_;
        std::uint32_t out = first;
        for (std::uint32_t in = first; in < size; ++in) {
            PosEntry &e = map[ids[in].value()];
            panic_if(e.stashSlot != in, "stash slot ", in, " holds block ",
                     ids[in], " but its index names slot ", e.stashSlot);
            const bool dropped = drop(in);
            e.stashSlot = dropped ? kNoStashSlot : out;
            ids[out] = ids[in];
            leaves[out] = leaves[in];
            data[out] = data[in];
            out += dropped ? 0 : 1;
        }
        size_ = out;
    }

    std::size_t size() const { return size_; }
    std::uint32_t capacity() const { return capacity_; }
    bool overCapacity() const { return size_ > capacity_; }

    /** @name SoA lanes (the eviction engine's hot interface).
     *  Slots [0, slotCount()) are exactly the resident blocks, in
     *  insertion order. Pointers are invalidated by any mutating
     *  call. @{ */
    std::size_t slotCount() const { return size_; }
    const BlockId *idLane() const { return ids_.data(); }
    const Leaf *leafLane() const { return leaves_.data(); }
    const std::uint64_t *dataLane() const { return data_.data(); }
    /** @} */

    /**
     * Visit every resident block without snapshotting, in insertion
     * order. @p fn is called as fn(const StashEntry &) with a view
     * assembled from the lanes; the stash must not be mutated during
     * iteration.
     */
    template <typename Fn>
    void forEachResident(Fn &&fn) const
    {
        for (std::size_t i = 0; i < size_; ++i)
            fn(StashEntry{ids_[i], leaves_[i], data_[i]});
    }

    /** Snapshot of resident ids in iteration order (invariant checks /
     *  tests only - allocates; use the lanes on hot paths). */
    std::vector<BlockId> residentIds() const
    {
        return std::vector<BlockId>(ids_.begin(), ids_.begin() + size_);
    }

    /** Record an occupancy sample (called once per eviction pass). */
    void sampleOccupancy()
    {
        occupancy_.sample(static_cast<double>(size_));
    }

    const stats::Distribution &occupancy() const { return occupancy_; }

  private:
    /** Double the lanes (cold: they start at twice the capacity). */
    void grow();

    std::uint32_t capacity_;
    PositionMap &posMap_;
    /** Parallel SoA lanes; slots [0, size_) are live, the rest is
     *  preallocated room for inserts. */
    std::vector<BlockId> ids_;
    std::vector<Leaf> leaves_;
    std::vector<std::uint64_t> data_;
    std::uint32_t size_ = 0;
    stats::Distribution occupancy_;
};

} // namespace proram

#endif // PRORAM_ORAM_STASH_HH
