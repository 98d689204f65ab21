/**
 * @file
 * The Path ORAM binary-tree storage: one contiguous record per bucket,
 * living in (simulated) untrusted DRAM (DESIGN.md Sec. 12).
 *
 * Node numbering is heap order: node 0 is the root; node n has children
 * 2n+1 / 2n+2. Leaf label s in [0, 2^L) names the leaf reached by
 * following s's bits from the root; path s is the L+1 buckets from the
 * root to that leaf. Node indices are the *public* coordinates of the
 * protocol (the server sees every bucket touched), so they carry their
 * own strong type (TreeIdx) distinct from the secret leaf labels that
 * select them - confusing the two is a compile error.
 *
 * Memory layout (DESIGN.md Sec. 12): bucket b is one record of 2Z
 * words - its Z slot ids, then its Z payloads (48 B at Z=3), so a
 * bucket costs one or two cache lines. A slot stores its block id
 * plus one: an empty slot reads as zero, a zero-filled record is an
 * empty bucket, and occupancy is a scan of the record's own id words.
 * Records are grouped into chunks of kChunkBuckets consecutive
 * buckets behind a directory of one pointer per chunk. An eager tree
 * takes every chunk from one zero-initialized allocation made at
 * construction and advised for transparent huge pages before it is
 * zeroed (util/huge_pages.hh). An on-demand tree
 * (OramConfig::lazyInit) points every chunk at one shared zero chunk
 * until the chunk's first write allocates it, which is what makes
 * paper-scale (2^26-block) trees affordable: reads never allocate,
 * only writes (tryPlace, fillEmptyBucket and the raw test setters) do.
 */

#ifndef PRORAM_ORAM_TREE_HH
#define PRORAM_ORAM_TREE_HH

#include <bit>
#include <cstdint>
#include <memory>

#include "util/annotations.hh"
#include "util/huge_pages.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace proram
{

class BinaryTree;

/**
 * Lightweight view of one bucket of the tree. Cheap to construct (a
 * pointer + node index). The raw setters exist for tests that corrupt
 * state deliberately.
 */
class BucketRef
{
  public:
    std::uint32_t z() const;

    BlockId id(std::uint32_t i) const;
    std::uint64_t data(std::uint32_t i) const;
    bool isDummy(std::uint32_t i) const { return id(i) == kInvalidBlock; }

    /** Real (non-dummy) blocks resident (a scan of the Z ids). */
    std::uint32_t occupancy() const;

    /** Free slots available via tryPlace(). */
    std::uint32_t freeSlots() const;

    /**
     * Place a real block into the first dummy slot. @return false if
     * the bucket is full.
     */
    bool tryPlace(BlockId id, std::uint64_t data);

    /** Evict slot @p i back to dummy, releasing it for reuse. */
    void clearSlot(std::uint32_t i);

    /** @name Raw slot writes (test/corruption interface).
     *  Unlike tryPlace they may overwrite a real block or plant a
     *  second copy; a write materializes the owning chunk. @{ */
    void setRawId(std::uint32_t i, BlockId id);
    void setRawData(std::uint32_t i, std::uint64_t data);
    /** @} */

  private:
    friend class BinaryTree;
    BucketRef(BinaryTree *tree, TreeIdx node) : tree_(tree), node_(node)
    {
    }

    BinaryTree *tree_;
    TreeIdx node_;
};

/**
 * The complete binary tree of bucket records. Provides path geometry
 * helpers used by the ORAM engine and by the invariant checker.
 *
 * Read accessors (record/slotId/slotData/occupancy/freeSlots) never
 * allocate: an unwritten chunk of an on-demand tree answers from the
 * shared zero chunk. Writes (tryPlace, fillEmptyBucket, the raw
 * setters) allocate the owning chunk on first touch; clearSlot and
 * emptyBucketInto only ever write a bucket that holds a block, so they
 * never allocate.
 */
class BinaryTree
{
  public:
    /** log2 of the buckets per chunk: 256 buckets, 12 KiB of records
     *  at Z=3. */
    static constexpr std::uint32_t kChunkShift = 8;
    static constexpr std::uint64_t kChunkBuckets = 1ULL << kChunkShift;
    static constexpr std::uint64_t kChunkMask = kChunkBuckets - 1;

    /** How chunks are backed (OramConfig::lazyInit picks OnDemand). */
    enum class Storage : std::uint8_t
    {
        Eager,    ///< every chunk from one allocation at construction
        OnDemand, ///< a chunk is allocated by its first write
    };

    /** @param levels L: root is level 0, leaves level L. */
    BinaryTree(std::uint32_t levels, std::uint32_t z,
               Storage storage = Storage::Eager);

    std::uint32_t levels() const { return levels_; }
    /** One past the deepest level: Level{0} .. leafLevel(). */
    Level leafLevel() const { return Level{levels_}; }
    std::uint64_t numLeaves() const { return 1ULL << levels_; }
    std::uint64_t numBuckets() const { return numBuckets_; }
    std::uint32_t z() const { return z_; }

    /** Heap index of the bucket at @p level on path @p leaf. */
    TreeIdx nodeOnPath(Leaf leaf, Level level) const
    {
        panic_if(leaf.value() >= numLeaves(), "leaf ", leaf,
                 " out of range");
        panic_if(level.value() > levels_, "level ", level,
                 " out of range");
        // Heap level l spans indices [2^l - 1, 2^(l+1) - 2] and the
        // path node within it is indexed by the top `level` bits of
        // the leaf label, so the bit-by-bit walk collapses to one
        // shift-and-add.
        return TreeIdx{((1ULL << level.value()) - 1) +
                       (static_cast<std::uint64_t>(leaf.value()) >>
                        (levels_ - level.value()))};
    }

    /** Heap index of @p node's parent (meaningless for the root). */
    static TreeIdx parentOf(TreeIdx node)
    {
        return TreeIdx{(node.value() - 1) >> 1};
    }

    /** View of bucket @p node. */
    BucketRef bucket(TreeIdx node) { return BucketRef(this, node); }
    BucketRef bucket(TreeIdx node) const
    {
        return BucketRef(const_cast<BinaryTree *>(this), node);
    }

    /** @name Bucket records (hot path). @{ */

    /** Bucket @p node's record: Z stored ids (block id + 1, 0 for a
     *  dummy slot), then Z payloads. Never allocates. */
    const std::uint64_t *record(TreeIdx node) const
    {
        const std::uint64_t n = node.value();
        return chunks_[n >> kChunkShift] + (n & kChunkMask) * 2 * z_;
    }

    BlockId slotId(TreeIdx node, std::uint32_t i) const
    {
        return decodeId(record(node)[i]);
    }
    std::uint64_t slotData(TreeIdx node, std::uint32_t i) const
    {
        return record(node)[z_ + i];
    }

    /** Real blocks in @p node (a scan of its Z stored ids). */
    std::uint32_t occupancy(TreeIdx node) const
    {
        const std::uint64_t *rec = record(node);
        std::uint32_t n = 0;
        for (std::uint32_t i = 0; i < z_; ++i)
            n += rec[i] != 0 ? 1 : 0;
        return n;
    }
    std::uint32_t freeSlots(TreeIdx node) const
    {
        return z_ - occupancy(node);
    }

    /**
     * Start loading bucket @p node's record into the cache, for
     * writing. A record may straddle two lines, so both ends are
     * prefetched. Never allocates. Always inlined: out of line, gcc
     * finds the body free of side effects (a prefetch does not count)
     * and deletes the call, prefetch and all.
     */
    PRORAM_OBLIVIOUS PRORAM_HOT __attribute__((always_inline)) void
    prefetchBucket(TreeIdx node) const
    {
        const std::uint64_t *rec = record(node);
        __builtin_prefetch(rec, 1);
        __builtin_prefetch(rec + 2 * z_ - 1, 1);
    }

    /**
     * Move bucket @p node's real blocks out, in slot order, to places
     * @p n on of @p ids and @p payloads, and leave the bucket empty.
     * @return @p n plus the blocks moved. @p seen is called with every
     * slot's id (kInvalidBlock for a dummy slot). No branch per slot:
     * each slot is copied to the next place, which it keeps only if it
     * held a block, so both arrays need room for Z entries from @p n
     * on. Only a bucket that held a block is written - the zero stores
     * of an empty one, such as every bucket of an unwritten chunk, go
     * to a spare record - so this never allocates.
     */
    template <typename Seen>
    PRORAM_OBLIVIOUS PRORAM_HOT __attribute__((always_inline)) std::uint32_t
    emptyBucketInto(TreeIdx node, BlockId *ids, std::uint64_t *payloads,
                    std::uint32_t n, Seen &&seen)
    {
        std::uint64_t *const spare = spare_.get();
        std::uint64_t *const rec = mutableRecord(node);
        std::uint64_t held = 0;
        for (std::uint32_t i = 0; i < z_; ++i)
            held |= rec[i];
        std::uint64_t *const emptied = held != 0 ? rec : spare;
        for (std::uint32_t i = 0; i < z_; ++i) {
            const std::uint64_t stored = rec[i];
            const BlockId id = decodeId(stored);
            ids[n] = id;
            payloads[n] = rec[z_ + i];
            seen(id);
            n += stored != 0 ? 1 : 0;
            emptied[i] = 0;
            emptied[z_ + i] = 0;
        }
        return n;
    }

    /**
     * Fill bucket @p node, which should be empty, with @p k <= Z
     * blocks: slot i takes the (id, payload) pair take(i) returns if
     * i < k and is left dummy otherwise. take is called for every
     * slot, i = 0 .. Z-1 in order, and its result is masked off for
     * i >= k, so the loop has no branch per slot. Allocates the owning
     * chunk if it is still unwritten, so call it only for a bucket
     * that takes a block. @return whether the bucket held a block
     * before the fill (the fill overwrote it).
     */
    template <typename Take>
    PRORAM_OBLIVIOUS PRORAM_HOT __attribute__((always_inline)) bool
    fillEmptyBucket(TreeIdx node, std::uint32_t k, Take &&take)
    {
        // z in a local: take may store through a pointer that could
        // alias z_, which would reload it every trip.
        const std::uint32_t z = z_;
        std::uint64_t *const rec = writableRecord(node);
        std::uint64_t held = 0;
        for (std::uint32_t i = 0; i < z; ++i) {
            const auto [id, data] = take(i);
            const std::uint64_t keep = 0 - std::uint64_t{i < k};
            held |= rec[i];
            rec[i] = encodeId(id) & keep;
            rec[z + i] = data & keep;
        }
        return held != 0;
    }

    /** Place a block in the first dummy slot of @p node; false if the
     *  bucket is full. Allocates the owning chunk on first write. */
    bool tryPlace(TreeIdx node, BlockId id, std::uint64_t data)
    {
        std::uint64_t *rec = writableRecord(node);
        for (std::uint32_t i = 0; i < z_; ++i) {
            if (rec[i] != 0) // real block
                continue;
            rec[i] = encodeId(id);
            rec[z_ + i] = data;
            return true;
        }
        return false;
    }

    /** Evict slot @p i of @p node back to dummy (a no-op on a dummy
     *  slot). */
    void clearSlot(TreeIdx node, std::uint32_t i)
    {
        std::uint64_t *rec = mutableRecord(node);
        if (rec[i] == 0)
            return;
        rec[i] = 0;
        rec[z_ + i] = 0;
    }

    /** @} */

    /**
     * Deepest level at which paths @p a and @p b share a bucket
     * (their lowest common ancestor's level): the level a stash block
     * mapped to @p a can be evicted to on path @p b.
     */
    PRORAM_OBLIVIOUS PRORAM_HOT Level commonLevel(Leaf a, Leaf b) const
    {
        // Paths diverge at the highest differing leaf bit: the shared
        // depth is levels_ minus the XOR's bit width (equal labels
        // share the whole path). The width is taken of 2 * diff + 1,
        // which is never zero, so it needs no zero test - and no
        // branch - where the target has no lzcnt.
        const std::uint64_t diff = a ^ b;
        const auto width = std::bit_width((diff << 1) | 1) - 1;
        return Level{levels_ - static_cast<std::uint32_t>(width)};
    }

    /** Total real blocks stored in the tree, by scanning the
     *  allocated chunks (tests and checks only). */
    std::uint64_t countRealBlocks() const;

    /** @name Chunk geometry and materialization telemetry (the
     *  `arena*` stats and trace events). @{ */
    std::uint64_t numChunks() const { return numChunks_; }
    /** Record bytes of one chunk. */
    std::uint64_t chunkBytes() const
    {
        return chunkWords() * sizeof(std::uint64_t);
    }
    bool materialized(std::uint64_t chunk) const
    {
        return chunks_[chunk] != zeroChunk_.get();
    }
    std::uint64_t chunksMaterialized() const
    {
        return chunksMaterialized_;
    }
    /** Record bytes of materialized chunks (chunk granularity). */
    std::uint64_t bytesResident() const
    {
        return chunksMaterialized_ * chunkBytes();
    }
    /** Record bytes if every chunk were materialized (eager cost). */
    std::uint64_t bytesTotal() const { return numChunks_ * chunkBytes(); }
    /** @} */

  private:
    friend class BucketRef;

    std::uint64_t chunkWords() const { return kChunkBuckets * 2 * z_; }

    /** The stored form of @p id in a record's id words (id + 1, so a
     *  dummy slot is 0). */
    static std::uint64_t encodeId(BlockId id) { return id.value() + 1; }
    /** The inverse of encodeId; a stored 0 decodes to kInvalidBlock. */
    static BlockId decodeId(std::uint64_t stored)
    {
        return BlockId{stored - 1};
    }

    /** Record of @p node for writes that only ever touch a bucket
     *  holding a block (never one of the shared zero chunk). */
    std::uint64_t *mutableRecord(TreeIdx node)
    {
        return const_cast<std::uint64_t *>(record(node));
    }

    /** Record of @p node for any write: allocates the owning chunk
     *  if it is still the shared zero chunk. */
    std::uint64_t *writableRecord(TreeIdx node)
    {
        const std::uint64_t chunk = node.value() >> kChunkShift;
        if (!materialized(chunk))
            materialize(chunk);
        return mutableRecord(node);
    }

    /** First write into an unwritten chunk of an on-demand tree. */
    void materialize(std::uint64_t chunk);

    void setRawId(TreeIdx node, std::uint32_t i, BlockId id)
    {
        writableRecord(node)[i] = encodeId(id);
    }
    void setRawData(TreeIdx node, std::uint32_t i, std::uint64_t data)
    {
        writableRecord(node)[z_ + i] = data;
    }

    std::uint32_t levels_;
    std::uint32_t z_;
    std::uint64_t numBuckets_;
    std::uint64_t numChunks_;
    /** Chunk directory: one record-array pointer per chunk. */
    std::unique_ptr<std::uint64_t *[]> chunks_;
    /** Eager: every chunk's records, back to back, huge-page
     *  advised. */
    HugeArray<std::uint64_t> eager_;
    /** On demand: the read-only chunk unwritten chunks point at, and
     *  the chunks allocated so far (null until written). */
    std::unique_ptr<std::uint64_t[]> zeroChunk_;
    std::unique_ptr<std::unique_ptr<std::uint64_t[]>[]> owned_;
    std::uint64_t chunksMaterialized_ = 0;
    /** One record's worth of words that emptyBucketInto's zero stores
     *  for an empty bucket go to. */
    std::unique_ptr<std::uint64_t[]> spare_;
};

inline std::uint32_t
BucketRef::z() const
{
    return tree_->z_;
}

inline BlockId
BucketRef::id(std::uint32_t i) const
{
    return tree_->slotId(node_, i);
}

inline std::uint64_t
BucketRef::data(std::uint32_t i) const
{
    return tree_->slotData(node_, i);
}

inline std::uint32_t
BucketRef::occupancy() const
{
    return tree_->occupancy(node_);
}

inline std::uint32_t
BucketRef::freeSlots() const
{
    return tree_->freeSlots(node_);
}

inline bool
BucketRef::tryPlace(BlockId id, std::uint64_t data)
{
    return tree_->tryPlace(node_, id, data);
}

inline void
BucketRef::clearSlot(std::uint32_t i)
{
    tree_->clearSlot(node_, i);
}

inline void
BucketRef::setRawId(std::uint32_t i, BlockId id)
{
    tree_->setRawId(node_, i, id);
}

inline void
BucketRef::setRawData(std::uint32_t i, std::uint64_t data)
{
    tree_->setRawData(node_, i, data);
}

} // namespace proram

#endif // PRORAM_ORAM_TREE_HH
