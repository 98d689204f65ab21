/**
 * @file
 * Set-associative write-back cache with true-LRU replacement.
 *
 * All addresses at and below this level are *block ids* (byte address
 * divided by the line size); the CPU front end does the conversion.
 * The cache stores no data payloads - the simulator's functional data
 * lives in the ORAM/DRAM backends - only tags and state bits.
 */

#ifndef PRORAM_MEM_CACHE_HH
#define PRORAM_MEM_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "util/types.hh"

namespace proram
{

/** Geometry of one cache level. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 512 * 1024;
    std::uint32_t ways = 8;
    std::uint32_t lineBytes = 128;

    std::uint64_t numLines() const { return sizeBytes / lineBytes; }
    std::uint64_t numSets() const { return numLines() / ways; }

    bool operator==(const CacheConfig &) const = default;
};

/** A line pushed out of the cache by an insertion. */
struct EvictedLine
{
    BlockId block = kInvalidBlock;
    bool dirty = false;
};

/**
 * A single set-associative cache level. Lookup/insert/probe/invalidate
 * plus hit/miss statistics. probe() deliberately leaves LRU state
 * untouched: it models the tag-array-only check the dynamic super block
 * scheme performs to test whether a neighbour block is resident
 * (paper Sec. 4.5.2).
 */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheConfig &cfg);

    /**
     * Demand access. On a hit, updates LRU and the dirty bit (for
     * writes). @return true on hit.
     */
    bool access(BlockId block, OpType op);

    /** Tag-array check only; no LRU or state update. */
    bool probe(BlockId block) const;

    /** Mark a resident line dirty (used for L1 victim write-back). */
    void markDirty(BlockId block);

    /**
     * Insert a line, evicting the set's LRU victim if the set is full.
     * @param low_priority insert at LRU position instead of MRU -
     *        used for prefetches so that useless ones are evicted
     *        before demand-fetched lines (pollution control).
     * @return the victim, if one was evicted.
     */
    std::optional<EvictedLine> insert(BlockId block, bool dirty,
                                      bool low_priority = false);

    /**
     * Drop a line if present. @return the line's dirty state, or
     * nullopt if it was not resident.
     */
    std::optional<bool> invalidate(BlockId block);

    /**
     * Which line would inserting @p block evict? No state change.
     * @return nullopt if a free way (or the block itself) exists.
     */
    std::optional<EvictedLine> peekVictim(BlockId block) const;

    /** Dirty state of a resident line, nullopt if absent. */
    std::optional<bool> peekDirty(BlockId block) const;

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t dirtyEvictions() const { return dirtyEvictions_; }

    const CacheConfig &config() const { return cfg_; }

    /** Enumerate resident blocks (testing / drain support). */
    std::vector<BlockId> residentBlocks() const;

  private:
    struct Line
    {
        BlockId block = kInvalidBlock;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lruStamp = 0;
    };

    std::uint64_t setIndex(BlockId block) const;
    Line *findLine(BlockId block);
    const Line *findLine(BlockId block) const;

    CacheConfig cfg_;
    std::uint64_t numSets_;
    std::vector<Line> lines_;
    std::uint64_t lruClock_ = 0;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t dirtyEvictions_ = 0;
};

} // namespace proram

#endif // PRORAM_MEM_CACHE_HH
