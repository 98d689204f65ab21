/**
 * @file
 * Two-level cache hierarchy (private L1 + shared, inclusive LLC)
 * matching the Table 1 configuration: 32 KB 4-way L1, 512 KB 8-way L2,
 * 128-byte lines.
 */

#ifndef PRORAM_MEM_CACHE_HIERARCHY_HH
#define PRORAM_MEM_CACHE_HIERARCHY_HH

#include <vector>

#include "mem/cache.hh"
#include "stats/stats.hh"
#include "util/types.hh"

namespace proram
{

/** Where a demand access was satisfied. */
enum class HitLevel : std::uint8_t { L1, L2, Miss };

/** Timing + geometry configuration of the hierarchy. */
struct HierarchyConfig
{
    CacheConfig l1{32 * 1024, 4, 128};
    CacheConfig l2{512 * 1024, 8, 128};
    Cycles l1Latency{1};
    Cycles l2Latency{10};

    bool operator==(const HierarchyConfig &) const = default;
};

/**
 * L1 + inclusive LLC. The LLC is the level the ORAM controller
 * interacts with: super-block prefetches are inserted here and the
 * merge scheme probes its tag array for neighbour residency.
 */
class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const HierarchyConfig &cfg);

    /**
     * Demand access from the core.
     * @return the level that hit (Miss if memory must be accessed).
     */
    HitLevel lookup(BlockId block, OpType op);

    /**
     * Install a demand-fetched line in both levels.
     * @return LLC victims that must be written back (dirty only).
     */
    std::vector<EvictedLine> fillFromMemory(BlockId block, bool dirty);

    /**
     * Install a prefetched line in the LLC only. A prefetch never
     * forces a write-back: if the victim would be dirty, the
     * insertion is dropped instead (standard prefetch etiquette -
     * displacing dirty data would turn a free prefetch into a full
     * memory write).
     * @return true if the line was installed.
     */
    bool insertPrefetch(BlockId block);

    /** Tag-only residency test against the LLC (merge scheme). */
    bool probeLlc(BlockId block) const;

    /** Latency of a hit at the given level. */
    Cycles hitLatency(HitLevel level) const;

    const SetAssocCache &l1() const { return l1_; }
    const SetAssocCache &llc() const { return l2_; }

    /** Named-statistics view (hit/miss/eviction counters). */
    stats::StatGroup buildStatGroup() const;

    /**
     * Flush every dirty LLC line (end-of-run drain).
     * @return the dirty blocks, for the final write-back accounting.
     */
    std::vector<BlockId> drainDirty();

  private:
    /** Evict @p victim from the LLC: back-invalidate L1 (inclusion). */
    EvictedLine reconcileVictim(const EvictedLine &victim);

    HierarchyConfig cfg_;
    SetAssocCache l1_;
    SetAssocCache l2_;
};

} // namespace proram

#endif // PRORAM_MEM_CACHE_HIERARCHY_HH
