/**
 * @file
 * Super-block prefetch policy interface. The ORAM controller performs
 * the mechanical part of every access (pos-map walk, path read/write,
 * background eviction, timing); the policy decides, *between* the path
 * read and the write-back, how blocks are remapped and regrouped, and
 * which siblings are handed to the LLC as prefetches.
 */

#ifndef PRORAM_CORE_POLICY_HH
#define PRORAM_CORE_POLICY_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "oram/unified_oram.hh"
#include "stats/stats.hh"
#include "util/types.hh"

namespace proram
{

/** Tag-array probe into the LLC (paper Sec. 4.5.2). */
class LlcProbe
{
  public:
    virtual ~LlcProbe() = default;
    virtual bool probe(BlockId block) const = 0;
};

/** What the policy decided for one data access. */
struct AccessDecision
{
    /** Sibling blocks to insert into the LLC as prefetches. */
    std::vector<BlockId> prefetches;
};

/** Aggregated policy statistics (feeds Figs. 6-10). */
struct PolicyStats
{
    std::uint64_t prefetchHits = 0;
    std::uint64_t prefetchMisses = 0;
    std::uint64_t merges = 0;
    std::uint64_t breaks = 0;
    std::uint64_t blocksPrefetched = 0;

    double missRate() const
    {
        const std::uint64_t total = prefetchHits + prefetchMisses;
        return total == 0 ? 0.0
                          : static_cast<double>(prefetchMisses) / total;
    }
};

/** The PolicyStats counters the controller's stat group shows. */
inline constexpr stats::Field<PolicyStats> kPolicyStatFields[] = {
    {"merges", "super blocks merged (Alg. 1)", &PolicyStats::merges},
    {"breaks", "super blocks broken (Alg. 2)", &PolicyStats::breaks},
    {"prefetchHits", "super-block prefetches used",
     &PolicyStats::prefetchHits},
};

/**
 * Base class of the three schemes the paper compares: baseline (no
 * super blocks), static super block, and PrORAM's dynamic super block.
 */
class SuperBlockPolicy
{
  public:
    SuperBlockPolicy(UnifiedOram &oram, const LlcProbe &llc)
        : oram_(oram), llc_(llc)
    {
    }
    virtual ~SuperBlockPolicy() = default;

    /**
     * Called while the requested block's super block sits in the
     * stash, after the path read and before the write-back. Must
     * remap every member (Path ORAM step 4).
     *
     * @param requested the demanded data block
     * @param is_writeback LLC victim write-back (remap-only: no
     *        prefetching and no learning, see DESIGN.md)
     */
    virtual AccessDecision onDataAccess(BlockId requested,
                                        bool is_writeback) = 0;

    /** The core demand-touched @p block in the cache hierarchy
     *  ("In Processor ... b.hit = true", Algorithm 2). */
    virtual void onDemandTouch(BlockId block);

    /** The LLC refused the prefetch insertion (dirty victim): undo
     *  the prefetch marking - the block was never cached. */
    virtual void onPrefetchDropped(BlockId block);

    /** Controller feedback for adaptive thresholding (Sec. 4.4.2);
     *  called once per epoch. */
    virtual void onEpoch(double eviction_rate, double access_rate)
    {
        (void)eviction_rate;
        (void)access_rate;
    }

    const PolicyStats &policyStats() const { return stats_; }

  protected:
    /** Remap every member of the group to one fresh random leaf. */
    void remapGroup(const std::vector<BlockId> &members);

    /**
     * Consume the prefetch/hit bits of the members "coming from ORAM"
     * (not LLC-resident), accounting hits/misses, clearing prefetch
     * bits, and returning the counter delta (+hits - misses) for the
     * break scheme.
     */
    int consumePrefetchBits(const std::vector<BlockId> &members,
                            const std::vector<bool> &in_llc);

    /** Mark @p block as freshly prefetched (prefetch=1, hit=0). */
    void markPrefetched(BlockId block);

    UnifiedOram &oram_;
    const LlcProbe &llc_;
    PolicyStats stats_;
};

/** Baseline: every block is its own super block; remap-and-return. */
class BaselinePolicy : public SuperBlockPolicy
{
  public:
    using SuperBlockPolicy::SuperBlockPolicy;

    AccessDecision onDataAccess(BlockId requested,
                                bool is_writeback) override;
};

} // namespace proram

#endif // PRORAM_CORE_POLICY_HH
