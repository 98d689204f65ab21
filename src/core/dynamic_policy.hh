/**
 * @file
 * PrORAM's dynamic super block scheme (paper Sec. 4): merge and break
 * counters materialized from per-block bits in the position map
 * (Fig. 4), Algorithm 1 (merge), Algorithm 2 (break), and the static /
 * adaptive thresholding of Sec. 4.4 with merge-side hysteresis.
 */

#ifndef PRORAM_CORE_DYNAMIC_POLICY_HH
#define PRORAM_CORE_DYNAMIC_POLICY_HH

#include "core/policy.hh"

namespace proram
{

/** Knobs of the dynamic scheme (defaults = paper configuration). */
struct DynamicPolicyConfig
{
    /** Maximum super block size (Table 1 default: 2; Fig. 7 sweeps). */
    std::uint32_t maxSbSize = 2;

    /** How the merge threshold is computed (Sec. 4.4). */
    enum class MergeThreshold { Static, Adaptive };
    MergeThreshold mergeThreshold = MergeThreshold::Adaptive;

    /** Whether/how super blocks break (Fig. 6b ablates None). */
    enum class BreakMode { None, Static, Adaptive };
    BreakMode breakMode = BreakMode::Adaptive;

    /** Coefficients C of Eq. 1 for merge and break (Fig. 10). */
    double cMerge = 1.0;
    double cBreak = 1.0;

    /** Floor for the prefetch hit rate in Eq. 1 (avoids div-by-~0). */
    double minPrefetchHitRate = 0.05;

    /**
     * log2 of the member stride (the paper's Sec. 6.2 future-work
     * extension): 0 groups contiguous blocks; s groups blocks 2^s
     * apart, exploiting column-major/strided locality. Constraint:
     * maxSbSize << strideLog must fit in one position-map block.
     */
    std::uint32_t strideLog = 0;

    bool operator==(const DynamicPolicyConfig &) const = default;
};

/**
 * The dynamic super block policy. All persistent state lives in the
 * position-map entries (leaf, sbSizeLog, merge/break/prefetch/hit
 * bits), mirroring the paper's "counters are stored in the position
 * map ORAM" design; the policy object holds only the windowed rates
 * for adaptive thresholding.
 */
class DynamicSuperBlockPolicy : public SuperBlockPolicy
{
  public:
    DynamicSuperBlockPolicy(UnifiedOram &oram, const LlcProbe &llc,
                            const DynamicPolicyConfig &cfg);

    AccessDecision onDataAccess(BlockId requested,
                                bool is_writeback) override;
    void onEpoch(double eviction_rate, double access_rate) override;

    const DynamicPolicyConfig &config() const { return cfg_; }

    /** Current Eq. 1 value for a given super block size (testing). */
    double adaptiveThreshold(std::uint32_t sbsize, double c) const;
    /** Merge threshold incl. hysteresis (+sbsize) for size @p n. */
    double mergeThreshold(std::uint32_t n) const;
    /** Break threshold for a super block of size @p m. */
    double breakThreshold(std::uint32_t m) const;

    /** Counter plumbing, public for tests: counters are bit-sliced
     *  across the members' position-map entries (Fig. 4). */
    std::uint32_t readMergeCounter(BlockId pair_base,
                                   std::uint32_t n) const;
    void writeMergeCounter(BlockId pair_base, std::uint32_t n,
                           std::uint32_t value);
    std::uint32_t readBreakCounter(BlockId base, std::uint32_t m) const;
    void writeBreakCounter(BlockId base, std::uint32_t m,
                           std::uint32_t value);

    static std::uint32_t counterMax(std::uint32_t bits);
    /** Initial break-counter value: 2m clamped into m bits. */
    static std::uint32_t initialBreakCounter(std::uint32_t m);

  private:
    /** Algorithm 2. @return true if the super block was broken (and
     *  the requested half re-targeted into @p base / @p n). */
    bool applyBreakScheme(BlockId requested, BlockId &base,
                          std::uint32_t &n,
                          const std::vector<BlockId> &members,
                          const std::vector<bool> &in_llc);

    /** Algorithm 1. */
    void applyMergeScheme(BlockId base, std::uint32_t n);

    bool neighborCoherent(BlockId nbase, std::uint32_t n) const;

    DynamicPolicyConfig cfg_;

    /** onDataAccess scratch, reused across accesses so the hot path
     *  makes no allocations once warmed up. */
    std::vector<BlockId> membersScratch_;
    std::vector<bool> inLlcScratch_;

    /** Windowed inputs to Eq. 1, refreshed by onEpoch(). */
    double evictionRate_ = 0.0;
    double accessRate_ = 0.0;
    double prefetchHitRate_ = 1.0;
    std::uint64_t epochHitsBase_ = 0;
    std::uint64_t epochMissesBase_ = 0;
};

} // namespace proram

#endif // PRORAM_CORE_DYNAMIC_POLICY_HH
