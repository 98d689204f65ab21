/**
 * @file
 * The static super block scheme of Ren et al. (paper Sec. 3.3): every
 * aligned group of n = 2^k consecutive data blocks is merged at
 * initialization time and never regrouped. Accessing any member loads
 * and remaps the whole group; siblings are prefetched into the LLC.
 */

#ifndef PRORAM_CORE_STATIC_POLICY_HH
#define PRORAM_CORE_STATIC_POLICY_HH

#include "core/policy.hh"

namespace proram
{

/**
 * Static super block policy. Requires the ORAM to have been
 * initialized with the same super block size (groups pre-merged).
 * Prefetch/hit bits are still tracked - not to drive any decision
 * (there is none to make), but to report the prefetch miss rates of
 * Fig. 9.
 */
class StaticSuperBlockPolicy : public SuperBlockPolicy
{
  public:
    StaticSuperBlockPolicy(UnifiedOram &oram, const LlcProbe &llc,
                           std::uint32_t sb_size);

    AccessDecision onDataAccess(BlockId requested,
                                bool is_writeback) override;

    std::uint32_t sbSize() const { return sbSize_; }

  private:
    std::uint32_t sbSize_;
};

} // namespace proram

#endif // PRORAM_CORE_STATIC_POLICY_HH
