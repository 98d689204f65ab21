#include "core/static_policy.hh"

#include "core/super_block.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace proram
{

StaticSuperBlockPolicy::StaticSuperBlockPolicy(UnifiedOram &oram,
                                               const LlcProbe &llc,
                                               std::uint32_t sb_size)
    : SuperBlockPolicy(oram, llc), sbSize_(sb_size)
{
    fatal_if(!isPowerOf2(sb_size), "super block size must be 2^k");
    fatal_if(sb_size > oram.space().fanout(),
             "super block cannot span position-map blocks");
}

AccessDecision
StaticSuperBlockPolicy::onDataAccess(BlockId requested, bool is_writeback)
{
    // The trailing partial group (if numDataBlocks is not a multiple
    // of sbSize) was initialized as singletons; honour the recorded
    // size rather than assuming sbSize_.
    const std::uint32_t size =
        oram_.posMap().entry(requested).sbSize();
    const auto members =
        sbMembersStrided(sbBaseStrided(requested, size, 0), size, 0);

    remapGroup(members);

    AccessDecision decision;
    if (is_writeback)
        return decision;

    std::vector<bool> in_llc(members.size());
    for (std::size_t i = 0; i < members.size(); ++i)
        in_llc[i] = llc_.probe(members[i]);

    // Bit bookkeeping feeds the Fig. 9 miss-rate statistic only.
    consumePrefetchBits(members, in_llc);

    for (std::size_t i = 0; i < members.size(); ++i) {
        const BlockId m = members[i];
        if (m == requested || in_llc[i])
            continue;
        markPrefetched(m);
        decision.prefetches.push_back(m);
    }
    return decision;
}

} // namespace proram
