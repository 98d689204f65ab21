/**
 * @file
 * Super-block geometry helpers (paper Sec. 3.2): super blocks are
 * 2^k-sized, address-aligned groups of data blocks; two same-sized
 * groups are *neighbours* iff they merge into the next aligned
 * power-of-two group.
 *
 * Every helper takes a stride 2^s (strided super blocks, the paper's
 * Sec. 6.2 future work). A group of size n = 2^k holds the blocks
 * agreeing on every address bit except bits [s, s+k): its members
 * are base + i*2^s. The paper's contiguous super blocks are s = 0.
 * Because the group lies inside one (n*2^s)-aligned window,
 * co-residency in a single position-map block is guaranteed whenever
 * n*2^s <= fanout.
 */

#ifndef PRORAM_CORE_SUPER_BLOCK_HH
#define PRORAM_CORE_SUPER_BLOCK_HH

#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace proram
{

/** Base (member with zeroed [s, s+k) bits) of @p id's group. */
BlockId sbBaseStrided(BlockId id, std::uint32_t size,
                      std::uint32_t stride_log);

/** Base of the neighbour group (Sec. 4.1: the unique same-sized
 *  group forming a 2x group with it; differs in bit s + log2(size)). */
BlockId sbNeighborBaseStrided(BlockId base, std::uint32_t size,
                              std::uint32_t stride_log);

/** Member ids of the strided group at @p base. */
std::vector<BlockId> sbMembersStrided(BlockId base, std::uint32_t size,
                                      std::uint32_t stride_log);

/** The @p i-th member of the strided group at @p base; the
 *  allocation-free alternative to sbMembersStrided() on hot paths. */
inline BlockId
sbMemberAt(BlockId base, std::uint32_t i, std::uint32_t stride_log)
{
    return base + (static_cast<std::uint64_t>(i) << stride_log);
}

/**
 * Whether merging two size-@p size groups keeps the 2x group inside
 * the data space and inside one position-map block (Sec. 4.1: all
 * members' mappings must share a Pos-Map block).
 */
bool mergeWithinBoundsStrided(BlockId base, std::uint32_t size,
                              std::uint32_t stride_log,
                              std::uint64_t num_data_blocks,
                              std::uint32_t pos_map_fanout);

} // namespace proram

#endif // PRORAM_CORE_SUPER_BLOCK_HH
