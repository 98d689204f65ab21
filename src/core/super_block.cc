#include "core/super_block.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace proram
{

// Super-block geometry is bit-field math on the *address-space*
// layout of block ids, so these helpers are the one sanctioned place
// that unwraps BlockId to its raw representation; everything else in
// the core manipulates groups through them.

BlockId
sbBaseStrided(BlockId id, std::uint32_t size, std::uint32_t stride_log)
{
    panic_if(!isPowerOf2(size), "super block size must be 2^k");
    // Clear bits [stride_log, stride_log + log2(size)).
    const std::uint64_t field =
        (static_cast<std::uint64_t>(size) - 1) << stride_log;
    return BlockId{id.value() & ~field};
}

BlockId
sbNeighborBaseStrided(BlockId base, std::uint32_t size,
                      std::uint32_t stride_log)
{
    panic_if(!isPowerOf2(size), "super block size must be 2^k");
    panic_if(base != sbBaseStrided(base, size, stride_log),
             "misaligned strided super block base");
    return BlockId{base.value() ^
                   (static_cast<std::uint64_t>(size) << stride_log)};
}

std::vector<BlockId>
sbMembersStrided(BlockId base, std::uint32_t size,
                 std::uint32_t stride_log)
{
    std::vector<BlockId> out;
    out.reserve(size);
    for (std::uint32_t i = 0; i < size; ++i)
        out.push_back(sbMemberAt(base, i, stride_log));
    return out;
}

bool
mergeWithinBoundsStrided(BlockId base, std::uint32_t size,
                         std::uint32_t stride_log,
                         std::uint64_t num_data_blocks,
                         std::uint32_t pos_map_fanout)
{
    const std::uint64_t merged_span =
        2ULL * size << stride_log; // window of the merged group
    const BlockId pair_base = sbBaseStrided(base, 2 * size, stride_log);
    const BlockId last =
        pair_base + ((2ULL * size - 1) << stride_log);
    if (last.value() >= num_data_blocks)
        return false;
    return merged_span <= pos_map_fanout;
}

} // namespace proram
