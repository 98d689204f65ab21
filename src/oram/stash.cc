#include "oram/stash.hh"

#include <algorithm>

namespace proram
{

Stash::Stash(std::uint32_t capacity, PositionMap &pos_map)
    : capacity_(capacity), posMap_(pos_map)
{
    // Room for twice the capacity up front; never zero, since grow()
    // doubles it.
    const std::size_t room =
        std::max<std::size_t>(static_cast<std::size_t>(capacity) * 2, 16);
    ids_.resize(room, kInvalidBlock);
    leaves_.resize(room, kInvalidLeaf);
    data_.resize(room, 0);
    posMap_.attachLeafCache(leaves_.data());
}

Stash::~Stash()
{
    // Leave no index behind: the position map outlives the stash.
    for (std::uint32_t s = 0; s < size_; ++s)
        posMap_.entry(ids_[s]).stashSlot = kNoStashSlot;
    posMap_.attachLeafCache(nullptr);
}

void
Stash::grow()
{
    const std::size_t room = ids_.size() * 2;
    ids_.resize(room, kInvalidBlock);
    leaves_.resize(room, kInvalidLeaf);
    data_.resize(room, 0);
    posMap_.attachLeafCache(leaves_.data());
}

bool
Stash::erase(BlockId id)
{
    const std::uint32_t slot = posMap_.entry(id).stashSlot;
    if (slot == kNoStashSlot)
        return false;
    eraseSlotsIf([slot](std::uint32_t s) { return s == slot; });
    return true;
}

} // namespace proram
