#include "oram/tree.hh"

#include <bit>

#include "util/logging.hh"

namespace proram
{

std::uint32_t
BucketRef::occupancyScan() const
{
    std::uint32_t n = 0;
    for (std::uint32_t i = 0; i < tree_->z_; ++i) {
        if (!isDummy(i))
            ++n;
    }
    return n;
}

BinaryTree::BinaryTree(std::uint32_t levels, std::uint32_t z,
                       const ArenaOptions &arena)
    : levels_(levels), z_(z)
{
    fatal_if(levels > 40, "tree too deep to simulate functionally");
    numBuckets_ = (2ULL << levels) - 1;
    arena_ = ArenaBackend::make(arena, numBuckets_, z_);
    chunkShift_ = arena_->chunkShift();
    chunkMask_ = arena_->chunkBuckets() - 1;
}

void
BinaryTree::clearSlot(TreeIdx node, std::uint32_t i)
{
    const std::uint64_t n = node.value();
    const ArenaBackend::Lanes l = arena_->lanes(n >> chunkShift_);
    if (l.ids == nullptr)
        return; // implicit chunk: the slot is already dummy
    const std::uint64_t at = (n & chunkMask_) * z_ + i;
    if (l.ids[at] != kInvalidBlock) {
        ++l.free[n & chunkMask_];
        l.data[at] = 0;
    }
    l.ids[at] = kInvalidBlock;
}

BlockId &
BinaryTree::rawSlotId(TreeIdx node, std::uint32_t i)
{
    const std::uint64_t n = node.value();
    const ArenaBackend::Lanes l = arena_->materialize(n >> chunkShift_);
    return l.ids[(n & chunkMask_) * z_ + i];
}

std::uint64_t &
BinaryTree::rawSlotData(TreeIdx node, std::uint32_t i)
{
    const std::uint64_t n = node.value();
    const ArenaBackend::Lanes l = arena_->materialize(n >> chunkShift_);
    return l.data[(n & chunkMask_) * z_ + i];
}

Level
BinaryTree::commonLevel(Leaf a, Leaf b) const
{
    // Paths diverge at the highest differing leaf bit: the shared
    // depth is levels_ minus the XOR's bit width (equal labels share
    // the whole path).
    const std::uint32_t diff = a ^ b;
    return Level{levels_ -
                 static_cast<std::uint32_t>(std::bit_width(diff))};
}

std::uint64_t
BinaryTree::countRealBlocks() const
{
    std::uint64_t n = 0;
    const std::uint64_t chunk_slots =
        static_cast<std::uint64_t>(arena_->chunkBuckets()) * z_;
    for (std::uint64_t c = 0; c < arena_->numChunks(); ++c) {
        const ArenaBackend::View v = arena_->view(c);
        if (v.ids == nullptr)
            continue; // implicit chunk: all-dummy by construction
        for (std::uint64_t s = 0; s < chunk_slots; ++s) {
            if (v.ids[s] != kInvalidBlock)
                ++n;
        }
    }
    return n;
}

} // namespace proram
