#include "oram/position_map.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace proram
{

BlockSpace::BlockSpace(const OramConfig &cfg)
    : numData_(cfg.numDataBlocks), fanout_(cfg.posMapFanout())
{
    std::uint64_t count = numData_;
    BlockId base{numData_};
    for (std::uint32_t l = 0; l < cfg.posMapLevels(); ++l) {
        count = divCeil(count, fanout_);
        levelBase_.push_back(base);
        levelCount_.push_back(count);
        base += count;
    }
    total_ = base.value();
}

std::uint32_t
BlockSpace::levelOf(BlockId id) const
{
    panic_if(id.value() >= total_, "block id ", id, " out of range");
    if (id.value() < numData_)
        return 0;
    for (std::uint32_t l = 0; l < levelBase_.size(); ++l) {
        if (id < levelBase_[l] + levelCount_[l])
            return l + 1;
    }
    panic("unreachable: id ", id, " not in any level");
}

BlockId
BlockSpace::posMapBlockOf(BlockId id) const
{
    const std::uint32_t level = levelOf(id);
    // Index of this block within its own level.
    const std::uint64_t index =
        level == 0 ? id.value() : id - levelBase_[level - 1];
    if (level >= levelBase_.size()) {
        // The covering table is on-chip.
        return kInvalidBlock;
    }
    return levelBase_[level] + index / fanout_;
}

BlockId
BlockSpace::levelBase(std::uint32_t level) const
{
    panic_if(level == 0 || level > levelBase_.size(),
             "pos-map level ", level, " out of range");
    return levelBase_[level - 1];
}

std::uint64_t
BlockSpace::levelCount(std::uint32_t level) const
{
    panic_if(level == 0 || level > levelCount_.size(),
             "pos-map level ", level, " out of range");
    return levelCount_[level - 1];
}

PositionMap::PositionMap(std::uint64_t num_blocks, Leaf num_leaves)
    : entries_(makeHugeArray<PosEntry>(num_blocks)), size_(num_blocks),
      numLeaves_(num_leaves)
{
    fatal_if(num_leaves == Leaf{0},
             "position map needs at least one leaf");
}

PosMapBlockCache::PosMapBlockCache(std::uint32_t entries,
                                   BlockId first_block,
                                   std::uint64_t num_blocks)
    : capacity_(entries), nodes_(entries), first_(first_block),
      slotOf_(num_blocks, kNil)
{
    fatal_if(entries == 0, "PLB needs at least one entry");
}

void
PosMapBlockCache::unlink(std::uint32_t slot)
{
    Node &n = nodes_[slot];
    if (n.prev != kNil)
        nodes_[n.prev].next = n.next;
    else
        head_ = n.next;
    if (n.next != kNil)
        nodes_[n.next].prev = n.prev;
    else
        tail_ = n.prev;
}

void
PosMapBlockCache::linkFront(std::uint32_t slot)
{
    Node &n = nodes_[slot];
    n.prev = kNil;
    n.next = head_;
    if (head_ != kNil)
        nodes_[head_].prev = slot;
    head_ = slot;
    if (tail_ == kNil)
        tail_ = slot;
}

bool
PosMapBlockCache::lookup(BlockId pm_block)
{
    const std::uint32_t slot = slotOf_[indexOf(pm_block)];
    if (slot == kNil) {
        ++misses_;
        return false;
    }
    ++hits_;
    if (head_ != slot) {
        unlink(slot);
        linkFront(slot);
    }
    return true;
}

void
PosMapBlockCache::insert(BlockId pm_block)
{
    std::uint32_t &cached = slotOf_[indexOf(pm_block)];
    if (cached != kNil) {
        if (head_ != cached) {
            unlink(cached);
            linkFront(cached);
        }
        return;
    }
    std::uint32_t slot = tail_;
    if (used_ < capacity_) {
        slot = used_++;
    } else {
        slotOf_[indexOf(nodes_[slot].id)] = kNil;
        unlink(slot);
    }
    nodes_[slot].id = pm_block;
    linkFront(slot);
    cached = slot;
}

bool
PosMapBlockCache::contains(BlockId pm_block) const
{
    return slotOf_[indexOf(pm_block)] != kNil;
}

} // namespace proram
