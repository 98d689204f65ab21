#include "mem/dram_backend.hh"

#include <algorithm>

namespace proram
{

DramBackend::DramBackend(const DramBackendConfig &cfg, bool prefetch)
    : cfg_(cfg), dram_(cfg.dram)
{
    if (prefetch)
        pf_ = std::make_unique<StreamPrefetcher>(cfg.prefetcher);
}

void
DramBackend::issuePrefetches(Cycles now, BlockId trigger)
{
    if (!pf_)
        return;
    for (BlockId cand : pf_->observe(trigger)) {
        if (buffer_.count(cand))
            continue;
        const Cycles ready = dram_.schedule(now);
        // FIFO entries may be stale (consumed by a demand hit); keep
        // popping until the map actually shrinks below capacity.
        while (buffer_.size() >= cfg_.bufferLines &&
               !bufferFifo_.empty()) {
            buffer_.erase(bufferFifo_.front());
            bufferFifo_.pop_front();
        }
        buffer_[cand] = ready;
        bufferFifo_.push_back(cand);
    }
}

Cycles
DramBackend::demandAccess(Cycles now, BlockId block, OpType op)
{
    (void)op;
    Cycles completion;
    auto it = buffer_.find(block);
    if (it != buffer_.end()) {
        completion = std::max(now, it->second);
        buffer_.erase(it);
        // Lazy FIFO cleanup: the id is dropped when it reaches the
        // front; correctness only needs buffer_ membership.
        ++bufferHits_;
    } else {
        completion = dram_.schedule(now);
    }
    issuePrefetches(now, block);
    return completion;
}

void
DramBackend::writebackAccess(Cycles now, BlockId block)
{
    (void)block;
    dram_.schedule(now);
}

void
DramBackend::onDemandTouch(Cycles now, BlockId block)
{
    (void)now;
    (void)block;
}

std::uint64_t
DramBackend::memAccessCount() const
{
    return dram_.numTransfers();
}

} // namespace proram
