/**
 * @file
 * The memory-backend interface the trace CPU drives: an insecure DRAM
 * or an ORAM controller, interchangeable below the cache hierarchy.
 */

#ifndef PRORAM_MEM_BACKEND_HH
#define PRORAM_MEM_BACKEND_HH

#include <cstddef>

#include "util/types.hh"

namespace proram
{

/**
 * One memory controller serving LLC misses and write-backs. All
 * methods are functional *and* timed: `now` is the issue cycle, the
 * return value the completion cycle.
 */
class MemBackend
{
  public:
    virtual ~MemBackend() = default;

    /** Demand LLC miss; the core stalls until the returned cycle. */
    virtual Cycles demandAccess(Cycles now, BlockId block, OpType op) = 0;

    /**
     * Dirty-victim write-back; the core does not wait, but the
     * transfer occupies the controller.
     */
    virtual void writebackAccess(Cycles now, BlockId block) = 0;

    /**
     * Batched write-backs, semantically identical to calling
     * writebackAccess() once per block in order. No backend in the
     * library overrides it; an override would retire the batch
     * without per-block virtual dispatch.
     */
    virtual void writebackBatch(Cycles now, const BlockId *blocks,
                                std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            writebackAccess(now, blocks[i]);
    }

    /** The core demand-touched @p block in the hierarchy (cache hit
     *  or miss-return); lets prefetchers train and hit bits set. */
    virtual void onDemandTouch(Cycles now, BlockId block)
    {
        (void)now;
        (void)block;
    }

    /** End-of-run settlement (periodic dummies etc.). */
    virtual void finalize(Cycles end) { (void)end; }

    /**
     * Total memory-subsystem accesses for the energy proxy the paper
     * plots ("Norm. Memory Accesses"): for ORAM, path accesses
     * including background evictions and periodic dummies.
     */
    virtual std::uint64_t memAccessCount() const = 0;
};

} // namespace proram

#endif // PRORAM_MEM_BACKEND_HH
