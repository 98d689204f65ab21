/**
 * @file
 * The insecure DRAM memory backend (the paper's "dram" baseline),
 * optionally fronted by the traditional stream prefetcher + prefetch
 * buffer ("dram_pre" in Fig. 5). Bank-level parallelism lets demand
 * latency overlap with prefetch transfers; only the bus serializes.
 */

#ifndef PRORAM_MEM_DRAM_BACKEND_HH
#define PRORAM_MEM_DRAM_BACKEND_HH

#include <deque>
#include <memory>
#include <unordered_map>

#include "mem/backend.hh"
#include "mem/dram.hh"
#include "mem/stream_prefetcher.hh"

namespace proram
{

/** DRAM backend configuration. */
struct DramBackendConfig
{
    DramConfig dram{};
    /** Stream-prefetcher geometry; used only by a backend built with
     *  a prefetcher (dram_pre). */
    PrefetcherConfig prefetcher{};
    /** Prefetch buffer (stream buffer) capacity in lines. */
    std::uint32_t bufferLines = 32;

    bool operator==(const DramBackendConfig &) const = default;
};

/** The backend. */
class DramBackend : public MemBackend
{
  public:
    /** @param prefetch run the stream prefetcher and its buffer
     *  (Fig. 5's dram_pre). */
    DramBackend(const DramBackendConfig &cfg, bool prefetch);

    Cycles demandAccess(Cycles now, BlockId block, OpType op) override;
    void writebackAccess(Cycles now, BlockId block) override;
    void onDemandTouch(Cycles now, BlockId block) override;
    std::uint64_t memAccessCount() const override;

    std::uint64_t prefetchBufferHits() const { return bufferHits_; }
    const StreamPrefetcher *prefetcher() const { return pf_.get(); }

  private:
    void issuePrefetches(Cycles now, BlockId trigger);

    DramBackendConfig cfg_;
    DramModel dram_;
    std::unique_ptr<StreamPrefetcher> pf_;

    /** Prefetched line -> data-ready cycle. */
    std::unordered_map<BlockId, Cycles> buffer_;
    std::deque<BlockId> bufferFifo_;
    std::uint64_t bufferHits_ = 0;
};

} // namespace proram

#endif // PRORAM_MEM_DRAM_BACKEND_HH
