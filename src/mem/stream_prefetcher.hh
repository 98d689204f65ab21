/**
 * @file
 * Traditional multi-stream prefetcher (Palacharla & Kessler style).
 *
 * Used only for the Fig. 5 experiment: the paper shows this class of
 * prefetcher helps on DRAM (spare bandwidth exists between demand
 * accesses) but is useless-to-harmful on ORAM (every prefetch occupies
 * the fully-serialized ORAM controller). The prefetcher is
 * timing-agnostic: it observes the demand miss stream and proposes
 * block ids to prefetch; the memory backend decides when (and whether)
 * bandwidth allows issuing them.
 */

#ifndef PRORAM_MEM_STREAM_PREFETCHER_HH
#define PRORAM_MEM_STREAM_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace proram
{

/** Stream prefetcher parameters. */
struct PrefetcherConfig
{
    /** Number of concurrently tracked streams. */
    std::uint32_t numStreams = 8;
    /** Prefetches issued per trained-stream trigger. */
    std::uint32_t degree = 2;
    /** How far ahead of the demand stream to run. */
    std::uint32_t distance = 4;
    /** Consecutive unit-stride misses required to train a stream. */
    std::uint32_t trainThreshold = 2;

    bool operator==(const PrefetcherConfig &) const = default;
};

/**
 * Detects ascending and descending unit-stride block streams in the
 * demand miss sequence and proposes prefetch candidates.
 */
class StreamPrefetcher
{
  public:
    explicit StreamPrefetcher(const PrefetcherConfig &cfg);

    /**
     * Observe a demand access that reached memory (LLC miss) or hit a
     * previously prefetched block.
     * @return block ids the prefetcher wants fetched, nearest first.
     */
    std::vector<BlockId> observe(BlockId block);

    std::uint64_t issued() const { return issued_; }
    std::uint64_t streamsTrained() const { return trained_; }

  private:
    struct Stream
    {
        bool valid = false;
        bool trained = false;
        BlockId lastBlock = kInvalidBlock;
        /** +1 ascending, -1 descending. */
        int direction = 0;
        std::uint32_t confidence = 0;
        /** Furthest block already requested for this stream. */
        BlockId frontier = kInvalidBlock;
        std::uint64_t lruStamp = 0;
    };

    Stream *findStream(BlockId block, int *direction_out);
    Stream &allocateStream(BlockId block);

    PrefetcherConfig cfg_;
    std::vector<Stream> streams_;
    std::uint64_t lruClock_ = 0;

    std::uint64_t issued_ = 0;
    std::uint64_t trained_ = 0;
};

} // namespace proram

#endif // PRORAM_MEM_STREAM_PREFETCHER_HH
