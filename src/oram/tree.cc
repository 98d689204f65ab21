#include "oram/tree.hh"

#include "obs/trace.hh"
#include "util/logging.hh"

namespace proram
{

BinaryTree::BinaryTree(std::uint32_t levels, std::uint32_t z,
                       Storage storage)
    : levels_(levels), z_(z)
{
    fatal_if(levels > 40, "tree too deep to simulate functionally");
    numBuckets_ = (2ULL << levels) - 1;
    numChunks_ = (numBuckets_ + kChunkMask) >> kChunkShift;
    chunks_ = std::make_unique<std::uint64_t *[]>(numChunks_);
    const std::uint64_t chunk_words = chunkWords();
    if (storage == Storage::Eager) {
        // One value-initialized block: zero is an empty bucket, so
        // there is no fill pass, and the zeroing faults the pages in
        // here - on huge pages where the advice is taken - rather
        // than inside the first placements.
        eager_ = makeHugeArray<std::uint64_t>(numChunks_ * chunk_words);
        for (std::uint64_t c = 0; c < numChunks_; ++c)
            chunks_[c] = eager_.get() + c * chunk_words;
        chunksMaterialized_ = numChunks_;
        PRORAM_TRACE_EVENT("arena", "materializeAll", "chunks",
                           numChunks_);
    } else {
        zeroChunk_.reset(new std::uint64_t[chunk_words]());
        owned_ = std::make_unique<std::unique_ptr<std::uint64_t[]>[]>(
            numChunks_);
        for (std::uint64_t c = 0; c < numChunks_; ++c)
            chunks_[c] = zeroChunk_.get();
    }
}

/**
 * Reached from fillBucket / tryPlace on a write-back (or from a raw
 * test setter). The allocation is deliberate hot-path work: its
 * trigger is the public heap node index the server already observes
 * (DESIGN.md Sec. 12), it happens at most once per chunk, and the
 * alternative - allocating every chunk up front - is exactly the
 * eager storage.
 */
PRORAM_HOT void
BinaryTree::materialize(std::uint64_t chunk)
{
    // PRORAM_LINT_ALLOW(hot-alloc): once-per-chunk demand
    // materialization keyed on a public tree coordinate
    owned_[chunk].reset(new std::uint64_t[chunkWords()]());
    chunks_[chunk] = owned_[chunk].get();
    ++chunksMaterialized_;
    PRORAM_TRACE_EVENT("arena", "materialize", "chunk", chunk);
}

std::uint64_t
BinaryTree::countRealBlocks() const
{
    std::uint64_t n = 0;
    for (std::uint64_t c = 0; c < numChunks_; ++c) {
        if (!materialized(c))
            continue; // the shared zero chunk: all dummy
        for (std::uint64_t b = 0; b < kChunkBuckets; ++b) {
            const std::uint64_t *rec = chunks_[c] + b * 2 * z_;
            for (std::uint32_t i = 0; i < z_; ++i)
                n += rec[i] != 0 ? 1 : 0;
        }
    }
    return n;
}

} // namespace proram
