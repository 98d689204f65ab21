#include "oram/ring_oram.hh"

#include "obs/trace.hh"
#include "util/annotations.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace proram
{

RingOram::RingOram(const OramConfig &cfg, PositionMap &pos_map)
    : OramScheme(cfg, pos_map), s_(cfg.resolvedRingS()),
      a_(cfg.resolvedRingA()),
      readCount_(tree_.numBuckets(), 0)
{
}

Leaf
RingOram::evictionLeafAt(std::uint64_t g) const
{
    // Reverse-lexicographic order: the g-th eviction writes leaf
    // bit-reverse(g mod 2^L). The sequence is public and fixed at
    // design time - it carries zero bits about the demand pattern.
    return Leaf{static_cast<std::uint32_t>(
        reverseBits(g & (tree_.numLeaves() - 1), tree_.levels()))};
}

Leaf
RingOram::nextEvictionLeaf()
{
    const Leaf leaf = evictionLeafAt(counters_.scheduledEvictions++);
    if (evictionObserver_)
        evictionObserver_(leaf);
    return leaf;
}

PRORAM_HOT void
RingOram::noteBucketRead(TreeIdx node, std::uint32_t extracted)
{
    // Every bucket on an accessed path serves exactly one modeled
    // block read - a real block when it held one of interest, a dummy
    // otherwise. A bucket that held several interest blocks (a
    // co-located super block) is billed one read per block: the
    // hardware design would need that many single-block reads too.
    // The early-reshuffle itself is metadata-only at this simulator's
    // bucket granularity (the intra-bucket permutation is not modeled
    // - see ring_oram.hh).
    const std::uint32_t reads = extracted > 1 ? extracted : 1;
    counters_.bucketReads += reads;
    if (extracted == 0)
        ++counters_.dummyReads;
    const std::uint32_t count = readCount_[node.value()] + reads;
    if (count >= s_) {
        readCount_[node.value()] = 0;
        ++counters_.earlyReshuffles;
    } else {
        readCount_[node.value()] =
            static_cast<std::uint8_t>(count < 255 ? count : 255);
    }
}

PRORAM_OBLIVIOUS PRORAM_HOT void
RingOram::readPath(Leaf leaf)
{
    PRORAM_TRACE_SCOPE_ARG("oram", "readPath", "leaf", leaf);
    ++pathReads_;
    const std::uint32_t z = tree_.z();
    for (Level level{0}; level <= tree_.leafLevel(); ++level) {
        const TreeIdx node = tree_.nodeOnPath(leaf, level);
        std::uint32_t extracted = 0;
        for (std::uint32_t i = 0; i < z; ++i) {
            const BlockId id = tree_.slotId(node, i);
            if (id == kInvalidBlock)
                continue;
            // Interest-set probe: only blocks mapped to the accessed
            // leaf leave their bucket (the demanded super block's
            // members and pos-map blocks all map there). Which block
            // a bucket read returns is client-internal metadata in the
            // hardware design; the public pattern is one read per
            // bucket on the path either way.
            // PRORAM_LINT_ALLOW(secret-branch): see above.
            if (posMap_.leafOf(id) != leaf)
                continue;
            const bool fresh = stash_.insert(id, tree_.slotData(node, i));
            panic_if(!fresh, "block ", id,
                     " duplicated between tree and stash");
            tree_.clearSlot(node, i);
            ++extracted;
        }
        noteBucketRead(node, extracted);
    }
}

PRORAM_OBLIVIOUS PRORAM_HOT void
RingOram::writePath(Leaf leaf)
{
    // Ring ORAM writes nothing on the demand path: the access is
    // counted and every A-th one triggers the scheduled eviction on
    // the next reverse-lexicographic path. @p leaf is public either
    // way; using it only for the trace keeps the write schedule fully
    // demand-independent.
    PRORAM_TRACE_SCOPE_ARG("oram", "writePath", "leaf", leaf);
    if (++accessSeq_ % a_ == 0) {
        runScheduledEviction();
        return;
    }
    stash_.sampleOccupancy();
}

PRORAM_OBLIVIOUS Leaf
RingOram::runScheduledEviction()
{
    // Extract every real block on the g-th reverse-lexicographic path
    // into the stash (the rewrite reads the whole path - resetting the
    // read counters models the fresh permutation the real rewrite
    // installs), then greedily write the path back from the stash.
    const Leaf ev = nextEvictionLeaf();
    PRORAM_TRACE_SCOPE_ARG("evict", "ringScheduled", "leaf", ev);
    ++pathReads_;
    for (Level level{0}; level <= tree_.leafLevel(); ++level)
        readCount_[tree_.nodeOnPath(ev, level).value()] = 0;
    drainPath(ev);
    evictGreedy(ev);
    return ev;
}

PRORAM_OBLIVIOUS Leaf
RingOram::dummyAccess()
{
    // Background eviction: run the next scheduled eviction pass
    // immediately, off schedule. The pass is pure eviction progress
    // (nothing is remapped), so stash occupancy cannot increase; the
    // returned leaf is the schedule's next reverse-lex path, public
    // by construction.
    PRORAM_TRACE_SCOPE("dummy", "ringBgEvict");
    return runScheduledEviction();
}

} // namespace proram
