/**
 * @file
 * The functional Ring ORAM engine (Ren et al., USENIX Sec'15) behind
 * the OramScheme interface. Reads touch one block per bucket (a real
 * block when the bucket holds one of interest, a dummy otherwise);
 * writes are decoupled from reads and happen on a deterministic
 * reverse-lexicographic schedule, one full-path eviction every A
 * accesses; a bucket that has served S reads since it was last
 * rewritten is early-reshuffled.
 *
 * Modeling granularity: the adversary in this simulator observes
 * *bucket* touches, not intra-bucket slot indices, so the per-bucket
 * valid/dummy permutation of the hardware design collapses to a
 * 1-byte read counter per bucket - an early reshuffle re-randomizes
 * the (unmodeled) permutation and resets the counter, and a scheduled
 * eviction rewrites the path's buckets wholesale (resetting their
 * counters the way the real rewrite refreshes their dummies). The
 * block-of-interest selection per bucket is client-internal metadata
 * in the hardware design (the encrypted bucket header), never
 * revealed by the access pattern. See DESIGN.md Sec. 13.
 *
 * Concrete OramScheme; callers outside src/oram/ use oram/scheme.hh.
 */

#ifndef PRORAM_ORAM_RING_ORAM_HH
#define PRORAM_ORAM_RING_ORAM_HH

#include <cstdint>
#include <vector>

#include "oram/scheme.hh"

namespace proram
{

class RingOram final : public OramScheme
{
  public:
    RingOram(const OramConfig &cfg, PositionMap &pos_map);

    const char *name() const override { return "ring"; }

    /**
     * Bring every block currently mapped to @p leaf (the interest
     * set: the demanded super block's members, or a pos-map block)
     * into the stash, one modeled block read per bucket. Buckets
     * whose read budget S is exhausted are early-reshuffled.
     */
    void readPath(Leaf leaf) override;

    /**
     * Count one access; every A-th call runs the scheduled eviction
     * on the next reverse-lexicographic path (extract + greedy
     * write-back + counter reset). @p leaf (the just-read path) is
     * deliberately unused for tree writes - Ring ORAM's write
     * schedule is independent of the demand sequence.
     */
    void writePath(Leaf leaf) override;

    /**
     * Background eviction: force the next scheduled eviction pass
     * immediately (off-schedule "piggyback" eviction). Guaranteed
     * eviction progress - stash occupancy cannot increase.
     * @return the reverse-lexicographic leaf that was written.
     */
    Leaf dummyAccess() override;

    const SchemeCounters &schemeCounters() const override { return counters_; }

    /** @name Ring parameters and schedule introspection (tests). @{ */
    std::uint32_t ringS() const { return s_; }
    std::uint32_t ringA() const { return a_; }
    /** Reads served by @p node 's bucket since its last rewrite. */
    std::uint32_t bucketReadCount(TreeIdx node) const
    {
        return readCount_[node.value()];
    }
    /** Scheduled evictions run so far (the schedule position g). */
    std::uint64_t evictionsRun() const { return counters_.scheduledEvictions; }
    /** The leaf the @p g -th scheduled eviction writes. */
    Leaf evictionLeafAt(std::uint64_t g) const;
    /** @} */

  private:
    /** Scheduled eviction: extract the g-th reverse-lex path into the
     *  stash (resetting its read counters), then greedy write-back.
     *  @return the path written. */
    Leaf runScheduledEviction();

    /** Draw the next schedule position and notify the auditor hook. */
    Leaf nextEvictionLeaf();

    /** Account one modeled bucket read; early-reshuffle on budget
     *  exhaustion. */
    void noteBucketRead(TreeIdx node, std::uint32_t extracted);

    /** Dummy-read budget per bucket (early-reshuffle threshold). */
    std::uint32_t s_;
    /** Eviction rate: one scheduled eviction per A accesses. */
    std::uint32_t a_;
    /** Reads served per bucket since its last rewrite (1 B/bucket). */
    std::vector<std::uint8_t> readCount_;
    /** Accesses since construction (schedules evictions mod A). */
    std::uint64_t accessSeq_ = 0;
    /** Traffic counters; scheduledEvictions is the reverse-lex
     *  schedule position g. */
    SchemeCounters counters_;
};

} // namespace proram

#endif // PRORAM_ORAM_RING_ORAM_HH
