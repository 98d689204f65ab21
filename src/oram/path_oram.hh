/**
 * @file
 * The functional Path ORAM engine (Stefanov et al., CCS'13), split
 * into the read-path and write-path halves of one access so the
 * super-block policies can remap blocks in between (merging/breaking
 * must pick final leaves *before* the write-back phase, exactly as the
 * hardware does - paper Sec. 2.2 steps 4-5). Concrete OramScheme;
 * callers outside src/oram/ use oram/scheme.hh.
 */

#ifndef PRORAM_ORAM_PATH_ORAM_HH
#define PRORAM_ORAM_PATH_ORAM_HH

#include "oram/scheme.hh"

namespace proram
{

/**
 * Path ORAM: readPath extracts every real block on the accessed path
 * into the stash; writePath greedily evicts the stash back onto the
 * same path, deepest buckets first.
 */
class PathOram final : public OramScheme
{
  public:
    using OramScheme::OramScheme;

    const char *name() const override { return "path"; }

    /** Read every bucket on path @p leaf into the stash (step 2). */
    void readPath(Leaf leaf) override;

    /**
     * Evict as many stash blocks as possible onto path @p leaf,
     * deepest buckets first (step 5). Blocks land only in buckets that
     * lie on both @p leaf and their own mapped path. The path must be
     * the one readPath just emptied, with no other write-back in
     * between, or a path of an empty tree; a bucket that still holds a
     * block panics.
     */
    void writePath(Leaf leaf) override;

    /**
     * Background eviction (Sec. 2.4): read + write a random path
     * without remapping anything. Stash occupancy cannot increase.
     * @return the (random) leaf that was accessed.
     */
    Leaf dummyAccess() override;
};

} // namespace proram

#endif // PRORAM_ORAM_PATH_ORAM_HH
