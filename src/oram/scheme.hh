/**
 * @file
 * The abstract ORAM scheme interface: the tree-protocol contract the
 * controller and the policy layer are written against. One logical
 * access is a position-map walk (owned by UnifiedOram), a readPath,
 * the policy's remaps, and a writePath (DESIGN.md Sec. 13); every
 * concrete protocol (Path ORAM, Ring ORAM) implements those halves
 * over the shared tree, stash, position map and RNG owned here.
 * Nothing outside src/oram/ may name a concrete scheme; callers
 * select one via OramConfig::scheme / $PRORAM_SCHEME and talk to this
 * interface.
 */

#ifndef PRORAM_ORAM_SCHEME_HH
#define PRORAM_ORAM_SCHEME_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "oram/config.hh"
#include "oram/position_map.hh"
#include "oram/stash.hh"
#include "oram/tree.hh"
#include "util/random.hh"

namespace proram
{

/** Protocol-specific traffic counters (all zero for Path ORAM, whose
 *  bucket traffic is fully described by pathReads()). Monotonic;
 *  sampled by the controller's stat group. */
struct SchemeCounters
{
    /** Modeled one-block bucket reads (Ring: one per path bucket). */
    std::uint64_t bucketReads = 0;
    /** Bucket reads that returned no block of interest (dummy reads). */
    std::uint64_t dummyReads = 0;
    /** Buckets early-reshuffled after S reads since the last shuffle. */
    std::uint64_t earlyReshuffles = 0;
    /** Deterministic reverse-lexicographic eviction passes. */
    std::uint64_t scheduledEvictions = 0;
};

/**
 * Binary tree + stash + remap machinery behind a protocol-agnostic
 * access interface. The position map is owned by the caller (the
 * unified front end) because recursion and the super-block metadata
 * live there; tree, stash and RNG are owned here and shared by every
 * concrete scheme.
 *
 * Contract the controller may assume (DESIGN.md Sec. 13):
 *  - After readPath(leafOf(b)) returns, every block currently mapped
 *    to that leaf - in particular b and its whole super block - is
 *    stash-resident.
 *  - The policy may remap any stash-resident block via
 *    PositionMap::setLeaf between readPath and writePath; schemes must
 *    not cache block->leaf assignments across that boundary.
 *  - writePath(leaf) restores the scheme's tree invariant ("a block
 *    is on its mapped path or in the stash"); it need not write the
 *    demanded path (Ring ORAM evicts on its own schedule).
 *  - dummyAccess() makes eviction progress (stash occupancy cannot
 *    increase) and returns the public leaf it touched.
 */
class OramScheme
{
  public:
    OramScheme(const OramConfig &cfg, PositionMap &pos_map);
    virtual ~OramScheme();

    OramScheme(const OramScheme &) = delete;
    OramScheme &operator=(const OramScheme &) = delete;

    /** Printable protocol name ("path" / "ring"). */
    virtual const char *name() const = 0;

    /** Bring every block of interest on path @p leaf into the stash
     *  (Path: all real blocks on the path; Ring: the blocks mapped to
     *  @p leaf, one modeled bucket read each). */
    virtual void readPath(Leaf leaf) = 0;

    /**
     * Write-back half of one access. Path ORAM evicts onto @p leaf;
     * Ring ORAM counts the access and runs its scheduled
     * reverse-lexicographic eviction every A-th call (@p leaf names
     * the just-read path for symmetry but the eviction path is the
     * scheme's own choice).
     */
    virtual void writePath(Leaf leaf) = 0;

    /**
     * Background eviction (Sec. 2.4): one eviction-progress access
     * that remaps nothing. Stash occupancy cannot increase.
     * @return the public leaf that was accessed.
     */
    virtual Leaf dummyAccess() = 0;

    /** Protocol-specific traffic counters (zeros for Path ORAM). */
    virtual SchemeCounters schemeCounters() const { return {}; }

    /** @name Geometry (delegates to the shared tree). @{ */
    TreeIdx nodeOnPath(Leaf leaf, Level level) const
    {
        return tree_.nodeOnPath(leaf, level);
    }
    std::uint32_t levels() const { return tree_.levels(); }
    std::uint32_t bucketSlots() const { return tree_.z(); }
    std::uint64_t numLeaves() const { return tree_.numLeaves(); }
    /** @} */

    /** Fresh uniformly random leaf (step 4 remap target). */
    Leaf randomLeaf()
    {
        return Leaf{
            static_cast<std::uint32_t>(rng_.below(tree_.numLeaves()))};
    }

    /**
     * Initial placement of blocks [0, @p count), block b carrying
     * payloads[b] (payload 0 for all when @p payloads is empty). Each
     * block lands in the deepest bucket of its mapped path that still
     * has a free slot when the blocks are taken in id order, and in
     * the stash, in id order, when its whole path is full. Every
     * block's leaf must be assigned first. Used for initialization
     * only; the placement runs level by level, leaves first (see the
     * definition).
     */
    void placeInitial(std::uint64_t count,
                      std::span<const std::uint64_t> payloads = {});

    /**
     * Observe the (public) leaf of every *scheduled* eviction pass,
     * in schedule order, just before the pass runs. Pure observation
     * hook for the obliviousness auditor's deterministic-eviction
     * accounting (Ring ORAM); Path ORAM never fires it.
     */
    void setEvictionObserver(std::function<void(Leaf)> fn)
    {
        evictionObserver_ = std::move(fn);
    }

    BinaryTree &tree() { return tree_; }
    const BinaryTree &tree() const { return tree_; }
    Stash &stash() { return stash_; }
    const Stash &stash() const { return stash_; }
    PositionMap &posMap() { return posMap_; }

    std::uint64_t pathReads() const { return pathReads_.value(); }

  protected:
    /**
     * Move every real block on path @p leaf into the stash, bucket by
     * bucket from the root and in slot order within a bucket (Path
     * ORAM's read, and the read half of Ring ORAM's scheduled
     * eviction). The path's bucket records and the drained blocks'
     * position-map entries are prefetched before the first insert.
     * Panics if a block is already stash-resident - a second copy in
     * the stash or on this path.
     */
    void drainPath(Leaf leaf);

    /**
     * Greedy eviction onto path @p leaf, the write-back both
     * protocols share (Path ORAM on the demand path, Ring ORAM on its
     * scheduled path): classify every stash slot's deepest eligible
     * level on the path, counting-sort the slot numbers deepest level
     * first (insertion order kept within a level), then fill buckets
     * from the leaf upward; unplaced deeper blocks stay pooled and may
     * still land closer to the root. One stable pass then drops the
     * placed slots from the stash. Samples stash occupancy.
     */
    void evictGreedy(Leaf leaf);

    OramConfig cfg_;
    PositionMap &posMap_;
    BinaryTree tree_;
    Stash stash_;
    Rng rng_;
    stats::Counter pathReads_;
    /** Auditor hook; empty (and never called) unless auditing. */
    std::function<void(Leaf)> evictionObserver_;

  private:
    /** Grow the per-slot scratch to cover @p slots stash slots. */
    void reserveScratch(std::size_t slots);

    // drainPath scratch, sized from the tree geometry at construction.
    /** The path's L+1 node indices, root first. */
    std::vector<TreeIdx> pathScratch_;
    /** Drained (id, payload) pairs; a path holds at most (L+1)*Z. */
    std::vector<std::pair<BlockId, std::uint64_t>> drainScratch_;

    // evictGreedy scratch, pre-sized from tree geometry at
    // construction (see reserveScratch) so even the first paths
    // allocate nothing.
    /** Per-slot eviction level (BinaryTree::commonLevel with the
     *  path); a placed slot's entry is overwritten with kPlaced. */
    std::vector<std::uint32_t> levelScratch_;
    /** Counting sort: per-level population / start offset / cursor. */
    std::vector<std::uint32_t> histScratch_;
    std::vector<std::uint32_t> levelStartScratch_;
    std::vector<std::uint32_t> levelCursorScratch_;
    /** Stash slot numbers grouped deepest level first, insertion order
     *  kept within each level (the stable-scatter output). Its
     *  consumed prefix doubles as the pool of unplaced slots. */
    std::vector<std::uint32_t> sortedScratch_;
};

/** Build the scheme selected by @p cfg (after resolvedScheme()). */
std::unique_ptr<OramScheme> makeOramScheme(const OramConfig &cfg,
                                           PositionMap &pos_map);

} // namespace proram

#endif // PRORAM_ORAM_SCHEME_HH
