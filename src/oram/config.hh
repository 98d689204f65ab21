/**
 * @file
 * Path ORAM configuration and derived geometry/timing.
 *
 * Functional capacity (numDataBlocks) is decoupled from the *timing*
 * level count: the paper simulates an 8 GB ORAM (2^26 blocks), which is
 * too large to hold functionally, so experiments run smaller trees
 * while (optionally) billing latency for the full-size configuration.
 * See DESIGN.md Sec. 2 for the substitution argument.
 */

#ifndef PRORAM_ORAM_CONFIG_HH
#define PRORAM_ORAM_CONFIG_HH

#include <cstdint>
#include <string>

#include "util/types.hh"

namespace proram
{

/**
 * Which tree protocol runs under the controller (the *protocol* axis;
 * orthogonal to sim/MemScheme, which selects the super-block policy).
 */
enum class SchemeKind : std::uint8_t
{
    Default, ///< resolve from $PRORAM_SCHEME, falling back to Path
    Path,    ///< Path ORAM (Stefanov et al., CCS'13)
    Ring,    ///< Ring ORAM (Ren et al., USENIX Sec'15)
};

/** Printable protocol name ("path" / "ring"). */
const char *schemeKindName(SchemeKind kind);

/** Parse a PRORAM_SCHEME value; throws SimFatal on unknown names. */
SchemeKind parseSchemeKind(const std::string &name);

/** Parameters mirroring Table 1 of the paper. */
struct OramConfig
{
    /** Number of logical data blocks (working-set capacity). */
    std::uint64_t numDataBlocks = 1ULL << 16;
    /** Block (= cache line) size in bytes. */
    std::uint32_t blockBytes = 128;
    /** Blocks per bucket. */
    std::uint32_t z = 3;
    /** Stash capacity in blocks (excluding the in-flight path). */
    std::uint32_t stashCapacity = 100;
    /**
     * Total number of ORAM hierarchies (data ORAM + position-map
     * ORAMs). The final position-map level is kept on-chip.
     */
    std::uint32_t hierarchies = 4;
    /** Bytes of leaf-label payload per position-map entry. */
    std::uint32_t posMapEntryBytes = 4;
    /** On-chip position-map-block cache (PLB) entries. */
    std::uint32_t plbEntries = 64;

    /** DRAM bus bandwidth in bytes per cycle (16 GB/s @ 1 GHz). */
    double dramBytesPerCycle = 16.0;
    /** Fixed per-path overhead: DRAM latency + decrypt pipeline. */
    Cycles pathOverheadCycles{100};

    /**
     * If nonzero, bill path latency as if the tree had this many
     * levels (full-size configuration); 0 = use functional levels.
     */
    std::uint32_t timingLevels = 0;

    /** RNG seed for leaf assignment. */
    std::uint64_t seed = 1;

    /**
     * Skip the eager placement pass of initialize(): blocks start
     * "virtually resident" with payload 0 and are created in the
     * stash on first access. Payload-equivalent to eager
     * initialization but not stat-identical (the tree starts empty).
     * It also selects on-demand tree storage (oram/tree.hh), which
     * allocates a chunk of bucket records on its first write; with
     * both, a paper-scale (2^26-block) tree costs only its touched
     * chunks.
     */
    bool lazyInit = false;

    /**
     * Tree protocol behind the OramScheme interface (oram/scheme.hh).
     * Default resolves $PRORAM_SCHEME={path,ring} and falls back to
     * Path ORAM. Both protocols are payload-equivalent; they differ in
     * bucket traffic and eviction scheduling, so stats and goldens are
     * pinned per scheme.
     */
    SchemeKind scheme = SchemeKind::Default;

    /**
     * Ring ORAM only: per-bucket dummy-read budget S. A bucket that
     * has served this many one-block reads since its last shuffle is
     * early-reshuffled. 0 = the built-in default, 2*Z capped at 255.
     * Ignored by Path ORAM.
     */
    std::uint32_t ringS = 0;

    /**
     * Ring ORAM only: eviction rate A - one deterministic
     * reverse-lexicographic eviction pass per A accesses. 0 = the
     * built-in default, 2 (aggressive enough for this repo's
     * ~1/Z-utilization trees). Ignored by Path ORAM.
     */
    std::uint32_t ringA = 0;

    /** The protocol a tree will actually run with (env resolved). */
    SchemeKind resolvedScheme() const;

    /** Ring dummy-read budget S with the default applied (>= 1). */
    std::uint32_t resolvedRingS() const;

    /** Ring eviction rate A with the default applied (>= 1). */
    std::uint32_t resolvedRingA() const;

    /**
     * Levels below the root in the functional tree (root = level 0,
     * leaves = level L): chosen so the tree has ~numTotalBlocks
     * leaves / 2, i.e. utilization ~1/Z with background eviction.
     */
    std::uint32_t levels() const;

    /** Position-map entries per position-map block. */
    std::uint32_t posMapFanout() const;

    /** Blocks including position-map blocks of all tree-resident levels. */
    std::uint64_t numTotalBlocks() const;

    /** Number of position-map levels stored in the tree. */
    std::uint32_t posMapLevels() const;

    /** Entries in the final, on-chip position-map table. */
    std::uint64_t onChipPosMapEntries() const;

    /** Levels used for latency computation. */
    std::uint32_t effectiveTimingLevels() const;

    /** Latency in cycles of one full path read + write. */
    Cycles pathAccessCycles() const;

    /** Validate invariants; throws SimFatal on bad configuration. */
    void validate() const;

    bool operator==(const OramConfig &) const = default;
};

} // namespace proram

#endif // PRORAM_ORAM_CONFIG_HH
