/**
 * @file
 * Obliviousness auditor: an optional observer on the ORAM controller
 * that records the *public* trace - the leaf sequence, the real/dummy
 * mix, and the access timing - and runs online statistical checks of
 * the paper's security claims (PrORAM Sec. 4.6, Path ORAM Stefanov
 * et al.):
 *
 *  - leaf-sequence uniformity: chi-squared test of the observed leaf
 *    distribution (all accesses, and demand accesses alone) against
 *    uniform;
 *  - remap freshness: consecutive identical leaves must occur no more
 *    often than independent uniform draws predict (a block re-using
 *    its leaf without remap shows up here first);
 *  - Oint timing regularity (periodic mode): every access must start
 *    on a public slot boundary, and every idle slot must have been
 *    filled with a dummy access (address-correlated dummy *skipping*
 *    is the leak this catches);
 *  - path accounting: each scheduled grant must cover exactly the
 *    path accesses the engine performed (no hidden accesses).
 *
 * The auditor is a pure observer: it consumes no simulator
 * randomness and never touches ORAM state, so enabling it (config
 * `SystemConfig::audit` or env `PRORAM_AUDIT=1`) is bit-invisible to
 * every golden statistic.
 *
 * The differential-replay helper promotes the "no address-dependent
 * path choice" property from a one-off test into a reusable check:
 * run the same configuration over two different logical access
 * patterns and require the two observed leaf distributions to be
 * statistically indistinguishable (two-sample chi-squared).
 */

#ifndef PRORAM_OBS_AUDIT_HH
#define PRORAM_OBS_AUDIT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/generator.hh"
#include "util/types.hh"

namespace proram
{
struct SystemConfig;
} // namespace proram

namespace proram::obs
{

/** What kind of path access an observed leaf belongs to. */
enum class PathKind : std::uint8_t
{
    Real,          ///< demand miss / write-back data access
    PosMap,        ///< position-map fetch (PLB miss)
    BgEvict,       ///< background eviction
    PeriodicDummy, ///< idle-slot dummy (Oint timing protection)
};

/** Auditor knobs; defaults suit the shipped Table-1 geometry. */
struct AuditConfig
{
    bool enabled = false;
    /** Leaf-histogram buckets for the chi-squared tests. */
    std::uint32_t leafBuckets = 16;
    /** Below this many samples a statistical check reports
     *  "not evaluated" instead of a meaningless verdict. */
    std::uint64_t minSamples = 512;
    /**
     * Chi-squared critical value; 0 = derive the ~99.99% quantile
     * for dof = leafBuckets - 1 (Wilson-Hilferty). Fixed-seed runs
     * make verdicts deterministic, so the quantile only needs to be
     * generous enough for honest implementations.
     */
    double chiSquareCritical = 0.0;
    /** Consecutive-repeat budget: factor * expected + factor. */
    double repeatFactor = 8.0;

    bool operator==(const AuditConfig &) const = default;
};

/** One check's verdict. */
struct AuditCheck
{
    std::string name;
    bool evaluated = false; ///< false = too few samples / n.a.
    bool pass = true;       ///< meaningful only when evaluated
    double statistic = 0.0;
    double threshold = 0.0;
    std::string detail;
};

/** All checks plus the sample sizes they were computed from. */
struct AuditReport
{
    std::vector<AuditCheck> checks;
    std::uint64_t totalPaths = 0;
    std::uint64_t realPaths = 0;

    /** True iff no evaluated check failed. */
    bool pass() const;
    /** One line per check, for logs and panic messages. */
    std::string summary() const;
};

/** ~@p quantile chi-squared critical value for @p dof degrees of
 *  freedom (Wilson-Hilferty approximation; quantile in {0.999,
 *  0.9999} is what the auditor uses). */
double chiSquareCritical(std::size_t dof, double quantile);

/** Pearson chi-squared statistic of @p counts against uniform. */
double chiSquareUniform(const std::vector<std::uint64_t> &counts);

/** Two-sample chi-squared statistic between bucket counts @p a and
 *  @p b (the differential-replay distinguisher). */
double twoSampleChiSquare(const std::vector<std::uint64_t> &a,
                          const std::vector<std::uint64_t> &b);

/**
 * The online observer. Attach to an OramController
 * (`attachAuditor`); the controller reports every path access and
 * every scheduler grant. Thread-compatible, not thread-safe: one
 * auditor per System, like every other per-run component.
 */
class ObliviousnessAuditor
{
  public:
    /**
     * @param num_leaves leaves of the audited tree
     * @param period periodic-mode slot length in cycles, 0 when
     *        periodic accesses are disabled. A non-zero period turns
     *        on both timing checks: every grant starts on a slot
     *        boundary, and every idle slot before it carried a dummy
     *        access (the controller drains idle slots before every
     *        grant, whatever the scheme and the request kind).
     */
    ObliviousnessAuditor(const AuditConfig &cfg,
                         std::uint64_t num_leaves,
                         Cycles period = Cycles{0});

    /** Observe one path access (public: leaf + kind + order). */
    void onPath(PathKind kind, Leaf leaf);

    /**
     * Observe one *scheduled eviction* path (Ring ORAM). Ring's tree
     * writes must follow the deterministic reverse-lexicographic
     * order - the g-th eviction writes leaf bit-reverse(g mod 2^L) -
     * so the auditor replays the schedule and counts deviations: a
     * demand-dependent eviction path is a leak, and shows up here as
     * a sequence violation. Path ORAM never calls this (its eviction
     * path is the just-read path, already audited by onPath).
     */
    void onEvictionPath(Leaf leaf);

    /** Observe one scheduler grant of @p paths path accesses
     *  starting at cycle @p start. */
    void onGrant(Cycles start, std::uint64_t paths);

    /** Compute every check over what has been observed so far. */
    AuditReport report() const;

    // Raw material for differential replay and the tests.
    const std::vector<std::uint64_t> &realBucketCounts() const
    {
        return realBuckets_;
    }
    std::uint64_t totalPaths() const { return totalPaths_; }
    std::uint64_t pathsOfKind(PathKind kind) const
    {
        return kindCounts_[static_cast<std::size_t>(kind)];
    }
    std::uint64_t evictionPaths() const { return evictionPaths_; }

  private:
    std::size_t bucketOf(Leaf leaf) const;
    double criticalValue() const;

    AuditConfig cfg_;
    std::uint64_t numLeaves_;
    Cycles period_;

    std::vector<std::uint64_t> allBuckets_;
    std::vector<std::uint64_t> realBuckets_;
    std::uint64_t kindCounts_[4] = {};
    std::uint64_t totalPaths_ = 0;

    Leaf lastLeaf_ = kInvalidLeaf;
    std::uint64_t consecutiveRepeats_ = 0;

    // Deterministic-eviction accounting (Ring ORAM; onEvictionPath).
    std::uint64_t evictionPaths_ = 0;
    std::uint64_t evictionViolations_ = 0;

    // Grant bookkeeping (periodic-mode timing checks).
    std::uint64_t grants_ = 0;
    std::uint64_t timingViolations_ = 0;
    std::uint64_t fillViolations_ = 0;
    std::uint64_t accountingViolations_ = 0;
    std::uint64_t pathsSinceGrant_ = 0;
    std::uint64_t dummiesSinceGrant_ = 0;
    Cycles expectedNextStart_{0};
};

/**
 * Differential replay: run @p cfg (forced to an auditing ORAM
 * scheme) over traces @p a and @p b and test whether the two
 * observed demand-leaf distributions are distinguishable. An
 * implementation whose path choice depends on the logical address
 * pattern fails; Path ORAM's fresh uniform remaps pass.
 */
AuditReport auditDifferentialReplay(const SystemConfig &cfg,
                                    const std::vector<TraceRecord> &a,
                                    const std::vector<TraceRecord> &b);

} // namespace proram::obs

#endif // PRORAM_OBS_AUDIT_HH
