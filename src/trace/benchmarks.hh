/**
 * @file
 * Named benchmark profiles standing in for the paper's workloads
 * (Splash2, SPEC06, YCSB, TPCC). Each profile parameterizes a
 * reference-stream generator by footprint, memory intensiveness
 * (compute gap), spatial locality (sequential-run probability and
 * length) and, for the DBMS workloads, zipfian record popularity.
 * DESIGN.md Sec. 2 documents why this substitution preserves the
 * paper's effects; the calibration targets the overhead ordering of
 * Fig. 8.
 */

#ifndef PRORAM_TRACE_BENCHMARKS_HH
#define PRORAM_TRACE_BENCHMARKS_HH

#include <memory>
#include <string>
#include <vector>

#include "trace/generator.hh"
#include "trace/zipf.hh"
#include "util/random.hh"

namespace proram
{

/** Stream profile of one named benchmark. */
struct BenchmarkProfile
{
    std::string name;
    std::string suite; ///< "splash2", "spec06" or "dbms"
    /** Marked memory-intensive in Fig. 8a (>2x ORAM/DRAM overhead). */
    bool memoryIntensive = false;

    std::uint64_t footprintBlocks = 1ULL << 15;
    std::uint64_t numAccesses = 150000;
    /** Core-busy cycles between references. */
    std::uint32_t computeCycles = 20;
    /** Probability that a new burst is a sequential run. */
    double burstProb = 0.5;
    /** Mean sequential-run length in blocks. */
    std::uint32_t runLen = 4;
    double writeFraction = 0.25;
    /**
     * Fraction of the footprint hosting the sequential runs (the
     * program's "array-like" data); random point accesses roam the
     * whole footprint. Real programs have heterogeneous locality -
     * this is what lets the dynamic scheme merge only where merging
     * pays, unlike the indiscriminate static scheme (Fig. 9).
     */
    double seqRegionFraction = 1.0;

    /** DBMS mode: zipfian record selection; a burst scans a record. */
    bool zipf = false;
    double zipfTheta = 0.99;
    std::uint32_t recordBlocks = 8;

    std::uint32_t blockBytes = 128;
    std::uint64_t seed = 42;

    bool operator==(const BenchmarkProfile &) const = default;
};

/** Generator realizing a BenchmarkProfile. Deterministic. */
class ProfileGenerator : public TraceGenerator
{
  public:
    explicit ProfileGenerator(const BenchmarkProfile &profile,
                              double scale = 1.0);

    bool next(TraceRecord &rec) override;

    /** Batched decode with statically-dispatched next(). */
    std::size_t fillBatch(TraceRecord *out, std::size_t max) override
    {
        std::size_t n = 0;
        while (n < max && ProfileGenerator::next(out[n]))
            ++n;
        return n;
    }

    void reset() override;

    const BenchmarkProfile &profile() const { return prof_; }

  private:
    void startBurst();

    BenchmarkProfile prof_;
    std::uint64_t target_;
    Rng rng_;
    std::unique_ptr<ZipfGenerator> zipf_;
    std::uint64_t emitted_ = 0;
    std::uint64_t cursor_ = 0;
    std::uint32_t remainingRun_ = 0;
};

/** The 14 Splash2 profiles, in the paper's Fig. 8a order. */
const std::vector<BenchmarkProfile> &splash2Suite();
/** The 10 SPEC06 profiles, in the paper's Fig. 8b order. */
const std::vector<BenchmarkProfile> &spec06Suite();
/** YCSB and TPCC. */
const std::vector<BenchmarkProfile> &dbmsSuite();

/** Look up any profile by name; throws SimFatal if unknown. */
const BenchmarkProfile &profileByName(const std::string &name);

/** Build a fresh generator; @p scale multiplies the access count. */
std::unique_ptr<TraceGenerator>
makeGenerator(const BenchmarkProfile &profile, double scale = 1.0);

} // namespace proram

#endif // PRORAM_TRACE_BENCHMARKS_HH
