/**
 * @file
 * The synthetic benchmark of paper Sec. 5.3: an array accessed with a
 * controllable mix of sequential (spatial locality) and random
 * patterns, with optional phase-change behaviour (Fig. 6b) where the
 * sequential and random halves of the array swap roles every phase.
 */

#ifndef PRORAM_TRACE_SYNTHETIC_HH
#define PRORAM_TRACE_SYNTHETIC_HH

#include "trace/generator.hh"
#include "util/random.hh"

namespace proram
{

/** Parameters of the synthetic benchmark. */
struct SyntheticConfig
{
    /** Array size in blocks. */
    std::uint64_t footprintBlocks = 1ULL << 14;
    /** Total references to emit. */
    std::uint64_t numAccesses = 200000;
    /**
     * Fraction of the data with spatial locality (Fig. 6a x-axis):
     * the first localityFraction of the array is scanned
     * sequentially, the rest is accessed randomly; references are
     * spread proportionally to region size.
     */
    double localityFraction = 0.5;
    /**
     * If nonzero, phase-change mode (Fig. 6b): each phase lasts this
     * many accesses; in odd phases the halves swap roles
     * (localityFraction is forced to 0.5).
     */
    std::uint64_t phaseLength = 0;
    /** Core-busy cycles between references (memory intensiveness). */
    std::uint32_t computeCycles = 4;
    /**
     * Step (in blocks) of the sequential pattern: 1 = unit stride;
     * larger values model column-major walks over row-major layouts
     * (the strided-locality workload for the Sec. 6.2 extension).
     */
    std::uint64_t strideBlocks = 1;
    double writeFraction = 0.2;
    std::uint32_t blockBytes = 128;
    std::uint64_t seed = 7;

    bool operator==(const SyntheticConfig &) const = default;
};

/** The generator. Deterministic for a given config. */
class SyntheticGenerator : public TraceGenerator
{
  public:
    explicit SyntheticGenerator(const SyntheticConfig &cfg);

    bool next(TraceRecord &rec) override;

    /** Batched decode with statically-dispatched next(). */
    std::size_t fillBatch(TraceRecord *out, std::size_t max) override
    {
        std::size_t n = 0;
        while (n < max && SyntheticGenerator::next(out[n]))
            ++n;
        return n;
    }

    void reset() override;

    const SyntheticConfig &config() const { return cfg_; }

  private:
    /** [start, start+len) of the currently-sequential region. */
    void currentRegions(std::uint64_t &seq_start, std::uint64_t &seq_len,
                        std::uint64_t &rnd_start,
                        std::uint64_t &rnd_len) const;

    SyntheticConfig cfg_;
    Rng rng_;
    std::uint64_t emitted_ = 0;
    std::uint64_t seqCursor_ = 0;
};

} // namespace proram

#endif // PRORAM_TRACE_SYNTHETIC_HH
