/**
 * @file
 * Flat-latency, bandwidth-limited DRAM timing model.
 *
 * Matches the Graphite DRAM model used by the paper (Sec. 5.1): a fixed
 * access latency (100 cycles) plus a shared data bus whose bandwidth is
 * the pin bandwidth (16 GB/s at 1 GHz => 16 bytes/cycle). Unlike the
 * ORAM backend, multiple DRAM requests may overlap (bank-level
 * parallelism): only the bus transfer serializes.
 */

#ifndef PRORAM_MEM_DRAM_HH
#define PRORAM_MEM_DRAM_HH

#include "util/types.hh"

namespace proram
{

/** Configuration for the DRAM timing model. */
struct DramConfig
{
    /** Fixed access latency in cycles (row access + controller). */
    Cycles latency{100};
    /** Bus bandwidth in bytes per core cycle (16 GB/s @ 1 GHz = 16). */
    double bytesPerCycle = 16.0;
    /** Transfer granularity = cache line size in bytes. */
    std::uint32_t lineBytes = 128;

    bool operator==(const DramConfig &) const = default;
};

/**
 * DRAM timing engine. Tracks when the shared bus frees up; each
 * transfer occupies lineBytes/bytesPerCycle cycles of bus time and the
 * data arrives latency + transfer cycles after the bus grant.
 */
class DramModel
{
  public:
    explicit DramModel(const DramConfig &cfg);

    /**
     * Schedule one line transfer issued at cycle @p now.
     * @return the cycle at which the data is available.
     */
    Cycles schedule(Cycles now);

    /** Bus-occupancy cycles of one line transfer. */
    Cycles transferCycles() const { return transferCycles_; }

    /** Fixed portion of the access latency. */
    Cycles latency() const { return cfg_.latency; }

    std::uint64_t numTransfers() const { return transfers_; }

  private:
    DramConfig cfg_;
    Cycles transferCycles_;
    Cycles busFreeAt_{0};
    std::uint64_t transfers_ = 0;
};

} // namespace proram

#endif // PRORAM_MEM_DRAM_HH
