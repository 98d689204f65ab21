/**
 * @file
 * Timing-channel protection via periodic ORAM accesses (paper
 * Sec. 2.5 / 5.6): path accesses may start only at public slot
 * boundaries spaced `pathCycles + Oint` apart; idle slots are filled
 * with dummy accesses (same operation as background eviction).
 */

#ifndef PRORAM_ORAM_PERIODIC_HH
#define PRORAM_ORAM_PERIODIC_HH

#include "util/types.hh"

namespace proram
{

/** Periodic-access configuration. */
struct PeriodicConfig
{
    bool enabled = false;
    /** Public interval between consecutive ORAM accesses (cycles). */
    Cycles oInt{100};

    bool operator==(const PeriodicConfig &) const = default;
};

/** Result of scheduling one logical request. */
struct PeriodicGrant
{
    /** Cycle the first path access starts. */
    Cycles start{0};
    /** Cycle the last path access completes (data available). */
    Cycles completion{0};
};

/**
 * Slot bookkeeping. In non-periodic mode this degenerates to simple
 * busy-until serialization (one memory controller, Sec. 2.6).
 */
class PeriodicScheduler
{
  public:
    PeriodicScheduler(const PeriodicConfig &cfg, Cycles path_cycles);

    /**
     * Grant @p num_paths back-to-back path accesses to a request
     * arriving at @p now. In periodic mode the caller must first
     * drainDummies(@p now), so the request takes the first slot at or
     * after @p now; scheduling past an undrained slot panics.
     */
    PeriodicGrant schedule(Cycles now, std::uint64_t num_paths);

    /**
     * Count the idle slots before @p now (periodic mode only): each
     * one is a dummy access the caller must run. The only place that
     * counts idle slots.
     */
    std::uint64_t drainDummies(Cycles now);

    bool enabled() const { return cfg_.enabled; }
    Cycles period() const { return period_; }

  private:
    PeriodicConfig cfg_;
    Cycles pathCycles_;
    Cycles period_;
    /** Next slot boundary (periodic) / controller-free time. */
    Cycles nextFree_{0};
};

} // namespace proram

#endif // PRORAM_ORAM_PERIODIC_HH
