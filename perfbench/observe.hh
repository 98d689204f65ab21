/**
 * @file
 * Outside-in observation of one simulation cell. The stack is
 * assembled from the library's public parts exactly as System wires
 * it (CacheHierarchy, OramController with configure*, TraceCpu), with
 * decorators around the trace generator and the memory backend. The
 * decorators count work and split simulated cycles by cause at those
 * boundaries and, when spans are requested, time every call.
 */

#ifndef PERFBENCH_OBSERVE_HH
#define PERFBENCH_OBSERVE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/system.hh"
#include "trace/benchmarks.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** One grid cell: a profile run under one scheme and configuration. */
struct CellSpec
{
    std::string label;
    proram::SystemConfig cfg;
    proram::BenchmarkProfile profile;
};

/** Layer boundaries the benchmark wraps, one span kind each. */
enum class SpanKind : std::uint8_t
{
    Cell,           ///< sim: one grid cell on a pool thread
    Setup,          ///< stack construction before the first reference
    CpuRun,         ///< cpu + mem: TraceCpu::run
    TraceFill,      ///< trace: TraceGenerator::fillBatch
    Demand,         ///< core: MemBackend::demandAccess
    Writeback,      ///< core: MemBackend::writebackAccess
    WritebackBatch, ///< core: MemBackend::writebackBatch
    Touch,          ///< core: MemBackend::onDemandTouch
    Finalize,       ///< core: MemBackend::finalize
};

const char *spanName(SpanKind kind);

/** True for the spans that time a call into the controller. */
bool isCoreSpan(SpanKind kind);

/** One timed call. Times are ns since the pass epoch. */
struct Span
{
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** ORAM request the call served (0 = none): a demand access, the
     *  touch and write-backs its miss caused share one id. */
    std::uint64_t req = 0;
    /** Index of the enclosing span in the same cell, or kNoParent. */
    std::uint32_t parent = 0;
    SpanKind kind = SpanKind::Cell;

    static constexpr std::uint32_t kNoParent = ~0u;

    std::int64_t ns() const { return endNs - startNs; }
};

/** Per-cell span store; spans stay in memory until the pass ends. */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

    std::uint32_t open(SpanKind kind, std::uint32_t parent,
                       std::uint64_t req = 0)
    {
        Span s;
        s.kind = kind;
        s.parent = parent;
        s.req = req;
        s.startNs = sinceEpoch();
        spans_.push_back(s);
        return static_cast<std::uint32_t>(spans_.size() - 1);
    }

    void close(std::uint32_t idx) { spans_[idx].endNs = sinceEpoch(); }

    std::vector<Span> take() { return std::move(spans_); }

  private:
    std::int64_t sinceEpoch() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
            .count();
    }

    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

/**
 * Every simulated counter one cell leaves behind: what System::run
 * reports plus the controller, policy, PLB, stash and histogram
 * getters. Two runs of the same cell must agree on all of it.
 */
struct SimCounters
{
    proram::SimResult result;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t llcDirtyEvictions = 0;
    proram::ControllerStats ctl;
    proram::PolicyStats policy;
    std::uint64_t plbHits = 0;
    std::uint64_t plbMisses = 0;
    proram::stats::Distribution stash;
    proram::stats::LogHistogram latency;
    proram::stats::LogHistogram walkDepth;
    proram::stats::LogHistogram sbSize;

    /** ORAM requests served: demand misses plus write-backs. */
    std::uint64_t requests() const
    {
        return ctl.realRequests + ctl.writebacks;
    }

    /** Flattened (name, value) view, in a fixed order: the basis of
     *  run-to-run comparison and of the digest. */
    std::vector<std::pair<std::string, std::uint64_t>> fields() const;

    /** Fold another cell's counters in (workload totals). */
    void add(const SimCounters &o);
};

/** Snapshot the counters of a finished stack. */
SimCounters snapshot(const proram::SimResult &result, std::uint64_t l1_hits,
                     std::uint64_t l2_hits,
                     const proram::CacheHierarchy &hierarchy,
                     const proram::OramController &ctl);

/** FNV-1a over every field of every cell, in cell order. */
std::uint64_t digest(const std::vector<SimCounters> &cells);

/**
 * Simulated cycles split by cause. Compute and cache time come from
 * the records and hit counts; each demand stall is split into its own
 * pos-map, data and background-eviction paths at the path latency,
 * and the rest of the stall is waiting (queueing behind write-backs,
 * periodic slot alignment). The parts sum to the run's cycles.
 */
struct CycleSplit
{
    std::uint64_t compute = 0;
    std::uint64_t cache = 0;
    std::uint64_t posmap = 0;
    std::uint64_t data = 0;
    std::uint64_t bgevict = 0;
    std::uint64_t wait = 0;

    std::uint64_t total() const
    {
        return compute + cache + posmap + data + bgevict + wait;
    }
    void add(const CycleSplit &o);
};

/** Result of one observed cell. */
struct Observation
{
    SimCounters counters;
    CycleSplit split;
    /** ORAM requests issued through the backend decorator. */
    std::uint64_t requests = 0;
    /** Requests after which the stash stayed over capacity. */
    std::uint64_t overCapacity = 0;
    /** Empty when the run completed and passed checkIntegrity. */
    std::string error;
    std::vector<Span> spans;
};

/**
 * Build @p cell from public parts, run it, and check that the cycle
 * split sums to the run's cycles and, with @p check_integrity, that
 * the ORAM passes checkIntegrity. Exceptions and failed checks land in
 * Observation::error. With @p spans non-null, every call is timed into
 * it under @p cell_span.
 */
Observation observeCell(const CellSpec &cell, SpanLog *spans,
                        std::uint32_t cell_span, bool check_integrity);

} // namespace perfbench

#endif // PERFBENCH_OBSERVE_HH
