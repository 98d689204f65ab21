/**
 * @file
 * System wiring: one core + cache hierarchy + memory backend,
 * assembled from a SystemConfig, with run-level result extraction.
 */

#ifndef PRORAM_SIM_SYSTEM_HH
#define PRORAM_SIM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/trace_cpu.hh"
#include "obs/audit.hh"
#include "sim/system_config.hh"

namespace proram
{

/**
 * Everything a figure needs from one simulation run: the controller's
 * and the policy's counters, plus the core's counts. Under a DRAM
 * scheme the two structs stay zero but for writebacks, the core's.
 */
struct SimResult : ControllerStats, PolicyStats
{
    std::string scheme;
    Cycles cycles{0};
    std::uint64_t references = 0;
    std::uint64_t llcMisses = 0;
    /** Total memory-subsystem accesses (ORAM paths / DRAM lines). */
    std::uint64_t memAccesses = 0;
    double avgStashOccupancy = 0.0;
};

/**
 * A complete simulated secure processor (or insecure baseline).
 * Construct, run one trace, read the result. Single-shot: build a
 * fresh System per run so state never leaks between experiments.
 */
class System
{
  public:
    explicit System(const SystemConfig &cfg);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Run @p gen to completion and collect results. */
    SimResult run(TraceGenerator &gen);

    /**
     * The run's SimResult: the core-side counts @p cpu plus the
     * backend's and the controller's counters. Panics if the auditor
     * saw a leak. run(), runQueue() and SecureMemory::stats() all
     * report through it.
     */
    SimResult result(const CpuRunResult &cpu) const;

    /**
     * Serial queue drive: issue @p records back to back, each one
     * OramController::dataAccess at the controller's busy-until clock.
     * Bypasses the cache hierarchy - every record is one ORAM access.
     * Writes carry a deterministic payload derived from the record
     * index; @p payloads (when non-null) receives the value each
     * access observed, so a run can be checked against a trace-order
     * reference memory. ORAM schemes only.
     */
    SimResult runQueue(const std::vector<TraceRecord> &records,
                       std::vector<std::uint64_t> *payloads = nullptr);

    /** gem5-stats.txt-style dump of every component's counters. */
    std::string dumpStats() const;

    /**
     * Machine-readable twin of dumpStats(): every StatGroup plus the
     * observability histograms as one proram-metrics-v1 JSON object.
     */
    std::string metricsJson() const;

    CacheHierarchy &hierarchy() { return *hierarchy_; }
    MemBackend &backend() { return *backend_; }
    /** Non-null only for ORAM schemes. */
    OramController *controller() { return controller_; }
    /** Non-null only when auditing an ORAM scheme (config or env). */
    obs::ObliviousnessAuditor *auditor() { return auditor_.get(); }
    const SystemConfig &config() const { return cfg_; }

  private:
    SystemConfig cfg_;
    std::unique_ptr<CacheHierarchy> hierarchy_;
    std::unique_ptr<MemBackend> backend_;
    OramController *controller_ = nullptr;
    std::unique_ptr<obs::ObliviousnessAuditor> auditor_;
    std::unique_ptr<TraceCpu> cpu_;
};

} // namespace proram

#endif // PRORAM_SIM_SYSTEM_HH
