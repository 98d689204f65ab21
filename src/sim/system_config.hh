/**
 * @file
 * Top-level system configuration mirroring Table 1 of the paper, plus
 * the scheme selector the evaluation sweeps.
 */

#ifndef PRORAM_SIM_SYSTEM_CONFIG_HH
#define PRORAM_SIM_SYSTEM_CONFIG_HH

#include <string>

#include "core/dynamic_policy.hh"
#include "core/oram_controller.hh"
#include "mem/cache_hierarchy.hh"
#include "mem/dram_backend.hh"
#include "obs/audit.hh"

namespace proram
{

/** The memory-system variants the paper compares. */
enum class MemScheme : std::uint8_t
{
    Dram,            ///< insecure DRAM baseline
    DramPrefetch,    ///< DRAM + traditional prefetcher (Fig. 5)
    OramBaseline,    ///< unified Path ORAM, no super blocks
    OramPrefetch,    ///< ORAM + traditional prefetcher (Fig. 5)
    OramStatic,      ///< static super block scheme (Sec. 3.3)
    OramDynamic,     ///< PrORAM dynamic super block scheme (Sec. 4)
};

/** Printable scheme name matching the paper's figure legends. */
const char *schemeName(MemScheme scheme);

/** Everything needed to build one System. */
struct SystemConfig
{
    MemScheme scheme = MemScheme::OramBaseline;

    HierarchyConfig hierarchy{};
    OramConfig oram{};
    ControllerConfig controller{};
    DramBackendConfig dram{};

    /**
     * Trace records the core decodes per batch (the drive-loop
     * pipeline; results are bit-identical for every size). 0 =
     * RequestBatch::kDefaultSize. Capped at RequestBatch::kCapacity.
     */
    std::uint32_t cpuBatch = 0;

    /** Static super block size n (Sec. 3.3). */
    std::uint32_t staticSbSize = 2;
    /** Dynamic scheme knobs (Sec. 4.4). */
    DynamicPolicyConfig dynamic{};

    /**
     * Obliviousness auditor (ORAM schemes only; ignored for DRAM).
     * Also enableable per-run with PRORAM_AUDIT=1. A failed audit at
     * end-of-run is a panic: the simulated hardware leaked.
     */
    obs::AuditConfig audit{};

    /**
     * Set line/block size everywhere at once (the paper couples
     * cacheline size and ORAM block size; Fig. 14 sweeps them
     * together).
     */
    void setLineBytes(std::uint32_t bytes);

    /** Set the DRAM bandwidth in GB/s at 1 GHz (Fig. 11). */
    void setDramBandwidthGBs(double gbs);

    /** Consistency checks across subsystems. */
    void validate() const;

    bool operator==(const SystemConfig &) const = default;
};

/** Table 1 defaults. */
SystemConfig defaultSystemConfig();

} // namespace proram

#endif // PRORAM_SIM_SYSTEM_CONFIG_HH
