/**
 * @file
 * SecureMemory: the library's primary public facade. A word-
 * addressable oblivious memory backed by the full simulated stack
 * (caches + unified Path ORAM + the selected super-block policy),
 * with functional read/write semantics and cycle accounting.
 *
 * This is what a downstream user embeds to evaluate an application on
 * PrORAM without writing trace files: call read()/write(), then ask
 * for cycles and statistics. The stack is a System built from the
 * config, so the facade runs exactly what a figure run of the same
 * scheme runs: the stream prefetcher under OramPrefetch, and the
 * obliviousness auditor under SystemConfig::audit or PRORAM_AUDIT=1.
 */

#ifndef PRORAM_SIM_SECURE_MEMORY_HH
#define PRORAM_SIM_SECURE_MEMORY_HH

#include <unordered_map>

#include "sim/system.hh"

namespace proram
{

/**
 * Functional + timed oblivious memory. Values are 64-bit words, one
 * per ORAM block (the facade models the line's first word; footprint
 * semantics are per-block).
 */
class SecureMemory
{
  public:
    /** @param cfg must select an ORAM scheme. */
    explicit SecureMemory(const SystemConfig &cfg);

    SecureMemory(const SecureMemory &) = delete;
    SecureMemory &operator=(const SecureMemory &) = delete;

    /** Read the word at byte address @p addr (0 if never written). */
    std::uint64_t read(Addr addr);

    /** Write the word at byte address @p addr. */
    void write(Addr addr, std::uint64_t value);

    /** Advance the clock without memory activity (compute phase). */
    void compute(Cycles cycles) { run_.cycles += cycles; }

    /** Current simulated cycle. */
    Cycles now() const { return run_.cycles; }

    /** Snapshot of run statistics so far (System::result: panics
     *  if the auditor saw a leak). */
    SimResult stats() const { return system_.result(run_); }

    /** gem5-stats.txt-style dump of the component counters. */
    std::string dumpStats() const { return system_.dumpStats(); }

    OramController &controller() { return *system_.controller(); }
    const SystemConfig &config() const { return system_.config(); }

    /** Addressable capacity in bytes. */
    std::uint64_t capacityBytes() const;

  private:
    std::uint64_t access(Addr addr, OpType op, std::uint64_t value);
    BlockId blockOf(Addr addr) const;

    System system_;
    /** Logical value of every written block (reference semantics;
     *  also cross-checked against the ORAM's functional payload). */
    std::unordered_map<BlockId, std::uint64_t> shadow_;
    /** The clock and the core-side counts of the accesses so far. */
    CpuRunResult run_;
    std::uint32_t lineShift_;
};

} // namespace proram

#endif // PRORAM_SIM_SECURE_MEMORY_HH
