#include "sim/secure_memory.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace proram
{

namespace
{

/** @p cfg, once it is known to select an ORAM scheme. */
const SystemConfig &
requireOram(const SystemConfig &cfg)
{
    fatal_if(cfg.scheme == MemScheme::Dram ||
                 cfg.scheme == MemScheme::DramPrefetch,
             "SecureMemory requires an ORAM scheme");
    return cfg;
}

} // namespace

SecureMemory::SecureMemory(const SystemConfig &cfg)
    : system_(requireOram(cfg))
{
    lineShift_ = log2Floor(cfg.oram.blockBytes);
}

BlockId
SecureMemory::blockOf(Addr addr) const
{
    const BlockId block{addr >> lineShift_};
    fatal_if(block.value() >= config().oram.numDataBlocks,
             "address ", addr, " beyond ORAM capacity");
    return block;
}

std::uint64_t
SecureMemory::capacityBytes() const
{
    return config().oram.numDataBlocks *
           static_cast<std::uint64_t>(config().oram.blockBytes);
}

std::uint64_t
SecureMemory::access(Addr addr, OpType op, std::uint64_t value)
{
    const BlockId block = blockOf(addr);
    CacheHierarchy &hierarchy = system_.hierarchy();
    OramController &ctl = controller();
    ++run_.references;

    const HitLevel level = hierarchy.lookup(block, op);
    if (level != HitLevel::Miss) {
        run_.cycles += hierarchy.hitLatency(level);
        if (level == HitLevel::L2)
            ctl.onDemandTouch(run_.cycles, block);
        if (op == OpType::Write)
            shadow_[block] = value;
        auto it = shadow_.find(block);
        return it == shadow_.end() ? 0 : it->second;
    }

    // LLC miss: a full ORAM access.
    ++run_.llcMisses;
    std::uint64_t oram_value = 0;
    const Cycles issue = run_.cycles + hierarchy.hitLatency(HitLevel::L2);
    run_.cycles = ctl.dataAccess(issue, block, op, value,
                                 op == OpType::Read ? &oram_value : nullptr);
    ctl.onDemandTouch(run_.cycles, block);

    if (op == OpType::Read) {
        // Cross-check the ORAM's functional payload against the
        // shadow copy: any divergence is a simulator bug.
        auto it = shadow_.find(block);
        const std::uint64_t expected =
            it == shadow_.end() ? 0 : it->second;
        panic_if(oram_value != expected, "ORAM returned ", oram_value,
                 " but block ", block, " should hold ", expected);
    } else {
        shadow_[block] = value;
    }

    for (const EvictedLine &v : hierarchy.fillFromMemory(
             block, op == OpType::Write)) {
        auto it = shadow_.find(v.block);
        ctl.writebackWithData(run_.cycles, v.block,
                              it == shadow_.end() ? 0 : it->second);
        ++run_.writebacks;
    }

    auto it = shadow_.find(block);
    return it == shadow_.end() ? 0 : it->second;
}

std::uint64_t
SecureMemory::read(Addr addr)
{
    return access(addr, OpType::Read, 0);
}

void
SecureMemory::write(Addr addr, std::uint64_t value)
{
    access(addr, OpType::Write, value);
}

} // namespace proram
