#include "sim/system.hh"

#include "obs/metrics.hh"
#include "util/bits.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace proram
{

System::System(const SystemConfig &cfg) : cfg_(cfg)
{
    cfg_.validate();
    hierarchy_ = std::make_unique<CacheHierarchy>(cfg_.hierarchy);

    switch (cfg_.scheme) {
      case MemScheme::Dram:
      case MemScheme::DramPrefetch:
        backend_ = std::make_unique<DramBackend>(
            cfg_.dram, cfg_.scheme == MemScheme::DramPrefetch);
        break;
      case MemScheme::OramBaseline:
      case MemScheme::OramPrefetch:
      case MemScheme::OramStatic:
      case MemScheme::OramDynamic: {
        auto ctl = std::make_unique<OramController>(
            cfg_.oram, cfg_.controller, *hierarchy_);
        if (cfg_.scheme == MemScheme::OramPrefetch)
            ctl->configurePrefetch();
        else if (cfg_.scheme == MemScheme::OramStatic)
            ctl->configureStatic(cfg_.staticSbSize);
        else if (cfg_.scheme == MemScheme::OramDynamic)
            ctl->configureDynamic(cfg_.dynamic);
        else
            ctl->configureBaseline();
        controller_ = ctl.get();
        backend_ = std::move(ctl);
        break;
      }
    }

    if (controller_ && (cfg_.audit.enabled || env::flag("PRORAM_AUDIT"))) {
        const PeriodicScheduler &sched = controller_->scheduler();
        const std::uint64_t num_leaves = 1ULL << cfg_.oram.levels();
        auditor_ = std::make_unique<obs::ObliviousnessAuditor>(
            cfg_.audit, num_leaves,
            sched.enabled() ? sched.period() : Cycles{0});
        controller_->attachAuditor(auditor_.get());
    }

    cpu_ = std::make_unique<TraceCpu>(*hierarchy_, *backend_,
                                      cfg_.hierarchy.l1.lineBytes,
                                      cfg_.cpuBatch);
}

System::~System() = default;

std::string
System::dumpStats() const
{
    std::string out = hierarchy_->buildStatGroup().dump();
    if (controller_)
        out += controller_->buildStatGroup().dump();
    return out;
}

std::string
System::metricsJson() const
{
    obs::MetricsRegistry reg;
    reg.addLabel("scheme", schemeName(cfg_.scheme));
    if (controller_)
        reg.addLabel("oramScheme", controller_->oram().engine().name());
    reg.addGroup(hierarchy_->buildStatGroup());
    if (controller_) {
        reg.addGroup(controller_->buildStatGroup());
        reg.addLogHistogram(
            "requestLatency",
            "cycles from request arrival to grant completion",
            &controller_->requestLatencyHist());
        reg.addLogHistogram(
            "posMapWalkDepth",
            "position-map paths fetched per demand access",
            &controller_->walkDepthHist());
        reg.addLogHistogram(
            "superBlockSize",
            "super-block size of each accessed block (post-policy)",
            &controller_->sbSizeHist());
        reg.addDistribution(
            "stashOccupancy", "stash blocks after each write-back",
            &controller_->oram().engine().stash().occupancy());
    }
    return reg.json();
}

SimResult
System::run(TraceGenerator &gen)
{
    return result(cpu_->run(gen));
}

SimResult
System::result(const CpuRunResult &cpu) const
{
    SimResult res;
    res.scheme = schemeName(cfg_.scheme);
    res.cycles = cpu.cycles;
    res.references = cpu.references;
    res.llcMisses = cpu.llcMisses;
    res.memAccesses = backend_->memAccessCount();
    if (!controller_) {
        res.writebacks = cpu.writebacks;
        return res;
    }

    static_cast<ControllerStats &>(res) = controller_->stats();
    static_cast<PolicyStats &>(res) = controller_->policyStats();
    // Each LLC write-back is one controller request.
    panic_if(res.writebacks != cpu.writebacks, "the controller served ",
             res.writebacks, " write-backs, the core issued ",
             cpu.writebacks);
    res.avgStashOccupancy =
        controller_->oram().engine().stash().occupancy().mean();

    if (auditor_) {
        const obs::AuditReport rep = auditor_->report();
        panic_if(!rep.pass(),
                 "obliviousness audit FAILED for scheme ",
                 schemeName(cfg_.scheme), "\n", rep.summary());
    }
    return res;
}

namespace
{

/** Deterministic per-record write payload: a function of the trace
 *  index only, so a reference memory can predict every read. */
std::uint64_t
writePayload(std::size_t index)
{
    return (static_cast<std::uint64_t>(index) + 1) *
           0x9E3779B97F4A7C15ULL;
}

} // namespace

SimResult
System::runQueue(const std::vector<TraceRecord> &records,
                 std::vector<std::uint64_t> *payloads)
{
    panic_if(!controller_,
             "runQueue drives the ORAM controller directly; use run() "
             "for DRAM schemes");
    const std::uint32_t shift = log2Floor(cfg_.hierarchy.l1.lineBytes);
    if (payloads != nullptr)
        payloads->assign(records.size(), 0);
    for (std::size_t i = 0; i < records.size(); ++i) {
        controller_->dataAccess(
            controller_->busyUntil(), BlockId{records[i].addr >> shift},
            records[i].op, writePayload(i),
            payloads != nullptr ? &(*payloads)[i] : nullptr);
    }

    CpuRunResult run;
    run.cycles = controller_->busyUntil();
    run.references = records.size();
    return result(run);
}

} // namespace proram
