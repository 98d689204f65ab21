#include "observe.hh"

#include <bit>
#include <exception>

#include "oram/integrity.hh"
#include "util/logging.hh"

namespace perfbench
{

using namespace proram;

const char *
spanName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::Cell:
        return "sim.cell";
      case SpanKind::Setup:
        return "sim.setup";
      case SpanKind::CpuRun:
        return "cpu.run";
      case SpanKind::TraceFill:
        return "trace.fillBatch";
      case SpanKind::Demand:
        return "core.demandAccess";
      case SpanKind::Writeback:
        return "core.writebackAccess";
      case SpanKind::WritebackBatch:
        return "core.writebackBatch";
      case SpanKind::Touch:
        return "core.onDemandTouch";
      case SpanKind::Finalize:
        return "core.finalize";
    }
    return "?";
}

bool
isCoreSpan(SpanKind kind)
{
    return kind == SpanKind::Demand || kind == SpanKind::Writeback ||
           kind == SpanKind::WritebackBatch || kind == SpanKind::Touch ||
           kind == SpanKind::Finalize;
}

namespace
{

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
hashString(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

void
addHistogram(std::vector<std::pair<std::string, std::uint64_t>> &out,
             const std::string &name, const stats::LogHistogram &h)
{
    out.emplace_back(name + ".total", h.total());
    out.emplace_back(name + ".max", h.max());
    out.emplace_back(name + ".sum", bits(h.sum()));
    for (std::size_t i = 0; i < stats::LogHistogram::kBuckets; ++i)
        out.emplace_back(name + "[" + std::to_string(i) + "]",
                         h.bucketCount(i));
}

/** Span helper that is free when no log is attached. */
class Scope
{
  public:
    Scope(SpanLog *log, SpanKind kind, std::uint32_t parent,
          std::uint64_t req = 0)
        : log_(log), idx_(log ? log->open(kind, parent, req) : 0)
    {
    }
    ~Scope()
    {
        if (log_)
            log_->close(idx_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::uint32_t index() const { return idx_; }

  private:
    SpanLog *log_;
    std::uint32_t idx_;
};

/** Times fillBatch and sums the compute gaps of every record. */
class ObservedGenerator final : public TraceGenerator
{
  public:
    ObservedGenerator(TraceGenerator &inner, SpanLog *spans,
                      std::uint64_t &compute)
        : inner_(inner), spans_(spans), compute_(compute)
    {
    }

    void setParent(std::uint32_t parent) { parent_ = parent; }

    bool next(TraceRecord &rec) override
    {
        const bool ok = inner_.next(rec);
        if (ok)
            compute_ += rec.computeCycles;
        return ok;
    }

    std::size_t fillBatch(TraceRecord *out, std::size_t max) override
    {
        std::size_t n = 0;
        {
            const Scope s(spans_, SpanKind::TraceFill, parent_);
            n = inner_.fillBatch(out, max);
        }
        for (std::size_t i = 0; i < n; ++i)
            compute_ += out[i].computeCycles;
        return n;
    }

    void reset() override
    {
        inner_.reset();
        compute_ = 0;
    }

  private:
    TraceGenerator &inner_;
    SpanLog *spans_;
    std::uint64_t &compute_;
    std::uint32_t parent_ = Span::kNoParent;
};

/**
 * Forwards every MemBackend call to the controller. Around each ORAM
 * request it reads the controller stats before and after, which gives
 * the request's own path mix, and it checks the stash once the request
 * has spent its background-eviction budget.
 */
class ObservedBackend final : public MemBackend
{
  public:
    ObservedBackend(OramController &ctl, Cycles path_cycles,
                    SpanLog *spans, Observation &obs)
        : ctl_(ctl), pathCycles_(path_cycles.value()), spans_(spans),
          obs_(obs)
    {
    }

    void setParent(std::uint32_t parent) { parent_ = parent; }

    Cycles demandAccess(Cycles now, BlockId block, OpType op) override
    {
        const std::uint64_t req = ++lastReq_;
        const ControllerStats before = ctl_.stats();
        Cycles done{0};
        {
            const Scope s(spans_, SpanKind::Demand, parent_, req);
            done = ctl_.demandAccess(now, block, op);
        }
        const ControllerStats &after = ctl_.stats();
        const std::uint64_t pm = after.posMapAccesses - before.posMapAccesses;
        const std::uint64_t bg = after.bgEvictions - before.bgEvictions;
        const std::uint64_t paths =
            (after.pathAccesses - before.pathAccesses) -
            (after.periodicDummies - before.periodicDummies);
        const std::uint64_t stall = (done - now).value();
        if (paths < pm + bg || paths * pathCycles_ > stall) {
            fail("request " + std::to_string(req) + ": stall of " +
                 std::to_string(stall) + " cycles shorter than its " +
                 std::to_string(paths) + " paths");
        } else {
            obs_.split.posmap += pm * pathCycles_;
            obs_.split.bgevict += bg * pathCycles_;
            obs_.split.data += (paths - pm - bg) * pathCycles_;
            obs_.split.wait += stall - paths * pathCycles_;
        }
        missReq_ = req;
        missBlock_ = block;
        missDone_ = done;
        served();
        return done;
    }

    void writebackAccess(Cycles now, BlockId block) override
    {
        // The core writes LLC victims back right after the miss that
        // displaced them, at the miss's completion cycle.
        const std::uint64_t req = now == missDone_ ? missReq_ : ++lastReq_;
        writeback(now, block, req, parent_);
    }

    void writebackBatch(Cycles now, const BlockId *blocks,
                        std::size_t n) override
    {
        // The interface defines a batch as n writebackAccess calls in
        // order; forwarding it that way observes each write-back as
        // its own request.
        const Scope s(spans_, SpanKind::WritebackBatch, parent_);
        for (std::size_t i = 0; i < n; ++i)
            writeback(now, blocks[i], ++lastReq_, s.index());
    }

    void onDemandTouch(Cycles now, BlockId block) override
    {
        const std::uint64_t req =
            block == missBlock_ && now == missDone_ ? missReq_ : 0;
        const Scope s(spans_, SpanKind::Touch, parent_, req);
        ctl_.onDemandTouch(now, block);
    }

    void finalize(Cycles end) override
    {
        const Scope s(spans_, SpanKind::Finalize, parent_);
        ctl_.finalize(end);
    }

    std::uint64_t memAccessCount() const override
    {
        return ctl_.memAccessCount();
    }

  private:
    void writeback(Cycles now, BlockId block, std::uint64_t req,
                   std::uint32_t parent)
    {
        {
            const Scope s(spans_, SpanKind::Writeback, parent, req);
            ctl_.writebackAccess(now, block);
        }
        served();
    }

    void served()
    {
        ++obs_.requests;
        if (ctl_.oram().engine().stash().overCapacity())
            ++obs_.overCapacity;
    }

    void fail(std::string msg)
    {
        if (obs_.error.empty())
            obs_.error = std::move(msg);
    }

    OramController &ctl_;
    std::uint64_t pathCycles_;
    SpanLog *spans_;
    Observation &obs_;
    std::uint32_t parent_ = Span::kNoParent;
    std::uint64_t lastReq_ = 0;
    std::uint64_t missReq_ = 0;
    BlockId missBlock_ = kInvalidBlock;
    Cycles missDone_{0};
};

void
configure(OramController &ctl, const SystemConfig &cfg)
{
    switch (cfg.scheme) {
      case MemScheme::OramBaseline:
        ctl.configureBaseline();
        return;
      case MemScheme::OramStatic:
        ctl.configureStatic(cfg.staticSbSize);
        return;
      case MemScheme::OramDynamic:
        ctl.configureDynamic(cfg.dynamic);
        return;
      default:
        fatal("perfbench observes ORAM super-block schemes only, not ",
              schemeName(cfg.scheme));
    }
}

} // namespace

std::vector<std::pair<std::string, std::uint64_t>>
SimCounters::fields() const
{
    std::vector<std::pair<std::string, std::uint64_t>> f = {
        {"scheme", hashString(result.scheme)},
        {"cycles", result.cycles.value()},
        {"references", result.references},
        {"llcMisses", result.llcMisses},
        {"writebacks", result.writebacks},
        {"memAccesses", result.memAccesses},
        {"pathAccesses", result.pathAccesses},
        {"posMapAccesses", result.posMapAccesses},
        {"bgEvictions", result.bgEvictions},
        {"periodicDummies", result.periodicDummies},
        {"prefetchHits", result.prefetchHits},
        {"prefetchMisses", result.prefetchMisses},
        {"merges", result.merges},
        {"breaks", result.breaks},
        {"avgStashOccupancy", bits(result.avgStashOccupancy)},
        {"l1Hits", l1Hits},
        {"l2Hits", l2Hits},
        {"llcDirtyEvictions", llcDirtyEvictions},
        {"ctl.realRequests", ctl.realRequests},
        {"ctl.writebacks", ctl.writebacks},
        {"ctl.pathAccesses", ctl.pathAccesses},
        {"ctl.posMapAccesses", ctl.posMapAccesses},
        {"ctl.bgEvictions", ctl.bgEvictions},
        {"ctl.periodicDummies", ctl.periodicDummies},
        {"ctl.traditionalPrefetches", ctl.traditionalPrefetches},
        {"policy.prefetchHits", policy.prefetchHits},
        {"policy.prefetchMisses", policy.prefetchMisses},
        {"policy.merges", policy.merges},
        {"policy.breaks", policy.breaks},
        {"policy.blocksPrefetched", policy.blocksPrefetched},
        {"plbHits", plbHits},
        {"plbMisses", plbMisses},
        {"stash.count", stash.count()},
        {"stash.sum", bits(stash.sum())},
        {"stash.min", bits(stash.min())},
        {"stash.max", bits(stash.max())},
    };
    addHistogram(f, "latency", latency);
    addHistogram(f, "walkDepth", walkDepth);
    addHistogram(f, "sbSize", sbSize);
    return f;
}

void
SimCounters::add(const SimCounters &o)
{
    SimResult &r = result;
    const SimResult &x = o.result;
    r.cycles += x.cycles;
    r.references += x.references;
    r.llcMisses += x.llcMisses;
    r.writebacks += x.writebacks;
    r.memAccesses += x.memAccesses;
    r.pathAccesses += x.pathAccesses;
    r.posMapAccesses += x.posMapAccesses;
    r.bgEvictions += x.bgEvictions;
    r.periodicDummies += x.periodicDummies;
    r.prefetchHits += x.prefetchHits;
    r.prefetchMisses += x.prefetchMisses;
    r.merges += x.merges;
    r.breaks += x.breaks;
    l1Hits += o.l1Hits;
    l2Hits += o.l2Hits;
    llcDirtyEvictions += o.llcDirtyEvictions;
    ctl.realRequests += o.ctl.realRequests;
    ctl.writebacks += o.ctl.writebacks;
    ctl.pathAccesses += o.ctl.pathAccesses;
    ctl.posMapAccesses += o.ctl.posMapAccesses;
    ctl.bgEvictions += o.ctl.bgEvictions;
    ctl.periodicDummies += o.ctl.periodicDummies;
    ctl.traditionalPrefetches += o.ctl.traditionalPrefetches;
    policy.prefetchHits += o.policy.prefetchHits;
    policy.prefetchMisses += o.policy.prefetchMisses;
    policy.merges += o.policy.merges;
    policy.breaks += o.policy.breaks;
    policy.blocksPrefetched += o.policy.blocksPrefetched;
    plbHits += o.plbHits;
    plbMisses += o.plbMisses;
    stash.merge(o.stash);
    latency.merge(o.latency);
    walkDepth.merge(o.walkDepth);
    sbSize.merge(o.sbSize);
    r.avgStashOccupancy = stash.mean();
}

SimCounters
snapshot(const SimResult &result, std::uint64_t l1_hits,
         std::uint64_t l2_hits, const CacheHierarchy &hierarchy,
         const OramController &ctl)
{
    SimCounters c;
    c.result = result;
    c.l1Hits = l1_hits;
    c.l2Hits = l2_hits;
    c.llcDirtyEvictions = hierarchy.llc().dirtyEvictions();
    c.ctl = ctl.stats();
    c.policy = ctl.policyStats();
    c.plbHits = ctl.oram().plb().hits();
    c.plbMisses = ctl.oram().plb().misses();
    c.stash = ctl.oram().engine().stash().occupancy();
    c.latency = ctl.requestLatencyHist();
    c.walkDepth = ctl.walkDepthHist();
    c.sbSize = ctl.sbSizeHist();
    return c;
}

std::uint64_t
digest(const std::vector<SimCounters> &cells)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const SimCounters &c : cells) {
        for (const auto &[name, value] : c.fields())
            h = fnv1a(h, value);
    }
    return h;
}

void
CycleSplit::add(const CycleSplit &o)
{
    compute += o.compute;
    cache += o.cache;
    posmap += o.posmap;
    data += o.data;
    bgevict += o.bgevict;
    wait += o.wait;
}

Observation
observeCell(const CellSpec &cell, SpanLog *spans, std::uint32_t cell_span,
            bool check_integrity)
{
    Observation obs;
    try {
        const SystemConfig &cfg = cell.cfg;
        // Set-up is the work System's constructor does: validation,
        // hierarchy, tree placement and policy.
        const std::uint32_t setup =
            spans ? spans->open(SpanKind::Setup, cell_span) : 0;
        std::uint32_t run_span = Span::kNoParent;
        cfg.validate();
        CacheHierarchy hierarchy(cfg.hierarchy);
        OramController ctl(cfg.oram, cfg.controller, hierarchy);
        configure(ctl, cfg);
        ProfileGenerator profile_gen(cell.profile);
        ObservedGenerator gen(profile_gen, spans, obs.split.compute);
        ObservedBackend backend(ctl, cfg.oram.pathAccessCycles(), spans,
                                obs);
        TraceCpu cpu(hierarchy, backend, cfg.hierarchy.l1.lineBytes,
                     cfg.cpuBatch);
        if (spans) {
            spans->close(setup);
            run_span = spans->open(SpanKind::CpuRun, cell_span);
        }
        gen.setParent(run_span);
        backend.setParent(run_span);
        const CpuRunResult run = cpu.run(gen);
        if (spans)
            spans->close(run_span);

        // The same fields System::run reports.
        SimResult res;
        res.scheme = schemeName(cfg.scheme);
        res.cycles = run.cycles;
        res.references = run.references;
        res.llcMisses = run.llcMisses;
        res.writebacks = run.writebacks;
        res.memAccesses = backend.memAccessCount();
        const ControllerStats &cs = ctl.stats();
        const PolicyStats &ps = ctl.policyStats();
        res.pathAccesses = cs.pathAccesses;
        res.posMapAccesses = cs.posMapAccesses;
        res.bgEvictions = cs.bgEvictions;
        res.periodicDummies = cs.periodicDummies;
        res.prefetchHits = ps.prefetchHits;
        res.prefetchMisses = ps.prefetchMisses;
        res.merges = ps.merges;
        res.breaks = ps.breaks;
        res.avgStashOccupancy =
            ctl.oram().engine().stash().occupancy().mean();
        obs.counters = snapshot(res, run.l1Hits, run.l2Hits, hierarchy, ctl);

        obs.split.cache =
            run.l1Hits * hierarchy.hitLatency(HitLevel::L1).value() +
            (run.l2Hits + run.llcMisses) *
                hierarchy.hitLatency(HitLevel::L2).value();
        if (obs.error.empty() && obs.split.total() != run.cycles.value()) {
            obs.error = "cycle split sums to " +
                        std::to_string(obs.split.total()) + ", run took " +
                        std::to_string(run.cycles.value());
        }
        if (obs.error.empty() && check_integrity) {
            const IntegrityReport rep = checkIntegrity(ctl.oram());
            if (!rep.ok)
                obs.error = "integrity: " + rep.violations.front();
        }
    } catch (const std::exception &e) {
        obs.error = e.what();
    }
    return obs;
}

} // namespace perfbench
