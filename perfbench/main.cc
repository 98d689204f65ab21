/**
 * @file
 * The repository's end-to-end benchmark. One invocation runs one
 * workload. Untraced (--trace 0) it reports host time (set-up, wall,
 * references per second, peak RSS) and the simulated results (cycles
 * and ORAM paths per reference, failed requests). Traced (--trace 1)
 * it times each layer from outside and reports the per-layer metrics.
 * Every invocation checks its outputs and exits nonzero when a check
 * fails. README.md beside this file describes the workloads.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "observe.hh"
#include "sim/experiment.hh"
#include "util/random.hh"

extern char **environ;

namespace perfbench
{
namespace
{

using namespace proram;

constexpr const char *kUsage =
    "usage: perfbench --workload stream_dyn|random_big|periodic_grid\n"
    "                 [--seed N] [--seconds S] [--trace 0|1]\n"
    "                 [--spans-dir DIR]\n";

/** Untraced repetitions per invocation, at least. */
constexpr std::size_t kMinReps = 3;
/** Share of each repetition's time spent on set-up-only passes. */
constexpr double kSetupShare = 0.1;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string spansDir;
};

struct Workload
{
    std::string name;
    unsigned threads = 1;
    std::vector<CellSpec> cells;
};

/** Mix the command-line seed into a profile's or a tree's own seed. */
std::uint64_t
mixSeed(std::uint64_t base, std::uint64_t seed)
{
    return base ^ Rng(seed).next();
}

/** Table 1 defaults on Path ORAM under @p scheme. */
SystemConfig
pathConfig(MemScheme scheme, std::uint64_t seed)
{
    SystemConfig cfg = defaultSystemConfig();
    cfg.scheme = scheme;
    cfg.oram.scheme = SchemeKind::Path;
    cfg.oram.seed = mixSeed(cfg.oram.seed, seed);
    return cfg;
}

CellSpec
makeCell(BenchmarkProfile profile, const SystemConfig &cfg,
         std::uint64_t seed, const std::string &suffix = "")
{
    profile.seed = mixSeed(profile.seed, seed);
    return {profile.name + "/" + schemeName(cfg.scheme) + suffix, cfg,
            profile};
}

/** The workloads; README.md records why each was chosen. */
bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload &w)
{
    w.name = name;
    if (name == "stream_dyn") {
        for (const char *p : {"ocean_c", "ocean_nc", "YCSB"}) {
            w.cells.push_back(
                makeCell(profileByName(p),
                         pathConfig(MemScheme::OramDynamic, seed), seed));
        }
    } else if (name == "random_big") {
        BenchmarkProfile p = profileByName("mcf");
        p.name = "mcf_wide";
        p.footprintBlocks = 1ULL << 20;
        p.writeFraction = 0.5;
        SystemConfig cfg = pathConfig(MemScheme::OramBaseline, seed);
        cfg.oram.numDataBlocks = 1ULL << 20;
        w.cells.push_back(makeCell(p, cfg, seed));
    } else if (name == "periodic_grid") {
        w.threads = std::max(1u, std::thread::hardware_concurrency());
        for (const auto *suite : {&splash2Suite(), &spec06Suite()}) {
            for (const BenchmarkProfile &p : *suite) {
                if (p.memoryIntensive)
                    continue;
                for (const MemScheme s :
                     {MemScheme::OramBaseline, MemScheme::OramDynamic}) {
                    SystemConfig cfg = pathConfig(s, seed);
                    cfg.controller.periodic.enabled = true;
                    cfg.controller.periodic.oInt = Cycles{100};
                    w.cells.push_back(makeCell(p, cfg, seed, "@oint100"));
                }
            }
        }
    } else {
        return false;
    }
    return true;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile of @p v (sorted in place). */
double
percentile(std::vector<std::int64_t> &v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return static_cast<double>(v[std::max<std::size_t>(rank, 1) - 1]);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * Serial repetitions run on each allowed CPU in turn. The host's CPUs
 * share physical cores with other tenants and a thread tends to stay
 * where it started, so without rotation one busy neighbour can slow a
 * whole run; with it, that neighbour slows one repetition in N.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&all_);
        if (sched_getaffinity(0, sizeof(all_), &all_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &all_))
                cpus_.push_back(c);
        }
    }

    ~CpuRotation()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof(all_), &all_);
    }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Pin the calling thread to the next CPU. Only for serial
     *  passes: pool threads would inherit the pin. */
    void next()
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

  private:
    cpu_set_t all_;
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

/** One cell of one pass. */
struct CellRun
{
    Observation obs;
    double setupS = 0.0;
    double runS = 0.0;
};

/** One run of every cell of a workload. */
struct Pass
{
    double wallS = 0.0;
    std::vector<CellRun> cells;
};

/** Run @p body once per cell through Experiment::runGrid. */
Pass
gridPass(const Workload &w,
         const std::function<void(std::size_t, CellRun &)> &body)
{
    Pass pass;
    pass.cells.resize(w.cells.size());
    std::vector<Experiment::GridCell> grid;
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        grid.push_back([&body, &pass, i] {
            body(i, pass.cells[i]);
            return pass.cells[i].obs.counters.result;
        });
    }
    const Experiment exp(defaultSystemConfig());
    const auto t0 = Clock::now();
    exp.runGrid(grid, w.threads);
    pass.wallS = secondsSince(t0);
    return pass;
}

/** Untraced: every cell builds a System and runs it. */
Pass
systemPass(const Workload &w)
{
    return gridPass(w, [&w](std::size_t i, CellRun &out) {
        const CellSpec &cell = w.cells[i];
        try {
            const auto t0 = Clock::now();
            System sys(cell.cfg);
            ProfileGenerator gen(cell.profile);
            const auto t1 = Clock::now();
            const SimResult r = sys.run(gen);
            out.runS = secondsSince(t1);
            out.setupS = std::chrono::duration<double>(t1 - t0).count();
            const CacheHierarchy &h = sys.hierarchy();
            out.obs.counters = snapshot(r, h.l1().hits(), h.llc().hits(), h,
                                        *sys.controller());
        } catch (const std::exception &e) {
            out.obs.error = e.what();
        }
    });
}

/** Every cell on the observed stack; with @p traced, spans too. */
Pass
observedPass(const Workload &w, bool traced, bool check_integrity)
{
    const auto epoch = Clock::now();
    return gridPass(w, [&](std::size_t i, CellRun &out) {
        if (!traced) {
            out.obs = observeCell(w.cells[i], nullptr, 0, check_integrity);
            return;
        }
        SpanLog log(epoch);
        const std::uint32_t cell = log.open(SpanKind::Cell, Span::kNoParent);
        out.obs = observeCell(w.cells[i], &log, cell, check_integrity);
        log.close(cell);
        out.obs.spans = log.take();
    });
}

/** Host seconds to build every cell's System and generator. */
double
setupPass(const Workload &w)
{
    double total = 0.0;
    for (const CellSpec &cell : w.cells) {
        const auto t0 = Clock::now();
        const System sys(cell.cfg);
        const ProfileGenerator gen(cell.profile);
        total += secondsSince(t0);
    }
    return total;
}

/** Output checks and request counts of one invocation. */
struct Verdict
{
    std::vector<std::string> problems;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** Count the reference pass's requests; a request fails when its run
 *  failed a check or it left the stash over capacity. */
void
tally(const Workload &w, const Pass &ref, Verdict &v)
{
    for (std::size_t i = 0; i < ref.cells.size(); ++i) {
        const Observation &o = ref.cells[i].obs;
        v.attempted += o.requests;
        if (o.error.empty()) {
            v.failed += o.overCapacity;
        } else {
            v.failed += o.requests;
            v.problems.push_back(w.cells[i].label + ": " + o.error);
        }
    }
}

/** Every cell of @p pass must reproduce the reference pass exactly. */
void
compare(const Workload &w, const Pass &ref, const Pass &pass,
        const char *what, bool observed, Verdict &v)
{
    for (std::size_t i = 0; i < ref.cells.size(); ++i) {
        const Observation &a = ref.cells[i].obs;
        const Observation &b = pass.cells[i].obs;
        const std::string where = w.cells[i].label + " (" + what + ")";
        if (!b.error.empty() && a.error.empty())
            v.problems.push_back(where + ": " + b.error);
        if (!a.error.empty() || !b.error.empty())
            continue;
        const auto fa = a.counters.fields();
        const auto fb = b.counters.fields();
        for (std::size_t k = 0; k < fa.size(); ++k) {
            if (fa[k].second != fb[k].second) {
                v.problems.push_back(where + ": " + fa[k].first + " " +
                                     std::to_string(fb[k].second) +
                                     " differs from reference " +
                                     std::to_string(fa[k].second));
                break;
            }
        }
        const CycleSplit &x = a.split;
        const CycleSplit &y = b.split;
        if (observed &&
            (x.compute != y.compute || x.cache != y.cache ||
             x.posmap != y.posmap || x.data != y.data ||
             x.bgevict != y.bgevict || x.wait != y.wait ||
             a.requests != b.requests || a.overCapacity != b.overCapacity)) {
            v.problems.push_back(where +
                                 ": cycle split or request count differs");
        }
    }
}

std::vector<SimCounters>
countersOf(const Pass &pass)
{
    std::vector<SimCounters> out;
    for (const CellRun &c : pass.cells)
        out.push_back(c.obs.counters);
    return out;
}

SimCounters
totalOf(const Pass &pass)
{
    SimCounters t;
    for (const CellRun &c : pass.cells)
        t.add(c.obs.counters);
    return t;
}

CycleSplit
splitOf(const Pass &pass)
{
    CycleSplit s;
    for (const CellRun &c : pass.cells)
        s.add(c.obs.split);
    return s;
}

/** Named metrics, printed one per line and as the result JSON. */
class Report
{
  public:
    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics_.push_back({name, value, unit});
    }

    void print() const
    {
        for (const Metric &m : metrics_)
            std::printf("%-28s %s %s\n", m.name.c_str(),
                        number(m.value).c_str(), m.unit.c_str());
    }

    std::string json(bool correct, std::uint64_t attempted,
                     std::uint64_t failed) const
    {
        std::string s = "{\"correct\": ";
        s += correct ? "true" : "false";
        s += ", \"attempted\": " + std::to_string(attempted);
        s += ", \"failed\": " + std::to_string(failed);
        s += ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const Metric &m = metrics_[i];
            s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                 number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
        }
        return s + "}}";
    }

    /** Shortest text that reads back as exactly @p v. */
    static std::string number(double v)
    {
        char buf[64];
        const auto res = std::to_chars(buf, buf + sizeof(buf), v);
        return std::string(buf, res.ptr);
    }

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
};

std::string
cpuInfo(const char *key)
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(key, 0) != 0)
            continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            break;
        const std::size_t start = line.find_first_not_of(" \t", colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
    }
    return "unknown";
}

/** Host fingerprint: results from different hosts do not compare. */
void
printHost()
{
#if defined(__clang__)
    const char *compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    const char *compiler = "gcc " __VERSION__;
#else
    const char *compiler = "unknown";
#endif
#ifdef PERFBENCH_BUILD_TYPE
    const char *build = PERFBENCH_BUILD_TYPE;
#else
    const char *build = "unknown";
#endif
    std::printf("host cpu=\"%s\" mhz=%s nproc=%u compiler=\"%s\" "
                "build=%s\n",
                cpuInfo("model name").c_str(), cpuInfo("cpu MHz").c_str(),
                std::thread::hardware_concurrency(), compiler, build);
}

/** Simulated end-to-end results of one reference pass, one line. */
void
printSimulated(const char *tag, std::uint64_t seed, const Pass &ref,
               const Verdict &v)
{
    const SimCounters t = totalOf(ref);
    const double refs = static_cast<double>(t.result.references);
    std::printf("%s seed=%llu sim_cycles_per_ref=%s oram_paths_per_ref=%s "
                "failed_frac=%s (%llu of %llu requests) "
                "sim_digest=%016llx\n",
                tag, static_cast<unsigned long long>(seed),
                Report::number(ratio(t.result.cycles.value(), refs)).c_str(),
                Report::number(ratio(t.result.memAccesses, refs)).c_str(),
                Report::number(ratio(v.failed, v.attempted)).c_str(),
                static_cast<unsigned long long>(v.failed),
                static_cast<unsigned long long>(v.attempted),
                static_cast<unsigned long long>(digest(countersOf(ref))));
}

/** --trace 0: the end-to-end metrics. */
void
measureEndToEnd(const Options &opt, const Workload &w, const Pass &ref,
                Verdict &v, Report &rep)
{
    const double refs =
        static_cast<double>(totalOf(ref).result.references);
    const auto t0 = Clock::now();
    std::vector<double> setups;
    std::vector<double> walls;
    std::vector<double> rates;
    double last_wall = 0.0;
    CpuRotation rotation;
    do {
        if (w.threads == 1)
            rotation.next();
        // Set-up passes share each repetition's time window, so slow
        // phases of the host weigh on set-up and run time alike.
        const auto s0 = Clock::now();
        do {
            setups.push_back(setupPass(w));
        } while (secondsSince(s0) < kSetupShare * last_wall);

        const Pass p = systemPass(w);
        compare(w, ref, p, "untraced", false, v);
        double run = 0.0;
        for (const CellRun &c : p.cells)
            run += c.runS;
        walls.push_back(p.wallS);
        last_wall = p.wallS;
        // Serial workloads exclude set-up; the pool overlaps set-up
        // with other cells' runs, so a grid counts its wall time.
        rates.push_back(refs / (w.threads == 1 ? run : p.wallS));
    } while (walls.size() < kMinReps || secondsSince(t0) < opt.seconds);

    // Other tenants of the host only ever add time, in phases that can
    // cover a whole repetition, so the fastest repetition estimates the
    // simulator's own cost far more steadily than the median does
    // (README.md, "Host noise"). Set-up samples are many and short.
    const SimCounters t = totalOf(ref);
    rep.add("setup_s", median(setups), "s");
    rep.add("wall_s", *std::min_element(walls.begin(), walls.end()), "s");
    rep.add("refs_per_s", *std::max_element(rates.begin(), rates.end()),
            "refs/s");
    rep.add("peak_rss_mb", peakRssMb(), "MB");
    rep.add("sim_cycles_per_ref", ratio(t.result.cycles.value(), refs),
            "cycles/ref");
    rep.add("oram_paths_per_ref", ratio(t.result.memAccesses, refs),
            "paths/ref");
    rep.print();
    std::printf("%-28s %s ratio\n", "failed_frac",
                Report::number(ratio(v.failed, v.attempted)).c_str());
    std::printf("reps=%zu setup_passes=%zu wall_s:", walls.size(),
                setups.size());
    for (const double s : walls)
        std::printf(" %.4f", s);
    std::printf("\n");
    printSimulated("simulated", opt.seed, ref, v);

    // The simulated results at a second seed, to check claims on a
    // seed they were not tuned on.
    Workload w2;
    makeWorkload(w.name, opt.seed + 1, w2);
    const Pass ref2 = observedPass(w2, false, true);
    Verdict v2;
    tally(w2, ref2, v2);
    printSimulated("second", opt.seed + 1, ref2, v2);
    for (const std::string &p : v2.problems)
        v.problems.push_back("second seed: " + p);
}

/** Host time of the traced passes, split by layer. */
struct LayerTimes
{
    std::int64_t cpuRunNs = 0;
    std::int64_t traceNs = 0;
    std::int64_t coreNs = 0;
    std::int64_t setupNs = 0;
    std::int64_t writebackNs = 0;
    std::int64_t touchNs = 0;
    std::uint64_t demandCalls = 0;
    std::uint64_t writebackCalls = 0;
    std::uint64_t touchCalls = 0;
    std::vector<std::int64_t> demandNs;
    std::vector<double> busyFrac;
    std::vector<double> longestCellS;
    std::size_t passes = 0;

    void add(const Pass &p, unsigned threads)
    {
        ++passes;
        double cell_sum = 0.0;
        double cell_max = 0.0;
        for (const CellRun &c : p.cells) {
            const std::vector<Span> &spans = c.obs.spans;
            for (const Span &s : spans) {
                switch (s.kind) {
                  case SpanKind::Cell:
                    cell_sum += 1e-9 * static_cast<double>(s.ns());
                    cell_max = std::max(cell_max,
                                        1e-9 * static_cast<double>(s.ns()));
                    break;
                  case SpanKind::Setup:
                    setupNs += s.ns();
                    break;
                  case SpanKind::CpuRun:
                    cpuRunNs += s.ns();
                    break;
                  case SpanKind::TraceFill:
                    traceNs += s.ns();
                    break;
                  case SpanKind::Demand:
                    ++demandCalls;
                    demandNs.push_back(s.ns());
                    break;
                  case SpanKind::Writeback:
                    ++writebackCalls;
                    writebackNs += s.ns();
                    break;
                  case SpanKind::Touch:
                    ++touchCalls;
                    touchNs += s.ns();
                    break;
                  default:
                    break;
                }
                // Core time is the calls the core makes directly; the
                // write-backs inside a batch are already in the batch.
                if (isCoreSpan(s.kind) && s.parent != Span::kNoParent &&
                    spans[s.parent].kind == SpanKind::CpuRun)
                    coreNs += s.ns();
            }
        }
        const double used = static_cast<double>(
            std::min<std::size_t>(threads, p.cells.size()));
        busyFrac.push_back(ratio(cell_sum, used * p.wallS));
        longestCellS.push_back(cell_max);
    }
};

/** Write the first spans of every cell of @p pass as TSV. A full pass
 *  holds about a million spans; the dump keeps its size bounded. */
void
writeSpans(const std::string &dir, const Workload &w, const Pass &pass)
{
    constexpr std::size_t kMaxRows = 200000;
    const std::size_t per_cell = kMaxRows / std::max<std::size_t>(
                                                1, pass.cells.size());
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/" + w.name + ".tsv";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "# first %zu spans of each cell;", per_cell);
    for (std::size_t i = 0; i < w.cells.size(); ++i)
        std::fprintf(f, " %zu=%s", i, w.cells[i].label.c_str());
    std::fprintf(f, "\ncell\tspan\tparent\tname\treq\tstart_ns\tend_ns\n");
    for (std::size_t i = 0; i < pass.cells.size(); ++i) {
        const std::vector<Span> &spans = pass.cells[i].obs.spans;
        for (std::size_t k = 0; k < std::min(per_cell, spans.size()); ++k) {
            const Span &s = spans[k];
            std::fprintf(f, "%zu\t%zu\t%lld\t%s\t%llu\t%lld\t%lld\n", i, k,
                         s.parent == Span::kNoParent
                             ? -1LL
                             : static_cast<long long>(s.parent),
                         spanName(s.kind),
                         static_cast<unsigned long long>(s.req),
                         static_cast<long long>(s.startNs),
                         static_cast<long long>(s.endNs));
        }
    }
    std::fclose(f);
    std::printf("spans written to %s\n", path.c_str());
}

/** --trace 1: the per-layer metrics. */
void
measureLayers(const Options &opt, const Workload &w, const Pass &ref,
              Verdict &v, Report &rep)
{
    // Untraced and traced passes alternate on the same CPU, and the
    // overhead is the median of the pairs' ratios, so drift on the
    // host affects both sides of each ratio alike.
    const auto t0 = Clock::now();
    std::vector<double> overheads;
    LayerTimes lt;
    Pass last;
    CpuRotation rotation;
    do {
        if (w.threads == 1)
            rotation.next();
        const Pass u = systemPass(w);
        compare(w, ref, u, "untraced", false, v);
        Pass t = observedPass(w, true, false);
        compare(w, ref, t, "traced", true, v);
        overheads.push_back(t.wallS / u.wallS - 1.0);
        lt.add(t, w.threads);
        last = std::move(t);
    } while (secondsSince(t0) < opt.seconds);

    const SimCounters t = totalOf(ref);
    const CycleSplit cs = splitOf(ref);
    const double n = static_cast<double>(lt.passes);
    const double refs = static_cast<double>(t.result.references);
    const double cycles = static_cast<double>(t.result.cycles.value());
    const double paths = static_cast<double>(t.result.pathAccesses);
    const double reqs = static_cast<double>(t.requests());
    const double run_ns = static_cast<double>(lt.cpuRunNs);
    const double trace_ns = static_cast<double>(lt.traceNs);
    const double core_ns = static_cast<double>(lt.coreNs);
    const double cpu_ns = run_ns - trace_ns - core_ns;

    rep.add("trace.ns_per_ref", ratio(trace_ns, n * refs), "ns/ref");
    rep.add("cpu.self_ns_per_ref", ratio(cpu_ns, n * refs), "ns/ref");
    rep.add("cpu.share", ratio(cpu_ns, run_ns), "ratio");
    rep.add("mem.llc_misses_per_kref",
            ratio(1000.0 * t.result.llcMisses, refs), "misses/kref");
    rep.add("mem.writebacks_per_kref",
            ratio(1000.0 * t.result.writebacks, refs), "wbs/kref");
    rep.add("core.demand_calls", ratio(lt.demandCalls, n), "count");
    rep.add("core.demand_ns_p50", percentile(lt.demandNs, 0.5), "ns");
    rep.add("core.demand_ns_p999", percentile(lt.demandNs, 0.999), "ns");
    rep.add("core.writeback_calls", ratio(lt.writebackCalls, n), "count");
    rep.add("core.writeback_ns_mean",
            ratio(lt.writebackNs, lt.writebackCalls), "ns");
    rep.add("core.touch_ns_mean", ratio(lt.touchNs, lt.touchCalls), "ns");
    rep.add("core.share", ratio(core_ns, run_ns), "ratio");
    rep.add("core.ns_per_path", ratio(core_ns, n * paths), "ns/path");
    rep.add("core.sim_latency_p50_cyc",
            static_cast<double>(t.latency.percentileUpperBound(0.5)),
            "cycles");
    rep.add("core.sim_latency_p99_cyc",
            static_cast<double>(t.latency.percentileUpperBound(0.99)),
            "cycles");
    rep.add("oram.posmap_path_frac",
            ratio(t.ctl.posMapAccesses, t.ctl.pathAccesses), "ratio");
    rep.add("oram.plb_hit_rate",
            ratio(t.plbHits, t.plbHits + t.plbMisses), "ratio");
    rep.add("oram.bgevict_path_frac",
            ratio(t.ctl.bgEvictions, t.ctl.pathAccesses), "ratio");
    rep.add("oram.stash_mean", t.stash.mean(), "blocks");
    rep.add("oram.stash_max", t.stash.max(), "blocks");
    rep.add("oram.dummy_path_frac",
            ratio(t.ctl.periodicDummies, t.ctl.pathAccesses), "ratio");
    rep.add("policy.merges_per_kreq", ratio(1000.0 * t.policy.merges, reqs),
            "1/kreq");
    rep.add("policy.breaks_per_kreq", ratio(1000.0 * t.policy.breaks, reqs),
            "1/kreq");
    rep.add("policy.prefetch_hit_rate",
            ratio(t.policy.prefetchHits,
                  t.policy.prefetchHits + t.policy.prefetchMisses),
            "ratio");
    rep.add("policy.sb_size_mean", t.sbSize.mean(), "blocks");
    rep.add("simcyc.compute_frac", ratio(cs.compute, cycles), "ratio");
    rep.add("simcyc.cache_frac", ratio(cs.cache, cycles), "ratio");
    rep.add("simcyc.posmap_frac", ratio(cs.posmap, cycles), "ratio");
    rep.add("simcyc.data_frac", ratio(cs.data, cycles), "ratio");
    rep.add("simcyc.bgevict_frac", ratio(cs.bgevict, cycles), "ratio");
    rep.add("simcyc.wait_frac", ratio(cs.wait, cycles), "ratio");
    rep.add("sim.cells", static_cast<double>(w.cells.size()), "count");
    rep.add("sim.pool_busy_frac", median(lt.busyFrac), "ratio");
    rep.add("sim.longest_cell_s", median(lt.longestCellS), "s");
    rep.add("obs.trace_overhead_frac", median(overheads), "ratio");
    rep.print();

    std::printf("reps=%zu untraced and traced pairs\n", lt.passes);
    std::printf("host time by layer (traced, per reference):\n");
    const auto layer = [&](const char *name, double ns) {
        std::printf("  %-10s %10.1f ns/ref  %6.2f%%\n", name,
                    ratio(ns, n * refs), 100.0 * ratio(ns, run_ns));
    };
    layer("trace", trace_ns);
    layer("cpu+mem", cpu_ns);
    layer("core", core_ns);
    std::printf("  %-10s %10.4f s/rep (outside TraceCpu::run)\n", "set-up",
                1e-9 * ratio(static_cast<double>(lt.setupNs), n));
    std::printf("simulated cycles by cause (per reference):\n");
    const auto cause = [&](const char *name, std::uint64_t c) {
        std::printf("  %-10s %10.2f cyc/ref  %6.2f%%\n", name,
                    ratio(static_cast<double>(c), refs),
                    100.0 * ratio(static_cast<double>(c), cycles));
    };
    cause("compute", cs.compute);
    cause("cache", cs.cache);
    cause("posmap", cs.posmap);
    cause("data", cs.data);
    cause("bgevict", cs.bgevict);
    cause("wait", cs.wait);
    printSimulated("simulated", opt.seed, ref, v);
    if (!opt.spansDir.empty())
        writeSpans(opt.spansDir, w, last);
}

int
runBenchmark(const Options &opt)
{
    Workload w;
    makeWorkload(opt.workload, opt.seed, w);
    printHost();
    std::printf("workload=%s seed=%llu threads=%u cells=%zu trace=%d\n",
                w.name.c_str(), static_cast<unsigned long long>(opt.seed),
                w.threads, w.cells.size(), opt.trace ? 1 : 0);

    // Reference pass: the observed stack, untimed and integrity
    // checked. Every later pass must reproduce it exactly; it also
    // warms the allocator and host caches before anything is timed.
    Verdict v;
    const Pass ref = observedPass(w, false, true);
    tally(w, ref, v);

    Report rep;
    if (opt.trace)
        measureLayers(opt, w, ref, v, rep);
    else
        measureEndToEnd(opt, w, ref, v, rep);

    for (const std::string &p : v.problems)
        std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
    const bool correct = v.problems.empty();
    std::printf("%s\n", rep.json(correct, v.attempted, v.failed).c_str());
    return correct ? 0 : 1;
}

bool
parseArgs(int argc, char **argv, Options &opt, std::string &err)
{
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) {
            err = "missing value for " + key;
            return false;
        }
        const std::string val = argv[++i];
        const char *end = val.data() + val.size();
        if (key == "--workload") {
            opt.workload = val;
        } else if (key == "--seed") {
            if (std::from_chars(val.data(), end, opt.seed).ptr != end) {
                err = "bad --seed " + val;
                return false;
            }
        } else if (key == "--seconds") {
            if (std::from_chars(val.data(), end, opt.seconds).ptr != end ||
                !(opt.seconds > 0.0 && opt.seconds <= 3600.0)) {
                err = "bad --seconds " + val;
                return false;
            }
        } else if (key == "--trace") {
            if (val != "0" && val != "1") {
                err = "bad --trace " + val;
                return false;
            }
            opt.trace = val == "1";
        } else if (key == "--spans-dir") {
            opt.spansDir = val;
        } else {
            err = "unknown argument " + key;
            return false;
        }
    }
    Workload probe;
    if (!makeWorkload(opt.workload, opt.seed, probe)) {
        err = "unknown workload '" + opt.workload + "'";
        return false;
    }
    return true;
}

/** Names of the PRORAM_* variables in the environment. */
std::vector<std::string>
proramEnv()
{
    std::vector<std::string> names;
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "PRORAM_", 7) == 0) {
            const char *eq = std::strchr(*e, '=');
            names.emplace_back(*e, eq ? eq - *e : std::strlen(*e));
        }
    }
    return names;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    std::string err;
    if (!parseArgs(argc, argv, opt, err)) {
        std::fprintf(stderr, "perfbench: %s\n%s", err.c_str(), kUsage);
        return 2;
    }
    // Every PRORAM_* knob changes what runs (scheme, arena, batch,
    // kernel, workers) or adds overhead (tracing, audit, metrics file).
    const std::vector<std::string> env = proramEnv();
    if (!env.empty()) {
        for (const std::string &name : env)
            std::fprintf(stderr, "perfbench: %s is set\n", name.c_str());
        std::fprintf(stderr, "perfbench: refusing to run with PRORAM_* "
                             "variables set; unset them first\n");
        return 2;
    }
    return runBenchmark(opt);
}
