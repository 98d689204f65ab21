#include "sim/experiment.hh"

#include <algorithm>
#include <fstream>
#include <future>
#include <mutex>

#include "trace/trace_file.hh"

#include "util/env.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace proram
{

namespace metrics
{

double
speedup(const SimResult &base, const SimResult &x)
{
    panic_if(x.cycles == Cycles{0}, "zero-cycle run");
    return static_cast<double>(base.cycles.value()) /
               static_cast<double>(x.cycles.value()) -
           1.0;
}

double
normMemAccesses(const SimResult &base, const SimResult &x)
{
    panic_if(base.memAccesses == 0, "baseline made no memory accesses");
    return static_cast<double>(x.memAccesses) /
           static_cast<double>(base.memAccesses);
}

double
normCompletionTime(const SimResult &base, const SimResult &x)
{
    panic_if(base.cycles == Cycles{0}, "zero-cycle baseline");
    return static_cast<double>(x.cycles.value()) /
           static_cast<double>(base.cycles.value());
}

} // namespace metrics

Experiment::Experiment(SystemConfig base, double trace_scale)
    : base_(std::move(base)), scale_(trace_scale)
{
    fatal_if(scale_ <= 0.0, "trace scale must be positive");
}

SimResult
Experiment::runBenchmark(MemScheme scheme,
                         const BenchmarkProfile &profile) const
{
    return runGenerator(scheme, [&] {
        return makeGenerator(profile, scale_);
    });
}

SimResult
Experiment::runGenerator(
    MemScheme scheme,
    const std::function<std::unique_ptr<TraceGenerator>()> &make_gen)
    const
{
    return runWith(scheme, [](SystemConfig &) {}, make_gen);
}

SimResult
Experiment::runReplay(MemScheme scheme,
                      const std::vector<TraceRecord> &records) const
{
    return runGenerator(scheme, [&] {
        return std::make_unique<ReplayGenerator>(records);
    });
}

SimResult
Experiment::runWith(
    MemScheme scheme, const std::function<void(SystemConfig &)> &tweak,
    const std::function<std::unique_ptr<TraceGenerator>()> &make_gen)
    const
{
    SystemConfig cfg = base_;
    cfg.scheme = scheme;
    tweak(cfg);
    System system(cfg);
    auto gen = make_gen();
    SimResult res = system.run(*gen);
    appendMetrics(system);
    return res;
}

void
Experiment::appendMetrics(System &system)
{
    // Opt-in machine-readable dump: one metrics JSON object per run,
    // appended as JSON Lines. Grid cells run on pool threads, so the
    // append is serialized; ordering across cells is scheduling-
    // dependent, which is fine for JSONL (each line is labeled).
    static std::mutex mtx;
    const char *path = env::get("PRORAM_METRICS_FILE");
    if (!path || path[0] == '\0')
        return;
    const std::string line = system.metricsJson();
    std::lock_guard<std::mutex> lock(mtx);
    std::ofstream os(path, std::ios::app);
    if (!os) {
        warn("cannot open PRORAM_METRICS_FILE '", path, "'");
        return;
    }
    os << line << "\n";
}

std::vector<SimResult>
Experiment::runGrid(const std::vector<GridCell> &cells,
                    unsigned threads) const
{
    if (threads == 0)
        threads = util::ThreadPool::defaultThreadCount();

    std::vector<SimResult> results(cells.size());
    if (threads == 1 || cells.size() <= 1) {
        for (std::size_t i = 0; i < cells.size(); ++i)
            results[i] = cells[i]();
        return results;
    }

    util::ThreadPool pool(
        std::min<std::size_t>(threads, cells.size()));
    std::vector<std::future<SimResult>> futures;
    futures.reserve(cells.size());
    for (const GridCell &cell : cells)
        futures.push_back(pool.submit(cell));
    // Collect in submission order: deterministic result layout, and
    // any cell exception surfaces (from the first failing index) only
    // after the pool has drained the cells already running.
    for (std::size_t i = 0; i < cells.size(); ++i)
        results[i] = futures[i].get();
    return results;
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
benchScaleFromEnv()
{
    return env::positive("PRORAM_BENCH_SCALE", 1.0);
}

} // namespace proram
