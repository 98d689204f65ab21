#include "sim/experiment.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <limits>
#include <mutex>
#include <thread>

#include "util/env.hh"
#include "util/logging.hh"

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

namespace
{

/** Append @p system's metrics JSON to $PRORAM_METRICS_FILE (JSON
 *  Lines; no-op when the variable is unset). */
void
appendMetrics(System &system)
{
    // Grid cells run on several threads, so the append is serialized;
    // ordering across cells is scheduling-dependent, which is fine
    // for JSONL (each line is labeled).
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

} // namespace

SimResult
run(const Cell &cell)
{
    System system(cell.config);
    std::unique_ptr<TraceGenerator> gen;
    if (const auto *prof = std::get_if<BenchmarkProfile>(&cell.workload))
        gen = makeGenerator(*prof, cell.scale);
    else
        gen = std::make_unique<SyntheticGenerator>(
            std::get<SyntheticConfig>(cell.workload));
    SimResult res = system.run(*gen);
    appendMetrics(system);
    return res;
}

Experiment::Experiment(SystemConfig base, double trace_scale)
    : base_(std::move(base)), scale_(trace_scale)
{
    fatal_if(scale_ <= 0.0, "trace scale must be positive");
}

Cell
Experiment::cell(MemScheme scheme, Workload workload) const
{
    Cell c{base_, std::move(workload), scale_};
    c.config.scheme = scheme;
    return c;
}

std::vector<SimResult>
Experiment::runGrid(const std::vector<GridCell> &cells, unsigned threads)
{
    if (threads == 0)
        threads = benchThreadsFromEnv();

    std::vector<SimResult> results(cells.size());
    std::vector<std::exception_ptr> errors(cells.size());
    std::atomic<std::size_t> next{0};
    const auto work = [&] {
        for (std::size_t i = next++; i < cells.size(); i = next++) {
            try {
                results[i] = cells[i]();
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };
    {
        std::vector<std::jthread> helpers;
        const std::size_t n = std::min<std::size_t>(threads, cells.size());
        for (std::size_t t = 1; t < n; ++t)
            helpers.emplace_back(work);
        work();
    } // the helpers join here
    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
    return results;
}

const SimResult &
CellReplay::ask(const Cell &cell)
{
    if (replaying_) {
        panic_if(cursor_ == log_.size() || cells_[log_[cursor_]] != cell,
                 "replay ask ", cursor_, " is not the cell recorded there");
        return results_[log_[cursor_++]];
    }
    const auto it = std::find(cells_.begin(), cells_.end(), cell);
    log_.push_back(static_cast<std::size_t>(it - cells_.begin()));
    if (it == cells_.end())
        cells_.push_back(cell);
    static const SimResult placeholder = [] {
        SimResult r;
        r.cycles = Cycles{1};
        r.memAccesses = 1;
        return r;
    }();
    return placeholder;
}

void
CellReplay::simulate(unsigned threads)
{
    panic_if(replaying_, "CellReplay::simulate called twice");
    std::vector<Experiment::GridCell> grid;
    grid.reserve(cells_.size());
    for (const Cell &c : cells_)
        grid.push_back([&c] { return run(c); });
    results_ = Experiment::runGrid(grid, threads);
    replaying_ = true;
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

unsigned
benchThreadsFromEnv()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<unsigned>(
        env::count("PRORAM_BENCH_THREADS", hw == 0 ? 1 : hw,
                   std::numeric_limits<unsigned>::max()));
}

} // namespace proram
