/**
 * @file
 * Experiment harness: simulation runs as values (Cell), a parallel
 * grid runner, a record/replay runner that lets straight-line figure
 * code share one grid, and the derived metrics the paper plots
 * (speedup over a baseline, normalized memory accesses, normalized
 * completion time). bench/paper.cc is built on these.
 */

#ifndef PRORAM_SIM_EXPERIMENT_HH
#define PRORAM_SIM_EXPERIMENT_HH

#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "sim/system.hh"
#include "trace/benchmarks.hh"
#include "trace/synthetic.hh"

namespace proram
{

/** Metric helpers matching the paper's figure axes. */
namespace metrics
{

/** Fig. 5/6/8/10/15 y-axis: base.cycles / x.cycles - 1. */
double speedup(const SimResult &base, const SimResult &x);

/** Fig. 6b/7/8 red markers: x.memAccesses / base.memAccesses. */
double normMemAccesses(const SimResult &base, const SimResult &x);

/** Fig. 11-14 y-axis: x.cycles / base.cycles. */
double normCompletionTime(const SimResult &base, const SimResult &x);

} // namespace metrics

/** What a cell runs: a named profile or the Sec. 5.3 synthetic. */
using Workload = std::variant<BenchmarkProfile, SyntheticConfig>;

/**
 * One simulation run as a value: everything its SimResult depends
 * on. Every seed is a config field, so equal cells give equal
 * results, and a grid may simulate each distinct cell once.
 */
struct Cell
{
    SystemConfig config;
    Workload workload;
    /** Multiplies a profile's access count (PRORAM_BENCH_SCALE). A
     *  SyntheticConfig carries its own numAccesses. */
    double scale = 1.0;

    bool operator==(const Cell &) const = default;
};

/**
 * Run @p cell on a fresh System and return its result. Appends the
 * run's metrics JSON to $PRORAM_METRICS_FILE (JSON Lines; no-op when
 * the variable is unset).
 */
SimResult run(const Cell &cell);

/**
 * One experiment: a base SystemConfig plus a trace scale factor, so
 * the whole evaluation can be shrunk for smoke tests
 * (PRORAM_BENCH_SCALE), and the grid runner.
 */
class Experiment
{
  public:
    /**
     * One grid cell as a closure that builds and runs a fresh,
     * self-contained System. Cells must not share mutable state - all
     * randomness derives from config seeds, which is what makes
     * parallel execution bit-identical to serial.
     */
    using GridCell = std::function<SimResult()>;

    explicit Experiment(SystemConfig base, double trace_scale = 1.0);

    /** The cell running @p workload under @p scheme on the base
     *  config at the trace scale. */
    Cell cell(MemScheme scheme, Workload workload) const;

    /**
     * Run every cell and return results in cell order. The cells run
     * on min(@p threads, cells) threads, the calling thread included
     * (0 = benchThreadsFromEnv()); each thread claims the next cell
     * index in turn, so cells start in index order, and threads == 1
     * runs them all on the calling thread. Results are bit-identical
     * at any thread count. Every cell runs even when some throw; the
     * lowest failing index's exception is then rethrown.
     */
    static std::vector<SimResult> runGrid(const std::vector<GridCell> &cells,
                                          unsigned threads = 0);

    SystemConfig &baseConfig() { return base_; }
    double traceScale() const { return scale_; }

  private:
    SystemConfig base_;
    double scale_;
};

/**
 * Record/replay runner: straight-line code asks for results one cell
 * at a time, yet its cells run together in one runGrid call. Run the
 * code twice. While recording, ask() logs each cell and answers with
 * a placeholder (cycles and memory accesses 1, which the metrics
 * helpers accept). simulate() runs every distinct logged cell once,
 * in first-asked order, and starts the replay: ask() then answers
 * from those results, and panics when the code asks for another cell
 * than it asked at the same position while recording.
 */
class CellReplay
{
  public:
    const SimResult &ask(const Cell &cell);

    /** End the recording: simulate each distinct cell once on
     *  @p threads threads (0 = benchThreadsFromEnv()). */
    void simulate(unsigned threads = 0);

    /** Cells asked while recording. */
    std::size_t asked() const { return log_.size(); }
    /** Distinct cells among them: what simulate() runs. */
    std::size_t distinct() const { return cells_.size(); }

  private:
    std::vector<Cell> cells_;        ///< distinct, first-asked order
    std::vector<std::size_t> log_;   ///< ask position -> cells_ index
    std::vector<SimResult> results_; ///< parallel to cells_
    bool replaying_ = false;
    std::size_t cursor_ = 0;         ///< next replayed ask
};

/** Geometric-ish aggregate the paper reports: arithmetic mean. */
double mean(const std::vector<double> &values);

/** Trace scale from $PRORAM_BENCH_SCALE, default 1.0. The whole value
 *  must parse as a finite number > 0; anything else is fatal. */
double benchScaleFromEnv();

/** Grid thread count from $PRORAM_BENCH_THREADS, default
 *  std::thread::hardware_concurrency() (1 when unknown). The whole
 *  value must parse as an integer in 1..UINT_MAX; anything else is
 *  fatal. */
unsigned benchThreadsFromEnv();

} // namespace proram

#endif // PRORAM_SIM_EXPERIMENT_HH
