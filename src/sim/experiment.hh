/**
 * @file
 * Experiment harness: builds (scheme x workload) grids, runs fresh
 * Systems, and computes the derived metrics the paper plots (speedup
 * over a baseline, normalized memory accesses, normalized completion
 * time). Every bench/ binary is a thin driver over these helpers.
 */

#ifndef PRORAM_SIM_EXPERIMENT_HH
#define PRORAM_SIM_EXPERIMENT_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/system.hh"
#include "trace/benchmarks.hh"

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

/**
 * One experiment runner. Holds a base SystemConfig plus a trace
 * scale factor so the whole evaluation can be shrunk for smoke tests
 * (PRORAM_BENCH_SCALE environment variable in the bench binaries).
 */
class Experiment
{
  public:
    /**
     * One (scheme x workload) grid cell: a closure that builds and
     * runs a fresh, self-contained System. Cells must not share
     * mutable state - all randomness derives from config seeds, which
     * is what makes parallel execution bit-identical to serial.
     */
    using GridCell = std::function<SimResult()>;

    explicit Experiment(SystemConfig base, double trace_scale = 1.0);

    /** Run @p scheme over a named benchmark profile. */
    SimResult runBenchmark(MemScheme scheme,
                           const BenchmarkProfile &profile) const;

    /** Run @p scheme over a custom generator factory. */
    SimResult
    runGenerator(MemScheme scheme,
                 const std::function<std::unique_ptr<TraceGenerator>()>
                     &make_gen) const;

    /**
     * Run @p scheme over a pre-decoded record vector. Replay feeds
     * the core through the batched decode fast path (contiguous
     * copies, no per-record dispatch), so this is the cheapest way to
     * drive one trace through many schemes.
     */
    SimResult runReplay(MemScheme scheme,
                        const std::vector<TraceRecord> &records) const;

    /** Same, with per-run config tweaks applied before building. */
    SimResult runWith(
        MemScheme scheme,
        const std::function<void(SystemConfig &)> &tweak,
        const std::function<std::unique_ptr<TraceGenerator>()> &make_gen)
        const;

    /**
     * Run every cell and return results in cell order. Cells execute
     * on @p threads pool workers (0 =
     * util::ThreadPool::defaultThreadCount()); threads == 1
     * degenerates to a plain serial loop. Results are bit-identical
     * either way; a cell's exception is rethrown after in-flight
     * cells finish.
     */
    std::vector<SimResult> runGrid(const std::vector<GridCell> &cells,
                                   unsigned threads = 0) const;

    SystemConfig &baseConfig() { return base_; }
    const SystemConfig &baseConfig() const { return base_; }
    double traceScale() const { return scale_; }

  private:
    /** Append the run's metrics JSON to $PRORAM_METRICS_FILE (JSON
     *  Lines; no-op when the variable is unset). */
    static void appendMetrics(System &system);

    SystemConfig base_;
    double scale_;
};

/** Geometric-ish aggregate the paper reports: arithmetic mean. */
double mean(const std::vector<double> &values);

/** Trace scale from $PRORAM_BENCH_SCALE, default 1.0. The whole value
 *  must parse as a finite number > 0; anything else is fatal. */
double benchScaleFromEnv();

} // namespace proram

#endif // PRORAM_SIM_EXPERIMENT_HH
