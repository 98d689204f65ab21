/**
 * @file
 * Shared plumbing for the figure-reproduction binaries: scale factor,
 * banner printing, and the standard scheme set.
 */

#ifndef PRORAM_BENCH_COMMON_HH
#define PRORAM_BENCH_COMMON_HH

#include <cstdio>
#include <string>

#include "sim/experiment.hh"
#include "stats/table.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace proram::bench
{

/**
 * Run a figure binary's @p body - its whole main - and return its exit
 * status. A user error (a bad `PRORAM_*` value or name, or a
 * configuration System rejects) ends in one `fatal: ...` line on
 * stderr and status 1 instead of an uncaught SimFatal and an abort.
 */
template <typename Body>
int
runMain(Body &&body)
{
    try {
        return body();
    } catch (const SimFatal &e) {
        return reportFatal(e);
    }
}

/** Print the figure banner with the paper-expected shape. */
inline void
banner(const std::string &title, const std::string &expectation)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("Paper expectation: %s\n", expectation.c_str());
    const double scale = benchScaleFromEnv();
    if (scale != 1.0)
        std::printf("(PRORAM_BENCH_SCALE=%.3g - shortened traces)\n",
                    scale);
    const unsigned threads = util::ThreadPool::defaultThreadCount();
    if (threads > 1)
        std::printf("(PRORAM_BENCH_THREADS=%u - parallel grid cells)\n",
                    threads);
    std::printf("==============================================================\n");
}

/** Build the default experiment at the env-controlled scale. */
inline Experiment
defaultExperiment()
{
    return Experiment(defaultSystemConfig(), benchScaleFromEnv());
}

/**
 * Grid-cell factories: bind one simulation run into an
 * Experiment::GridCell for runGrid(). The cell captures @p exp by
 * reference - keep the Experiment alive until runGrid() returns.
 */
inline Experiment::GridCell
benchmarkCell(const Experiment &exp, MemScheme scheme,
              const BenchmarkProfile &profile)
{
    return [&exp, scheme, profile] {
        return exp.runBenchmark(scheme, profile);
    };
}

inline Experiment::GridCell
generatorCell(const Experiment &exp, MemScheme scheme,
              std::function<std::unique_ptr<TraceGenerator>()> make_gen)
{
    return [&exp, scheme, make_gen = std::move(make_gen)] {
        return exp.runGenerator(scheme, make_gen);
    };
}

} // namespace proram::bench

#endif // PRORAM_BENCH_COMMON_HH
