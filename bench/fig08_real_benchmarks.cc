/**
 * @file
 * Fig. 8a/b/c: speedup and normalized ORAM access count (energy
 * proxy) of the static and dynamic super block schemes over the
 * baseline ORAM, for Splash2, SPEC06 and the DBMS workloads.
 */

#include <cstdio>
#include <vector>

#include "common.hh"

using namespace proram;

namespace
{

void
runSuite(const Experiment &exp, const char *title,
         const std::vector<BenchmarkProfile> &suite)
{
    std::printf("--- %s ---\n", title);
    stats::Table t({"bench", "oram/dram", "stat", "dyn",
                    "stat.norm.acc", "dyn.norm.acc"});

    std::vector<double> stat_all, dyn_all, stat_mem, dyn_mem;
    std::vector<double> stat_acc, dyn_acc;

    // All (benchmark x scheme) cells of this suite run on the pool;
    // results come back in cell order, so the table below is
    // identical to the old serial loop.
    const MemScheme schemes[] = {MemScheme::Dram,
                                 MemScheme::OramBaseline,
                                 MemScheme::OramStatic,
                                 MemScheme::OramDynamic};
    std::vector<Experiment::GridCell> cells;
    for (const auto &prof : suite) {
        for (MemScheme s : schemes)
            cells.push_back(bench::benchmarkCell(exp, s, prof));
    }
    const std::vector<SimResult> results = exp.runGrid(cells);

    for (std::size_t p = 0; p < suite.size(); ++p) {
        const auto &prof = suite[p];
        const auto &dram = results[p * 4 + 0];
        const auto &oram = results[p * 4 + 1];
        const auto &stat = results[p * 4 + 2];
        const auto &dyn = results[p * 4 + 3];

        const double overhead =
            static_cast<double>(oram.cycles.value()) /
            static_cast<double>(dram.cycles.value());
        const double ss = metrics::speedup(oram, stat);
        const double ds = metrics::speedup(oram, dyn);
        stat_all.push_back(ss);
        dyn_all.push_back(ds);
        stat_acc.push_back(metrics::normMemAccesses(oram, stat));
        dyn_acc.push_back(metrics::normMemAccesses(oram, dyn));
        if (prof.memoryIntensive) {
            stat_mem.push_back(ss);
            dyn_mem.push_back(ds);
        }

        t.row()
            .add(prof.name + (prof.memoryIntensive ? " [M]" : ""))
            .add(overhead, 2)
            .addPct(ss)
            .addPct(ds)
            .add(stat_acc.back(), 3)
            .add(dyn_acc.back(), 3);
    }
    t.row()
        .add("avg")
        .add("")
        .addPct(mean(stat_all))
        .addPct(mean(dyn_all))
        .add(mean(stat_acc), 3)
        .add(mean(dyn_acc), 3);
    if (!stat_mem.empty()) {
        t.row()
            .add("mem_avg")
            .add("")
            .addPct(mean(stat_mem))
            .addPct(mean(dyn_mem))
            .add("")
            .add("");
    }
    std::printf("%s\n", t.str().c_str());
}

int
run()
{
    bench::banner(
        "Figure 8: Static vs dynamic super blocks on real benchmarks",
        "dyn >= oram on every benchmark; stat negative on low-locality "
        "ones (volrend, radix, sjeng, astar, omnet, mcf, TPCC); "
        "dyn mem_avg ~ +20% Splash2, avg ~ +5% SPEC06; YCSB >> TPCC; "
        "dyn roughly 2x stat's average gain. [M] = memory intensive");

    const Experiment exp = bench::defaultExperiment();
    runSuite(exp, "Fig. 8a: Splash2", splash2Suite());
    runSuite(exp, "Fig. 8b: SPEC06", spec06Suite());
    runSuite(exp, "Fig. 8c: DBMS", dbmsSuite());
    return 0;
}

} // namespace

int
main()
{
    return bench::runMain(run);
}
