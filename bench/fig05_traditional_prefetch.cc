/**
 * @file
 * Fig. 5: traditional stream prefetching on DRAM vs ORAM. The
 * prefetcher helps the DRAM system (spare bandwidth between demand
 * accesses) but does not help - and can hurt - the ORAM system, whose
 * controller is already saturated (Sec. 5.2).
 */

#include <cstdio>
#include <vector>

#include "common.hh"

using namespace proram;

namespace
{

int
run()
{
    bench::banner(
        "Figure 5: Traditional data prefetching on DRAM and ORAM",
        "dram_pre speedup positive; oram_pre ~zero or negative, "
        "always below dram_pre");

    const Experiment exp = bench::defaultExperiment();
    const std::vector<const char *> benches = {
        "barnes", "cholesky", "lu_nc", "raytrace", "ocean_c",
        "ocean_nc"};

    stats::Table t({"bench", "dram_pre", "oram_pre"});
    std::vector<double> dram_gain, oram_gain;

    for (const char *name : benches) {
        const auto &prof = profileByName(name);
        const auto dram = exp.runBenchmark(MemScheme::Dram, prof);
        const auto dram_pre =
            exp.runBenchmark(MemScheme::DramPrefetch, prof);
        const auto oram = exp.runBenchmark(MemScheme::OramBaseline, prof);
        const auto oram_pre =
            exp.runBenchmark(MemScheme::OramPrefetch, prof);

        const double dg = metrics::speedup(dram, dram_pre);
        const double og = metrics::speedup(oram, oram_pre);
        dram_gain.push_back(dg);
        oram_gain.push_back(og);
        t.row().add(name).addPct(dg).addPct(og);
    }
    t.row().add("avg").addPct(mean(dram_gain)).addPct(mean(oram_gain));

    std::printf("%s\n", t.str().c_str());
    return 0;
}

} // namespace

int
main()
{
    return bench::runMain(run);
}
