/**
 * @file
 * Fig. 13: bucket size Z = 3 vs Z = 4. Z=3 is faster for the
 * baseline (shorter paths beat the higher background-eviction rate);
 * the dynamic scheme gains consistently under both (Sec. 5.5.4).
 */

#include <cstdio>

#include "common.hh"

using namespace proram;

namespace
{

int
run()
{
    bench::banner(
        "Figure 13: Z sweep (norm. completion time vs DRAM)",
        "oram_Z3 < oram_Z4 (Z=3 best for the baseline); dyn gains "
        "under both Z values");

    const Experiment exp = bench::defaultExperiment();

    stats::Table t({"bench", "oram_Z3", "stat_Z3", "dyn_Z3", "oram_Z4",
                    "stat_Z4", "dyn_Z4"});
    for (const char *name : {"fft", "ocean_c", "ocean_nc", "volrend"}) {
        const auto &prof = profileByName(name);
        auto gen = [&] { return makeGenerator(prof, exp.traceScale()); };
        const auto dram = exp.runGenerator(MemScheme::Dram, gen);
        t.row().add(name);
        for (std::uint32_t z : {3u, 4u}) {
            auto tweak = [&](SystemConfig &c) { c.oram.z = z; };
            for (MemScheme s :
                 {MemScheme::OramBaseline, MemScheme::OramStatic,
                  MemScheme::OramDynamic}) {
                const auto res = exp.runWith(s, tweak, gen);
                t.add(metrics::normCompletionTime(dram, res), 2);
            }
        }
    }
    std::printf("%s\n", t.str().c_str());
    return 0;
}

} // namespace

int
main()
{
    return bench::runMain(run);
}
