/**
 * @file
 * Fig. 10: sweep of the Eq. 1 coefficients C_merge / C_break
 * (mXbY = C_merge = X, C_break = Y). Smaller coefficients merge
 * earlier and help locality-rich benchmarks; locality-poor
 * benchmarks are insensitive (merging never triggers).
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
        "Figure 10: Merge/break coefficient sweep (mXbY)",
        "smaller C_merge -> earlier merging -> better on ocean_*/fft; "
        "volrend flat (no merging regardless)");

    const Experiment exp = bench::defaultExperiment();

    struct Combo
    {
        const char *name;
        double cm, cb;
    };
    const Combo combos[] = {{"m1b1", 1, 1},
                            {"m2b2", 2, 2},
                            {"m4b1", 4, 1},
                            {"m4b4", 4, 4},
                            {"m8b8", 8, 8}};

    stats::Table t({"bench", "m1b1", "m2b2", "m4b1", "m4b4", "m8b8"});
    for (const char *name : {"ocean_c", "ocean_nc", "fft", "volrend"}) {
        const auto &prof = profileByName(name);
        const auto oram =
            exp.runBenchmark(MemScheme::OramBaseline, prof);
        t.row().add(name);
        for (const Combo &c : combos) {
            const auto res = exp.runWith(
                MemScheme::OramDynamic,
                [&](SystemConfig &sc) {
                    sc.dynamic.cMerge = c.cm;
                    sc.dynamic.cBreak = c.cb;
                },
                [&] {
                    return makeGenerator(prof, exp.traceScale());
                });
            t.addPct(metrics::speedup(oram, res));
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
