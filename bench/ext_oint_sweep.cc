/**
 * @file
 * Extension experiment (paper Sec. 5.6, last paragraph): with strictly
 * periodic ORAM accesses every scheme consumes the same energy per
 * unit time, but PrORAM's performance advantage "can be easily
 * translated to an energy advantage by setting Oint high". This sweep
 * quantifies that trade-off: completion time and total ORAM accesses
 * (the energy proxy) as Oint grows.
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
        "Extension: Oint sweep - trading performance for energy",
        "larger Oint slows every scheme but cuts dummy accesses; dyn "
        "sustains a given performance level at a larger Oint (= lower "
        "energy) than the baseline");

    const Experiment exp = bench::defaultExperiment();
    const auto &prof = profileByName("ocean_c");
    auto gen = [&] { return makeGenerator(prof, exp.traceScale()); };

    // Non-periodic references.
    const auto oram_np = exp.runGenerator(MemScheme::OramBaseline, gen);
    const auto dyn_np = exp.runGenerator(MemScheme::OramDynamic, gen);

    stats::Table t({"Oint", "oram.cycles(norm)", "oram.accesses",
                    "dyn.cycles(norm)", "dyn.accesses",
                    "dyn.vs.oram"});
    for (Cycles oint :
         {Cycles{100}, Cycles{400}, Cycles{1600}, Cycles{6400}}) {
        auto tweak = [&](SystemConfig &c) {
            c.controller.periodic.enabled = true;
            c.controller.periodic.oInt = oint;
        };
        const auto oram =
            exp.runWith(MemScheme::OramBaseline, tweak, gen);
        const auto dyn = exp.runWith(MemScheme::OramDynamic, tweak, gen);
        t.row()
            .addInt(oint.value())
            .add(metrics::normCompletionTime(oram_np, oram), 2)
            .addInt(oram.memAccesses)
            .add(metrics::normCompletionTime(dyn_np, dyn), 2)
            .addInt(dyn.memAccesses)
            .addPct(metrics::speedup(oram, dyn));
    }
    std::printf("%s\n", t.str().c_str());
    std::printf("(accesses include periodic dummies; at equal Oint the "
                "timing channel leaks nothing and dyn's gain is pure "
                "win.)\n");
    return 0;
}

} // namespace

int
main()
{
    return bench::runMain(run);
}
