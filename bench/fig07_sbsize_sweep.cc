/**
 * @file
 * Fig. 7: super-block-size sweep on the 100%-locality synthetic
 * benchmark. Static degrades quickly with sbsize (background
 * evictions explode); the dynamic scheme's adaptive thresholding
 * throttles merging and stays flat (Sec. 5.3.3).
 */

#include <cstdio>

#include "common.hh"
#include "trace/synthetic.hh"

using namespace proram;

namespace
{

std::unique_ptr<TraceGenerator>
seqGen()
{
    SyntheticConfig c;
    c.footprintBlocks = 1ULL << 14;
    c.numAccesses = static_cast<std::uint64_t>(
        60000 * proram::benchScaleFromEnv());
    c.localityFraction = 1.0;
    c.computeCycles = 4;
    c.seed = 3;
    return std::make_unique<SyntheticGenerator>(c);
}

int
run()
{
    bench::banner(
        "Figure 7: Super block size sweep (100% locality synthetic)",
        "stat collapses as sbsize grows (bg evictions); dyn throttles "
        "merging and stays positive");

    // Sec. 5.3 runs the synthetic experiments at Z=4; at Z=3 a
    // static sbsize-8 layout cannot even fit in the tree (the stash
    // floor is thousands of blocks), so the sweep uses Z=4 like the
    // paper.
    SystemConfig cfg = defaultSystemConfig();
    cfg.oram.z = 4;
    const Experiment exp(cfg, 1.0);

    const auto oram = exp.runGenerator(MemScheme::OramBaseline, seqGen);

    stats::Table t({"sbsize", "stat", "stat.norm.acc", "stat.bg",
                    "dyn", "dyn.norm.acc", "dyn.bg"});
    for (std::uint32_t sb : {2u, 4u, 8u}) {
        const auto stat = exp.runWith(
            MemScheme::OramStatic,
            [&](SystemConfig &c) { c.staticSbSize = sb; }, seqGen);
        const auto dyn = exp.runWith(
            MemScheme::OramDynamic,
            [&](SystemConfig &c) { c.dynamic.maxSbSize = sb; }, seqGen);
        t.row()
            .addInt(sb)
            .addPct(metrics::speedup(oram, stat))
            .add(metrics::normMemAccesses(oram, stat), 3)
            .addInt(stat.bgEvictions)
            .addPct(metrics::speedup(oram, dyn))
            .add(metrics::normMemAccesses(oram, dyn), 3)
            .addInt(dyn.bgEvictions);
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
