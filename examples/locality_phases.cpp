/**
 * @file
 * Scenario: a program whose locality changes over time - streaming
 * passes alternating with random probing (the Fig. 6b situation).
 * Demonstrates the dynamic scheme merging super blocks during
 * streaming phases and breaking them again during random phases,
 * which the static scheme cannot do.
 */

#include <cstdio>

#include "sim/experiment.hh"
#include "trace/synthetic.hh"

using namespace proram;

int
main()
{
    std::printf("Phase-change workload: 8 phases; the sequential and "
                "random array halves swap every phase.\n\n");

    SyntheticConfig trace;
    trace.footprintBlocks = 1ULL << 14;
    trace.numAccesses = 80000;
    trace.phaseLength = trace.numAccesses / 8;
    trace.computeCycles = 4;
    trace.seed = 42;

    const Experiment exp(defaultSystemConfig());
    const auto oram = run(exp.cell(MemScheme::OramBaseline, trace));
    std::printf("%-10s %12s %10s %8s %8s %8s %12s\n", "scheme",
                "cycles", "paths", "merges", "breaks", "bg",
                "prefetch-miss");

    auto report = [&](const SimResult &r) {
        std::printf("%-10s %12llu %10llu %8llu %8llu %8llu %11.1f%%\n",
                    r.scheme.c_str(),
                    static_cast<unsigned long long>(r.cycles.value()),
                    static_cast<unsigned long long>(r.pathAccesses),
                    static_cast<unsigned long long>(r.merges),
                    static_cast<unsigned long long>(r.breaks),
                    static_cast<unsigned long long>(r.bgEvictions),
                    r.missRate() * 100.0);
    };

    report(oram);
    report(run(exp.cell(MemScheme::OramStatic, trace)));
    const Cell dyn_cell = exp.cell(MemScheme::OramDynamic, trace);
    const auto dyn = run(dyn_cell);
    report(dyn);

    // The same run with breaking disabled, to show what adaptivity
    // buys (this is the am_nb variant of Fig. 6b).
    Cell nb_cell = dyn_cell;
    nb_cell.config.dynamic.breakMode = DynamicPolicyConfig::BreakMode::None;
    const auto no_break = run(nb_cell);
    std::printf("%-10s %12llu %10llu %8llu %8llu %8llu %11.1f%%   "
                "(dyn with breaking disabled)\n",
                "dyn_nb",
                static_cast<unsigned long long>(no_break.cycles.value()),
                static_cast<unsigned long long>(no_break.pathAccesses),
                static_cast<unsigned long long>(no_break.merges),
                static_cast<unsigned long long>(no_break.breaks),
                static_cast<unsigned long long>(no_break.bgEvictions),
                no_break.missRate() * 100.0);

    std::printf("\nspeedup over baseline ORAM: dyn %+.1f%%, "
                "dyn-without-breaking %+.1f%%\n",
                metrics::speedup(oram, dyn) * 100.0,
                metrics::speedup(oram, no_break) * 100.0);
    std::printf("Breaking pays: stale super blocks from the previous "
                "phase are dissolved instead of polluting the cache.\n");
    return 0;
}
