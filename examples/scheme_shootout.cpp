/**
 * @file
 * Scenario: pick any benchmark from the registry and compare every
 * memory scheme on it - the "which configuration should I deploy?"
 * question a downstream user actually has.
 *
 *   ./build/examples/scheme_shootout [benchmark] [scale]
 *   ./build/examples/scheme_shootout ocean_c 0.5
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/experiment.hh"

using namespace proram;

int
main(int argc, char **argv)
{
    const std::string bench = argc > 1 ? argv[1] : "YCSB";
    const double scale = argc > 2 ? std::atof(argv[2]) : 1.0;

    const BenchmarkProfile &prof = profileByName(bench);
    std::printf("Benchmark %s (%s): footprint %llu blocks, compute "
                "gap %u cycles, %s\n\n",
                prof.name.c_str(), prof.suite.c_str(),
                static_cast<unsigned long long>(prof.footprintBlocks),
                prof.computeCycles,
                prof.memoryIntensive ? "memory intensive"
                                     : "compute intensive");

    const Experiment exp(defaultSystemConfig(),
                         scale > 0 ? scale : 1.0);

    const auto dram = run(exp.cell(MemScheme::Dram, prof));
    std::printf("%-10s %14s %10s %12s %10s\n", "scheme", "cycles",
                "vs dram", "mem.accesses", "vs oram");

    SimResult oram;
    for (MemScheme s :
         {MemScheme::Dram, MemScheme::DramPrefetch,
          MemScheme::OramBaseline, MemScheme::OramPrefetch,
          MemScheme::OramStatic, MemScheme::OramDynamic}) {
        const auto r = run(exp.cell(s, prof));
        if (s == MemScheme::OramBaseline)
            oram = r;
        const bool have_oram = oram.cycles != Cycles{0};
        std::printf("%-10s %14llu %9.2fx %12llu %+9.1f%%\n",
                    r.scheme.c_str(),
                    static_cast<unsigned long long>(r.cycles.value()),
                    static_cast<double>(r.cycles.value()) /
                        static_cast<double>(dram.cycles.value()),
                    static_cast<unsigned long long>(r.memAccesses),
                    have_oram ? metrics::speedup(oram, r) * 100.0
                              : 0.0);
    }

    std::printf("\nThe 'vs oram' column is the paper's headline "
                "metric; 'dyn' is PrORAM.\n");
    return 0;
}
