/**
 * @file
 * proram_cli: a command-line driver over the whole library -
 * run any benchmark or trace file under any scheme and dump results.
 *
 *   proram_cli run --bench ocean_c --scheme dyn [--scale 0.5]
 *   proram_cli run --trace my.trace --scheme stat [--stats]
 *   proram_cli record --bench YCSB --out ycsb.trace [--scale 0.1]
 *   proram_cli list
 */

#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>

#include "sim/experiment.hh"
#include "sim/system.hh"
#include "trace/trace_file.hh"
#include "util/env.hh"
#include "util/logging.hh"

using namespace proram;

namespace
{

const std::map<std::string, MemScheme> kSchemes = {
    {"dram", MemScheme::Dram},
    {"dram_pre", MemScheme::DramPrefetch},
    {"oram", MemScheme::OramBaseline},
    {"oram_pre", MemScheme::OramPrefetch},
    {"stat", MemScheme::OramStatic},
    {"dyn", MemScheme::OramDynamic},
};

struct Args
{
    std::string command;
    std::map<std::string, std::string> options;

    std::string get(const std::string &key,
                    const std::string &fallback = "") const
    {
        auto it = options.find(key);
        return it == options.end() ? fallback : it->second;
    }

    /** --@p key as a whole decimal in 1..2^32-1, or @p fallback. */
    std::uint32_t count(const std::string &key, std::uint32_t fallback) const
    {
        auto it = options.find(key);
        if (it == options.end())
            return fallback;
        return static_cast<std::uint32_t>(env::parseCount(
            ("--" + key).c_str(), it->second.c_str(),
            std::numeric_limits<std::uint32_t>::max()));
    }

    /** --scale as a finite number > 0, or 1. */
    double scale() const
    {
        auto it = options.find("scale");
        return it == options.end()
                   ? 1.0
                   : env::parsePositive("--scale", it->second.c_str());
    }
};

Args
parse(int argc, char **argv)
{
    Args args;
    if (argc > 1)
        args.command = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        fatal_if(std::strncmp(argv[i], "--", 2) != 0,
                 "expected --option value, got '", argv[i], "'");
        args.options[argv[i] + 2] = argv[i + 1];
    }
    return args;
}

int
cmdList()
{
    std::printf("schemes: dram dram_pre oram oram_pre stat dyn\n\n");
    std::printf("%-12s %-8s %10s %8s %6s\n", "benchmark", "suite",
                "footprint", "compute", "[M]");
    for (const auto *suite :
         {&splash2Suite(), &spec06Suite(), &dbmsSuite()}) {
        for (const auto &p : *suite) {
            std::printf("%-12s %-8s %10llu %8u %6s\n", p.name.c_str(),
                        p.suite.c_str(),
                        static_cast<unsigned long long>(
                            p.footprintBlocks),
                        p.computeCycles,
                        p.memoryIntensive ? "yes" : "no");
        }
    }
    return 0;
}

std::unique_ptr<TraceGenerator>
makeSource(const Args &args, double scale)
{
    const std::string bench = args.get("bench");
    const std::string trace = args.get("trace");
    fatal_if(bench.empty() == trace.empty(),
             "give exactly one of --bench <name> or --trace <file>");
    if (!bench.empty())
        return makeGenerator(profileByName(bench), scale);
    return std::make_unique<ReplayGenerator>(readTraceFile(trace));
}

int
cmdRecord(const Args &args)
{
    const std::string out = args.get("out");
    fatal_if(out.empty(), "record needs --out <file>");
    auto gen = makeSource(args, args.scale());
    const std::uint64_t n = writeTraceFile(*gen, out);
    std::printf("wrote %llu records to %s\n",
                static_cast<unsigned long long>(n), out.c_str());
    return 0;
}

int
cmdRun(const Args &args)
{
    const std::string scheme_name = args.get("scheme", "dyn");
    const auto it = kSchemes.find(scheme_name);
    fatal_if(it == kSchemes.end(), "unknown scheme '", scheme_name,
             "' (try: dram dram_pre oram oram_pre stat dyn)");

    SystemConfig cfg = defaultSystemConfig();
    cfg.scheme = it->second;
    cfg.oram.z = args.count("z", cfg.oram.z);
    cfg.oram.stashCapacity = args.count("stash", cfg.oram.stashCapacity);
    cfg.staticSbSize = args.count("sbsize", cfg.staticSbSize);
    cfg.dynamic.maxSbSize = args.count("sbsize", cfg.dynamic.maxSbSize);

    auto gen = makeSource(args, args.scale());

    System sys(cfg);
    const SimResult res = sys.run(*gen);

    std::printf("scheme=%s cycles=%llu references=%llu llcMisses=%llu "
                "memAccesses=%llu\n",
                res.scheme.c_str(),
                static_cast<unsigned long long>(res.cycles.value()),
                static_cast<unsigned long long>(res.references),
                static_cast<unsigned long long>(res.llcMisses),
                static_cast<unsigned long long>(res.memAccesses));
    if (res.pathAccesses > 0) {
        std::printf("pathAccesses=%llu posMap=%llu bgEvictions=%llu "
                    "merges=%llu breaks=%llu prefetchMissRate=%.3f\n",
                    static_cast<unsigned long long>(res.pathAccesses),
                    static_cast<unsigned long long>(res.posMapAccesses),
                    static_cast<unsigned long long>(res.bgEvictions),
                    static_cast<unsigned long long>(res.merges),
                    static_cast<unsigned long long>(res.breaks),
                    res.missRate());
    }
    if (args.get("stats") == "1" || args.get("stats") == "true")
        std::printf("\n%s", sys.dumpStats().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args args = parse(argc, argv);
        if (args.command == "list")
            return cmdList();
        if (args.command == "record")
            return cmdRecord(args);
        if (args.command == "run")
            return cmdRun(args);
        std::printf(
            "usage:\n"
            "  proram_cli list\n"
            "  proram_cli run --bench <name>|--trace <file> "
            "[--scheme dyn] [--scale 1.0] [--z 3] [--stash 100] "
            "[--sbsize 2] [--stats 1]\n"
            "  proram_cli record --bench <name> --out <file> "
            "[--scale 1.0]\n");
        return args.command.empty() ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
