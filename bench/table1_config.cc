/**
 * @file
 * Table 1: system configuration. Prints the default configuration
 * used by every experiment plus the derived ORAM geometry/timing.
 */

#include <cstdio>

#include "common.hh"

using namespace proram;

namespace
{

int
run()
{
    bench::banner("Table 1: System Configuration",
                  "the parameters of the paper's secure processor");

    const SystemConfig cfg = defaultSystemConfig();
    const OramConfig &o = cfg.oram;

    stats::Table t({"parameter", "value"});
    t.row().add("Core model").add("1 GHz, in-order, trace-driven");
    t.row().add("L1 I/D cache").add(
        std::to_string(cfg.hierarchy.l1.sizeBytes / 1024) + " KB, " +
        std::to_string(cfg.hierarchy.l1.ways) + "-way");
    t.row().add("Shared L2 cache").add(
        std::to_string(cfg.hierarchy.l2.sizeBytes / 1024) + " KB, " +
        std::to_string(cfg.hierarchy.l2.ways) + "-way");
    t.row().add("Cacheline (block) size").addInt(
        cfg.hierarchy.l1.lineBytes);
    t.row().add("DRAM bandwidth (GB/s)").add(o.dramBytesPerCycle, 1);
    t.row().add("Conventional DRAM latency").addInt(
        cfg.dram.dram.latency.value());
    t.row().add("ORAM capacity (data blocks)").addInt(o.numDataBlocks);
    t.row().add("Number of ORAM hierarchies").addInt(o.hierarchies);
    t.row().add("ORAM basic block size (B)").addInt(o.blockBytes);
    t.row().add("Z (blocks/bucket)").addInt(o.z);
    t.row().add("Max super block size").addInt(cfg.dynamic.maxSbSize);
    t.row().add("Stash size (blocks)").addInt(o.stashCapacity);

    // Derived geometry.
    t.row().add("-- derived: tree levels L").addInt(o.levels());
    t.row().add("-- derived: pos-map levels in tree").addInt(
        o.posMapLevels());
    t.row().add("-- derived: pos-map fanout").addInt(o.posMapFanout());
    t.row().add("-- derived: on-chip pos-map entries").addInt(
        o.onChipPosMapEntries());
    t.row().add("-- derived: path access latency (cycles)").addInt(
        o.pathAccessCycles().value());
    const double util =
        static_cast<double>(o.numTotalBlocks()) /
        (static_cast<double>(o.z) * ((2ULL << o.levels()) - 1));
    t.row().add("-- derived: tree slot utilization").add(util, 3);

    // Full-size (8 GB, 2^26 blocks) timing for reference.
    OramConfig full = o;
    full.timingLevels = 26;
    t.row()
        .add("-- 8 GB configuration path latency (cycles)")
        .addInt(full.pathAccessCycles().value());

    std::printf("%s\n", t.str().c_str());
    return 0;
}

} // namespace

int
main()
{
    return bench::runMain(run);
}
