/**
 * @file
 * Quickstart: build a PrORAM-backed oblivious memory, read and write
 * through it, and inspect the cost of obliviousness.
 *
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "sim/secure_memory.hh"

using namespace proram;

int
main()
{
    // 1. Configure the secure processor. Defaults mirror Table 1 of
    //    the paper; here we pick PrORAM (dynamic super blocks).
    SystemConfig cfg = defaultSystemConfig();
    cfg.scheme = MemScheme::OramDynamic;

    SecureMemory mem(cfg);
    std::printf("Oblivious memory: %llu KB in a %u-level Path ORAM "
                "tree (Z=%u), path access = %llu cycles\n",
                static_cast<unsigned long long>(mem.capacityBytes() /
                                                1024),
                cfg.oram.levels(), cfg.oram.z,
                static_cast<unsigned long long>(
                    cfg.oram.pathAccessCycles().value()));

    // 2. Use it like RAM. Every miss becomes an oblivious path
    //    access; an adversary watching the memory bus sees only
    //    uniformly random tree paths.
    const Addr base = 0;
    for (std::uint64_t i = 0; i < 4096; ++i)
        mem.write(base + i * 128, i * i);

    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < 4096; ++i)
        sum += mem.read(base + i * 128);
    std::printf("checksum = %llu (expected %llu)\n",
                static_cast<unsigned long long>(sum),
                static_cast<unsigned long long>(
                    4095ULL * 4096 * (2 * 4095 + 1) / 6));

    // 3. Inspect what the obliviousness cost and what the dynamic
    //    prefetcher recovered.
    const SimResult s = mem.stats();
    std::printf("\n-- run statistics --\n");
    std::printf("cycles:              %llu\n",
                static_cast<unsigned long long>(s.cycles.value()));
    std::printf("LLC misses:          %llu\n",
                static_cast<unsigned long long>(s.llcMisses));
    std::printf("ORAM path accesses:  %llu (of which pos-map: %llu, "
                "background evictions: %llu)\n",
                static_cast<unsigned long long>(s.pathAccesses),
                static_cast<unsigned long long>(s.posMapAccesses),
                static_cast<unsigned long long>(s.bgEvictions));
    std::printf("super blocks merged: %llu, broken: %llu\n",
                static_cast<unsigned long long>(s.merges),
                static_cast<unsigned long long>(s.breaks));
    std::printf("prefetch hits:       %llu (miss rate %.1f%%)\n",
                static_cast<unsigned long long>(s.prefetchHits),
                s.missRate() * 100.0);
    std::printf("avg stash occupancy: %.1f blocks\n",
                s.avgStashOccupancy);

    // 4. Full gem5-style counter dump for deeper digging.
    std::printf("\n-- component counters --\n%s",
                mem.dumpStats().c_str());
    return 0;
}
