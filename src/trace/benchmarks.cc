#include "trace/benchmarks.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace proram
{

namespace
{

/** @p profile's trace length at @p scale, checked before it is
 *  converted: the scale must be finite and > 0 and the product must
 *  fit in 64 bits. */
std::uint64_t
scaledAccesses(const BenchmarkProfile &profile, double scale)
{
    fatal_if(!std::isfinite(scale) || scale <= 0.0,
             "trace scale must be finite and positive, got ", scale);
    const double target = static_cast<double>(profile.numAccesses) * scale;
    fatal_if(target >= std::ldexp(1.0, 64), "trace scale ", scale,
             " overflows ", profile.name, "'s ", profile.numAccesses,
             " accesses");
    return static_cast<std::uint64_t>(target);
}

} // namespace

ProfileGenerator::ProfileGenerator(const BenchmarkProfile &profile,
                                   double scale)
    : prof_(profile), target_(scaledAccesses(profile, scale)),
      rng_(profile.seed)
{
    fatal_if(profile.footprintBlocks < 16, "footprint too small");
    if (prof_.zipf) {
        const std::uint64_t records =
            prof_.footprintBlocks / prof_.recordBlocks;
        fatal_if(records < 2, "too few records for zipf profile");
        zipf_ = std::make_unique<ZipfGenerator>(records,
                                                prof_.zipfTheta);
    }
}

void
ProfileGenerator::reset()
{
    rng_ = Rng(prof_.seed);
    emitted_ = 0;
    cursor_ = 0;
    remainingRun_ = 0;
    if (zipf_) {
        zipf_ = std::make_unique<ZipfGenerator>(
            prof_.footprintBlocks / prof_.recordBlocks,
            prof_.zipfTheta);
    }
}

void
ProfileGenerator::startBurst()
{
    if (zipf_) {
        if (rng_.chance(prof_.burstProb)) {
            // Scan one (zipf-popular) record end to end.
            const std::uint64_t record = zipf_->next(rng_);
            cursor_ = record * prof_.recordBlocks;
            remainingRun_ = prof_.recordBlocks;
        } else {
            // Point access to a random tuple/index block.
            cursor_ = rng_.below(prof_.footprintBlocks);
            remainingRun_ = 1;
        }
        return;
    }

    if (rng_.chance(prof_.burstProb)) {
        // Sequential run with mean length runLen, uniform in
        // [1, 2*runLen - 1], starting inside the streaming region.
        const std::uint32_t len = static_cast<std::uint32_t>(
            1 + rng_.below(2ULL * prof_.runLen - 1));
        const std::uint64_t region = std::max<std::uint64_t>(
            16, static_cast<std::uint64_t>(prof_.seqRegionFraction *
                                           prof_.footprintBlocks));
        cursor_ = rng_.below(region);
        remainingRun_ = len;
    } else {
        // Point access anywhere in the footprint.
        cursor_ = rng_.below(prof_.footprintBlocks);
        remainingRun_ = 1;
    }
}

bool
ProfileGenerator::next(TraceRecord &rec)
{
    if (emitted_ >= target_)
        return false;

    if (remainingRun_ == 0)
        startBurst();

    const std::uint64_t block = cursor_ % prof_.footprintBlocks;
    ++cursor_;
    --remainingRun_;

    rec.addr = block * prof_.blockBytes;
    rec.op = rng_.chance(prof_.writeFraction) ? OpType::Write
                                              : OpType::Read;
    rec.computeCycles = prof_.computeCycles;
    ++emitted_;
    return true;
}

namespace
{

BenchmarkProfile
make(std::string name, std::string suite, bool mem, std::uint64_t fp,
     std::uint32_t compute, double burst_prob, std::uint32_t run_len,
     double writes, std::uint64_t seed, double seq_region)
{
    BenchmarkProfile p;
    p.name = std::move(name);
    p.suite = std::move(suite);
    p.memoryIntensive = mem;
    p.footprintBlocks = fp;
    p.computeCycles = compute;
    p.burstProb = burst_prob;
    p.runLen = run_len;
    p.writeFraction = writes;
    p.seqRegionFraction = seq_region;
    p.seed = seed;
    p.numAccesses = 150000;
    // The streaming benchmarks get longer traces so the dynamic
    // scheme's learned state dominates over its warm-up.
    if (p.name == "ocean_c" || p.name == "ocean_nc" || p.name == "fft")
        p.numAccesses = 250000;
    return p;
}

} // namespace

const std::vector<BenchmarkProfile> &
splash2Suite()
{
    // Ordered by ascending baseline-ORAM-over-DRAM overhead as in
    // Fig. 8a. Compute gaps set the memory intensiveness; burst
    // probability and run length set the exploitable spatial
    // locality (ocean_* stream over grids; volrend/radix scatter).
    static const std::vector<BenchmarkProfile> suite = {
        make("water_ns", "splash2", false, 6144, 260, 0.55, 4, 0.25, 101, 0.60),
        make("water_s", "splash2", false, 6144, 230, 0.55, 4, 0.25, 102, 0.60),
        make("radiosity", "splash2", false, 6144, 180, 0.45, 3, 0.25, 103, 0.50),
        make("lu_c", "splash2", false, 8192, 140, 0.65, 6, 0.30, 104, 0.70),
        make("volrend", "splash2", false, 12288, 80, 0.12, 2, 0.10, 105, 0.20),
        make("barnes", "splash2", true, 16384, 34, 0.40, 2, 0.25, 106, 0.45),
        make("fmm", "splash2", true, 16384, 30, 0.45, 3, 0.25, 107, 0.50),
        make("cholesky", "splash2", true, 16384, 26, 0.50, 4, 0.30, 108, 0.55),
        make("lu_nc", "splash2", true, 20480, 22, 0.55, 3, 0.30, 109, 0.60),
        make("raytrace", "splash2", true, 24576, 16, 0.45, 3, 0.10, 110, 0.50),
        make("radix", "splash2", true, 16384, 12, 0.20, 2, 0.45, 111, 0.25),
        make("fft", "splash2", true, 16384, 10, 0.65, 6, 0.20, 112, 0.60),
        make("ocean_c", "splash2", true, 24576, 6, 0.93, 24, 0.15, 113, 0.90),
        make("ocean_nc", "splash2", true, 24576, 6, 0.88, 16, 0.18, 114, 0.85),
    };
    return suite;
}

const std::vector<BenchmarkProfile> &
spec06Suite()
{
    static const std::vector<BenchmarkProfile> suite = {
        make("h264", "spec06", false, 6144, 200, 0.60, 5, 0.25, 201, 0.65),
        make("hmmer", "spec06", false, 6144, 180, 0.55, 4, 0.25, 202, 0.60),
        make("sjeng", "spec06", false, 10240, 130, 0.20, 2, 0.20, 203, 0.25),
        make("perl", "spec06", false, 10240, 110, 0.50, 3, 0.25, 204, 0.55),
        make("astar", "spec06", false, 12288, 70, 0.25, 2, 0.20, 205, 0.30),
        make("gobmk", "spec06", false, 10240, 70, 0.40, 3, 0.20, 206, 0.45),
        make("gcc", "spec06", false, 12288, 55, 0.50, 4, 0.30, 207, 0.55),
        make("bzip2", "spec06", true, 16384, 38, 0.60, 6, 0.25, 208, 0.65),
        make("omnet", "spec06", true, 16384, 22, 0.18, 2, 0.30, 209, 0.25),
        make("mcf", "spec06", true, 32768, 9, 0.15, 2, 0.25, 210, 0.20),
    };
    return suite;
}

const std::vector<BenchmarkProfile> &
dbmsSuite()
{
    static const std::vector<BenchmarkProfile> suite = [] {
        // YCSB: zipf-popular records scanned tuple-by-tuple - long
        // sequential runs, highly memory bound.
        BenchmarkProfile ycsb;
        ycsb.name = "YCSB";
        ycsb.suite = "dbms";
        ycsb.memoryIntensive = true;
        ycsb.footprintBlocks = 24576;
        ycsb.computeCycles = 12;
        ycsb.burstProb = 0.80;
        ycsb.zipf = true;
        ycsb.zipfTheta = 0.99;
        ycsb.recordBlocks = 8;
        ycsb.writeFraction = 0.10;
        ycsb.numAccesses = 250000;
        ycsb.seed = 301;

        // TPCC: short transactions touching scattered tuples; little
        // exploitable run length.
        BenchmarkProfile tpcc;
        tpcc.name = "TPCC";
        tpcc.suite = "dbms";
        tpcc.memoryIntensive = true;
        tpcc.footprintBlocks = 24576;
        tpcc.computeCycles = 30;
        tpcc.burstProb = 0.35;
        tpcc.zipf = true;
        tpcc.zipfTheta = 0.80;
        tpcc.recordBlocks = 2;
        tpcc.writeFraction = 0.40;
        tpcc.seed = 302;

        return std::vector<BenchmarkProfile>{ycsb, tpcc};
    }();
    return suite;
}

const BenchmarkProfile &
profileByName(const std::string &name)
{
    for (const auto *suite :
         {&splash2Suite(), &spec06Suite(), &dbmsSuite()}) {
        for (const auto &p : *suite) {
            if (p.name == name)
                return p;
        }
    }
    fatal("unknown benchmark '", name, "'");
}

std::unique_ptr<TraceGenerator>
makeGenerator(const BenchmarkProfile &profile, double scale)
{
    return std::make_unique<ProfileGenerator>(profile, scale);
}

} // namespace proram
