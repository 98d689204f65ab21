/**
 * @file
 * Scheme-interface conformance (DESIGN.md §13): every OramScheme
 * implementation must satisfy the same controller-visible contract.
 * The grid drives both protocols through the serial queue drive
 * (System::runQueue) under the baseline and dynamic super-block
 * policies, with and without periodic (Oint) timing, and requires
 * trace-order payload semantics plus the structural invariants. The
 * schemes legitimately differ in path counts and timing; they must
 * NOT differ in what a request observes.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "oram/integrity.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "util/logging.hh"

namespace proram
{
namespace
{

constexpr std::uint32_t kLineBytes = 128;

/** Deterministic xorshift trace over @p footprint_blocks data blocks. */
std::vector<TraceRecord>
makeTrace(std::size_t n, std::uint64_t footprint_blocks,
          std::uint64_t seed)
{
    std::vector<TraceRecord> records;
    records.reserve(n);
    std::uint64_t x = seed | 1;
    for (std::size_t i = 0; i < n; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        TraceRecord rec;
        rec.addr = (x % footprint_blocks) * kLineBytes;
        rec.op = (x >> 32) % 4 == 0 ? OpType::Write : OpType::Read;
        records.push_back(rec);
    }
    return records;
}

SystemConfig
smallConfig(SchemeKind kind)
{
    SystemConfig cfg = defaultSystemConfig();
    cfg.oram.numDataBlocks = 1ULL << 12;
    cfg.oram.scheme = kind;
    return cfg;
}

/** Trace-order payload model: what every read/write must observe. */
std::vector<std::uint64_t>
expectedPayloads(const std::vector<TraceRecord> &records)
{
    std::vector<std::uint64_t> last(1ULL << 12, 0);
    std::vector<std::uint64_t> expect(records.size(), 0);
    for (std::size_t i = 0; i < records.size(); ++i) {
        const std::uint64_t block = records[i].addr / kLineBytes;
        if (records[i].op == OpType::Write)
            last[block] = (static_cast<std::uint64_t>(i) + 1) *
                          0x9E3779B97F4A7C15ULL;
        expect[i] = last[block];
    }
    return expect;
}

void
expectIntact(System &sys, const std::string &label)
{
    ASSERT_NE(sys.controller(), nullptr);
    const auto report = checkIntegrity(sys.controller()->oram());
    EXPECT_TRUE(report.ok)
        << label << ": " << report.violations.size()
        << " violations, first: "
        << (report.violations.empty() ? "" : report.violations.front());
}

class SchemeConformance
    : public ::testing::TestWithParam<
          std::tuple<SchemeKind, MemScheme, bool>>
{
};

TEST_P(SchemeConformance, PayloadsMatchTraceOrderAndTreeStaysIntact)
{
    const auto [kind, scheme, periodic] = GetParam();
    const std::string label = std::string(schemeKindName(kind)) + "_" +
                              schemeName(scheme) +
                              (periodic ? "_oint100" : "");
    const std::vector<TraceRecord> records =
        makeTrace(1200, 1ULL << 12, 0x5C4E3E);

    SystemConfig cfg = smallConfig(kind);
    cfg.scheme = scheme;
    cfg.controller.periodic.enabled = periodic;
    cfg.controller.periodic.oInt = Cycles{100};
    System sys(cfg);
    std::vector<std::uint64_t> payloads;
    const SimResult res = sys.runQueue(records, &payloads);

    EXPECT_EQ(res.references, records.size());
    EXPECT_GT(res.cycles, Cycles{0});
    const std::vector<std::uint64_t> expect = expectedPayloads(records);
    EXPECT_EQ(payloads, expect) << label;

    // Idle time: a periodic controller fills every elapsed slot with a
    // dummy access (Path: a random path, Ring: a scheduled eviction).
    // Dummies remap nothing, so reading every touched block back must
    // return its last written value.
    OramController &ctl = *sys.controller();
    constexpr std::uint64_t kIdleSlots = 64;
    ctl.finalize(ctl.busyUntil() +
                 kIdleSlots * ctl.scheduler().period());
    if (periodic) {
        EXPECT_GE(ctl.stats().periodicDummies, kIdleSlots) << label;
    }
    // A block's last access observed its final value.
    std::vector<TraceRecord> readback;
    std::vector<std::uint64_t> final_values;
    std::vector<bool> seen(1ULL << 12, false);
    for (std::size_t i = records.size(); i-- > 0;) {
        const std::uint64_t block = records[i].addr / kLineBytes;
        if (seen[block])
            continue;
        seen[block] = true;
        TraceRecord rec;
        rec.addr = records[i].addr;
        readback.push_back(rec);
        final_values.push_back(expect[i]);
    }
    std::vector<std::uint64_t> after;
    sys.runQueue(readback, &after);
    EXPECT_EQ(after, final_values) << label;
    expectIntact(sys, label);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SchemeConformance,
    ::testing::Combine(::testing::Values(SchemeKind::Path,
                                         SchemeKind::Ring),
                       ::testing::Values(MemScheme::OramBaseline,
                                         MemScheme::OramDynamic),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::string(schemeKindName(std::get<0>(info.param))) +
               "_" + schemeName(std::get<1>(info.param)) +
               (std::get<2>(info.param) ? "_oint100" : "");
    });

TEST(SchemeConformance, SchemesObserveIdenticalPayloads)
{
    // The protocol choice is invisible to the memory semantics: the
    // same trace must read back the same values under either scheme.
    const std::vector<TraceRecord> records =
        makeTrace(1500, 1ULL << 12, 0xFEED5);
    const std::vector<std::uint64_t> expect = expectedPayloads(records);

    for (const SchemeKind kind : {SchemeKind::Path, SchemeKind::Ring}) {
        SystemConfig cfg = smallConfig(kind);
        cfg.scheme = MemScheme::OramBaseline;
        System sys(cfg);
        std::vector<std::uint64_t> payloads;
        sys.runQueue(records, &payloads);
        EXPECT_EQ(payloads, expect) << schemeKindName(kind);
    }
}

TEST(SchemeConformance, AuditedRunPassesOnBothSchemes)
{
    // System panics at end-of-run on an audit failure, so a clean
    // return proves the leaf-uniformity checks (and, for Ring, the
    // deterministic-eviction accounting check) held.
    const std::vector<TraceRecord> records =
        makeTrace(1200, 1ULL << 12, 0xAD17ED);
    for (const SchemeKind kind : {SchemeKind::Path, SchemeKind::Ring}) {
        SystemConfig cfg = smallConfig(kind);
        cfg.scheme = MemScheme::OramDynamic;
        cfg.audit.enabled = true;
        System sys(cfg);
        const SimResult res = sys.runQueue(records, nullptr);
        EXPECT_EQ(res.references, records.size());
        ASSERT_NE(sys.auditor(), nullptr);
        const obs::AuditReport rep = sys.auditor()->report();
        EXPECT_TRUE(rep.pass()) << schemeKindName(kind) << "\n"
                                << rep.summary();
        if (kind == SchemeKind::Ring) {
            // The Ring run must actually exercise the schedule check.
            EXPECT_GT(sys.auditor()->evictionPaths(), 0u);
        } else {
            EXPECT_EQ(sys.auditor()->evictionPaths(), 0u);
        }
    }
}

TEST(SchemeConformance, RingSurvivesSmallBucketAndBudgetCorners)
{
    // Early-reshuffle stress: Z=1 buckets with the minimum read
    // budget force a reshuffle on nearly every bucket touch, and an
    // eviction every access keeps the tiny buckets from starving the
    // stash. Payload semantics must hold regardless.
    const std::vector<TraceRecord> records =
        makeTrace(800, 1ULL << 12, 0xC0124E5);

    SystemConfig cfg = smallConfig(SchemeKind::Ring);
    cfg.scheme = MemScheme::OramDynamic;
    cfg.oram.z = 1;
    cfg.oram.ringS = 1;
    cfg.oram.ringA = 1;
    cfg.oram.stashCapacity = 400;
    System sys(cfg);
    std::vector<std::uint64_t> payloads;
    sys.runQueue(records, &payloads);
    EXPECT_EQ(payloads, expectedPayloads(records));
    expectIntact(sys, "ring_small_zs");
}

TEST(SchemeConformance, MetricsLabelAndCountersNameTheScheme)
{
    const std::vector<TraceRecord> records =
        makeTrace(400, 1ULL << 12, 0x1ABE1);

    SystemConfig ring = smallConfig(SchemeKind::Ring);
    ring.scheme = MemScheme::OramBaseline;
    System rsys(ring);
    rsys.runQueue(records, nullptr);
    const std::string rjson = rsys.metricsJson();
    EXPECT_NE(rjson.find("\"oramScheme\":\"ring\""), std::string::npos)
        << rjson.substr(0, 200);
    EXPECT_NE(rjson.find("ringBucketReads"), std::string::npos);
    EXPECT_NE(rjson.find("ringEarlyReshuffles"), std::string::npos);

    SystemConfig path = smallConfig(SchemeKind::Path);
    path.scheme = MemScheme::OramBaseline;
    System psys(path);
    psys.runQueue(records, nullptr);
    EXPECT_NE(psys.metricsJson().find("\"oramScheme\":\"path\""),
              std::string::npos);
}

TEST(SchemeConformance, SerialRunMatchesQueueDrainPerScheme)
{
    // runQueue() drives the same dataAccess protocol as run()'s trace
    // CPU, one request at a time against the controller clock: every
    // request is billed, and the tree survives the integrity sweep.
    for (const SchemeKind kind : {SchemeKind::Path, SchemeKind::Ring}) {
        const std::vector<TraceRecord> records =
            makeTrace(1000, 1ULL << 12, 0x5E71A1);
        SystemConfig cfg = smallConfig(kind);
        cfg.scheme = MemScheme::OramBaseline;
        System sys(cfg);
        std::vector<std::uint64_t> payloads;
        const SimResult res = sys.runQueue(records, &payloads);
        EXPECT_EQ(res.references, records.size());
        EXPECT_EQ(sys.controller()->stats().realRequests,
                  records.size());
        EXPECT_EQ(payloads, expectedPayloads(records));
        expectIntact(sys, std::string("serial_") + schemeKindName(kind));
    }
}

/** The lazily initialized (on-demand tree) variant of @p kind's
 *  config. */
SystemConfig
sparseLazyConfig(SchemeKind kind, MemScheme scheme)
{
    SystemConfig cfg = smallConfig(kind);
    cfg.scheme = scheme;
    cfg.oram.lazyInit = true;
    return cfg;
}

TEST(SchemeConformance, SparseLazyMatchesEagerDense)
{
    // Lazy initialization over on-demand tree storage must be
    // invisible to the drive semantics: every request observes exactly
    // the payloads of the eager run, first-touch accounting stays
    // exact, and the invariants hold.
    const std::vector<TraceRecord> records =
        makeTrace(1500, 1ULL << 12, 0xFACADE);
    for (const SchemeKind kind : {SchemeKind::Path, SchemeKind::Ring}) {
        SystemConfig dense = smallConfig(kind);
        dense.scheme = MemScheme::OramDynamic;
        System dsys(dense);
        std::vector<std::uint64_t> expect;
        dsys.runQueue(records, &expect);

        System sys(sparseLazyConfig(kind, MemScheme::OramDynamic));
        std::vector<std::uint64_t> payloads;
        sys.runQueue(records, &payloads);
        EXPECT_EQ(payloads, expect) << schemeKindName(kind);

        const BinaryTree &tree = sys.controller()->oram().engine().tree();
        std::uint64_t seen = 0;
        for (std::uint64_t c = 0; c < tree.numChunks(); ++c)
            seen += tree.materialized(c) ? 1 : 0;
        EXPECT_GT(seen, 0u);
        EXPECT_EQ(tree.chunksMaterialized(), seen);
        EXPECT_EQ(tree.bytesResident(), seen * tree.chunkBytes());
        expectIntact(sys, std::string("sparse_lazy_") +
                              schemeKindName(kind));
    }
}

TEST(SchemeConformance, SparseLazyChunkSetIsDeterministic)
{
    // Same trace, run twice: lazy creation and chunk materialization
    // are functions of the (seeded) access sequence alone, so the
    // materialized-chunk set must repeat exactly.
    const std::vector<TraceRecord> records =
        makeTrace(1000, 1ULL << 12, 0xDECADE);
    const auto run = [&records] {
        System sys(
            sparseLazyConfig(SchemeKind::Path, MemScheme::OramBaseline));
        sys.runQueue(records, nullptr);
        const BinaryTree &tree = sys.controller()->oram().engine().tree();
        std::vector<bool> chunks(tree.numChunks());
        for (std::uint64_t c = 0; c < tree.numChunks(); ++c)
            chunks[c] = tree.materialized(c);
        return chunks;
    };
    EXPECT_EQ(run(), run());
}

} // namespace
} // namespace proram
