#include "obs/audit.hh"

#include <cmath>
#include <sstream>

#include "sim/system.hh"
#include "trace/trace_file.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace proram::obs
{

double
chiSquareCritical(std::size_t dof, double quantile)
{
    fatal_if(dof == 0, "chi-squared needs at least one dof");
    // Wilson-Hilferty: chi2_q(k) ~= k * (1 - 2/9k + z_q sqrt(2/9k))^3.
    // z-scores for the quantiles the auditor uses.
    double z;
    if (quantile >= 0.9999)
        z = 3.7190;
    else if (quantile >= 0.999)
        z = 3.0902;
    else if (quantile >= 0.99)
        z = 2.3263;
    else
        z = 1.6449; // 0.95
    const double k = static_cast<double>(dof);
    const double c = 2.0 / (9.0 * k);
    const double term = 1.0 - c + z * std::sqrt(c);
    return k * term * term * term;
}

double
chiSquareUniform(const std::vector<std::uint64_t> &counts)
{
    std::uint64_t total = 0;
    for (std::uint64_t c : counts)
        total += c;
    if (total == 0 || counts.empty())
        return 0.0;
    const double expected =
        static_cast<double>(total) / counts.size();
    double chi2 = 0.0;
    for (std::uint64_t c : counts) {
        const double d = static_cast<double>(c) - expected;
        chi2 += d * d / expected;
    }
    return chi2;
}

double
twoSampleChiSquare(const std::vector<std::uint64_t> &a,
                   const std::vector<std::uint64_t> &b)
{
    panic_if(a.size() != b.size(),
             "two-sample chi-squared needs equal bucket counts");
    double na = 0.0, nb = 0.0;
    for (std::uint64_t c : a)
        na += static_cast<double>(c);
    for (std::uint64_t c : b)
        nb += static_cast<double>(c);
    if (na == 0.0 || nb == 0.0)
        return 0.0;
    const double k1 = std::sqrt(nb / na);
    const double k2 = std::sqrt(na / nb);
    double chi2 = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double ai = static_cast<double>(a[i]);
        const double bi = static_cast<double>(b[i]);
        if (ai + bi == 0.0)
            continue;
        const double d = k1 * ai - k2 * bi;
        chi2 += d * d / (ai + bi);
    }
    return chi2;
}

bool
AuditReport::pass() const
{
    for (const AuditCheck &c : checks) {
        if (c.evaluated && !c.pass)
            return false;
    }
    return true;
}

std::string
AuditReport::summary() const
{
    std::ostringstream os;
    os << "obliviousness audit: " << totalPaths << " paths ("
       << realPaths << " real)\n";
    for (const AuditCheck &c : checks) {
        os << "  " << (c.evaluated ? (c.pass ? "PASS" : "FAIL")
                                   : "skip")
           << "  " << c.name << "  statistic=" << c.statistic
           << " threshold=" << c.threshold;
        if (!c.detail.empty())
            os << "  (" << c.detail << ")";
        os << "\n";
    }
    return os.str();
}

ObliviousnessAuditor::ObliviousnessAuditor(const AuditConfig &cfg,
                                           std::uint64_t num_leaves,
                                           Cycles period)
    : cfg_(cfg), numLeaves_(num_leaves), period_(period),
      allBuckets_(cfg.leafBuckets, 0), realBuckets_(cfg.leafBuckets, 0)
{
    fatal_if(num_leaves == 0, "auditor needs a non-empty tree");
    fatal_if(cfg.leafBuckets < 2, "auditor needs >= 2 leaf buckets");
}

std::size_t
ObliviousnessAuditor::bucketOf(Leaf leaf) const
{
    panic_if(leaf.value() >= numLeaves_, "audited leaf ", leaf,
             " outside tree with ", numLeaves_, " leaves");
    return static_cast<std::size_t>(
        static_cast<std::uint64_t>(leaf.value()) * cfg_.leafBuckets /
        numLeaves_);
}

double
ObliviousnessAuditor::criticalValue() const
{
    if (cfg_.chiSquareCritical > 0.0)
        return cfg_.chiSquareCritical;
    return chiSquareCritical(cfg_.leafBuckets - 1, 0.9999);
}

void
ObliviousnessAuditor::onPath(PathKind kind, Leaf leaf)
{
    ++kindCounts_[static_cast<std::size_t>(kind)];
    ++totalPaths_;

    const std::size_t bucket = bucketOf(leaf);
    ++allBuckets_[bucket];
    if (kind == PathKind::Real)
        ++realBuckets_[bucket];

    if (leaf == lastLeaf_)
        ++consecutiveRepeats_;
    lastLeaf_ = leaf;

    if (kind == PathKind::PeriodicDummy)
        ++dummiesSinceGrant_;
    else
        ++pathsSinceGrant_;
}

void
ObliviousnessAuditor::onEvictionPath(Leaf leaf)
{
    // The audited tree has 2^L leaves (the auditor's ctor takes the
    // tree geometry), so the expected g-th eviction leaf is
    // bit-reverse(g mod 2^L, L) - an independent replay of the
    // engine's schedule, from the auditor's own counter.
    const unsigned width = log2Floor(numLeaves_);
    const std::uint64_t g = evictionPaths_++;
    const std::uint64_t expected =
        reverseBits(g & (numLeaves_ - 1), width);
    if (leaf.value() != expected)
        ++evictionViolations_;
}

void
ObliviousnessAuditor::onGrant(Cycles start, std::uint64_t paths)
{
    ++grants_;
    if (pathsSinceGrant_ != paths)
        ++accountingViolations_;
    if (period_ > Cycles{0}) {
        if (start % period_ != Cycles{0})
            ++timingViolations_;
        if (start != expectedNextStart_ + dummiesSinceGrant_ * period_)
            ++fillViolations_;
    }
    expectedNextStart_ = start + paths * period_;
    pathsSinceGrant_ = 0;
    dummiesSinceGrant_ = 0;
}

AuditReport
ObliviousnessAuditor::report() const
{
    AuditReport rep;
    rep.totalPaths = totalPaths_;
    rep.realPaths = pathsOfKind(PathKind::Real);

    const double critical = criticalValue();
    auto detail = [](auto... parts) {
        std::ostringstream os;
        (os << ... << parts);
        return os.str();
    };

    {
        AuditCheck c;
        c.name = "leaf-uniformity-all";
        c.evaluated = totalPaths_ >= cfg_.minSamples;
        c.statistic = chiSquareUniform(allBuckets_);
        c.threshold = critical;
        c.pass = c.statistic <= c.threshold;
        c.detail = detail("n=", totalPaths_, " buckets=",
                          cfg_.leafBuckets);
        rep.checks.push_back(std::move(c));
    }
    {
        AuditCheck c;
        c.name = "leaf-uniformity-real";
        c.evaluated = rep.realPaths >= cfg_.minSamples;
        c.statistic = chiSquareUniform(realBuckets_);
        c.threshold = critical;
        c.pass = c.statistic <= c.threshold;
        c.detail = detail("n=", rep.realPaths);
        rep.checks.push_back(std::move(c));
    }
    {
        // Under fresh uniform remaps, each access repeats the
        // previous leaf with probability 1/numLeaves; a block
        // re-using its leaf shows up as an excess of exact repeats.
        AuditCheck c;
        c.name = "remap-freshness";
        c.evaluated = totalPaths_ >= cfg_.minSamples;
        const double expected =
            static_cast<double>(totalPaths_) / numLeaves_;
        c.statistic = static_cast<double>(consecutiveRepeats_);
        c.threshold =
            cfg_.repeatFactor * expected + cfg_.repeatFactor;
        c.pass = c.statistic <= c.threshold;
        c.detail = detail("repeats=", consecutiveRepeats_,
                          " expected~", expected);
        rep.checks.push_back(std::move(c));
    }
    {
        AuditCheck c;
        c.name = "oint-timing";
        c.evaluated = period_ > Cycles{0} && grants_ > 0;
        c.statistic = static_cast<double>(timingViolations_);
        c.threshold = 0.0;
        c.pass = timingViolations_ == 0;
        c.detail = detail("grants=", grants_, " period=", period_);
        rep.checks.push_back(std::move(c));
    }
    {
        AuditCheck c;
        c.name = "oint-dummy-fill";
        c.evaluated = period_ > Cycles{0} && grants_ > 0;
        c.statistic = static_cast<double>(fillViolations_);
        c.threshold = 0.0;
        c.pass = fillViolations_ == 0;
        c.detail = detail("dummies=",
                          pathsOfKind(PathKind::PeriodicDummy));
        rep.checks.push_back(std::move(c));
    }
    {
        // Ring ORAM only: every scheduled eviction must have written
        // the schedule's next reverse-lexicographic path, in order.
        // Not evaluated unless the engine reported eviction paths
        // (Path ORAM never does).
        AuditCheck c;
        c.name = "ring-eviction-schedule";
        c.evaluated = evictionPaths_ > 0;
        c.statistic = static_cast<double>(evictionViolations_);
        c.threshold = 0.0;
        c.pass = evictionViolations_ == 0;
        c.detail = detail("evictions=", evictionPaths_);
        rep.checks.push_back(std::move(c));
    }
    {
        AuditCheck c;
        c.name = "path-accounting";
        c.evaluated = grants_ > 0;
        c.statistic = static_cast<double>(accountingViolations_);
        c.threshold = 0.0;
        c.pass = accountingViolations_ == 0;
        c.detail = detail("grants=", grants_);
        rep.checks.push_back(std::move(c));
    }
    return rep;
}

AuditReport
auditDifferentialReplay(const SystemConfig &cfg,
                        const std::vector<TraceRecord> &a,
                        const std::vector<TraceRecord> &b)
{
    // Run the same configuration over both logical patterns and
    // compare the observed demand-leaf distributions. The sub-runs
    // keep their own online checks (System panics if one fails).
    auto observe = [&cfg](const std::vector<TraceRecord> &records) {
        SystemConfig c = cfg;
        c.audit.enabled = true;
        System sys(c);
        panic_if(!sys.auditor(),
                 "differential replay needs an ORAM scheme, got ",
                 schemeName(c.scheme));
        ReplayGenerator gen(records);
        sys.run(gen);
        struct Observed
        {
            std::vector<std::uint64_t> buckets;
            std::uint64_t real;
            std::uint64_t total;
        };
        return Observed{sys.auditor()->realBucketCounts(),
                        sys.auditor()->pathsOfKind(PathKind::Real),
                        sys.auditor()->totalPaths()};
    };

    const auto oa = observe(a);
    const auto ob = observe(b);

    AuditReport rep;
    rep.totalPaths = oa.total + ob.total;
    rep.realPaths = oa.real + ob.real;

    AuditCheck c;
    c.name = "differential-replay";
    c.evaluated = oa.real >= cfg.audit.minSamples &&
                  ob.real >= cfg.audit.minSamples;
    c.statistic = twoSampleChiSquare(oa.buckets, ob.buckets);
    c.threshold =
        cfg.audit.chiSquareCritical > 0.0
            ? cfg.audit.chiSquareCritical
            : chiSquareCritical(cfg.audit.leafBuckets - 1, 0.9999);
    c.pass = c.statistic <= c.threshold;
    std::ostringstream os;
    os << "realA=" << oa.real << " realB=" << ob.real;
    c.detail = os.str();
    rep.checks.push_back(std::move(c));
    return rep;
}

} // namespace proram::obs
