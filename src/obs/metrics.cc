#include "obs/metrics.hh"

#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include "obs/trace.hh"
#include "stats/json.hh"

namespace proram::obs
{

std::uint64_t
peakRssBytes()
{
#if defined(__linux__)
    // VmHWM is the peak resident set in kB; parsing /proc keeps this
    // allocation-cheap and dependency-free (no getrusage unit
    // ambiguity across platforms).
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream is(line.substr(6));
            std::uint64_t kb = 0;
            is >> kb;
            return kb * 1024;
        }
    }
#endif
    return 0;
}

void
MetricsRegistry::addLabel(std::string key, std::string value)
{
    labels_.emplace_back(std::move(key), std::move(value));
}

void
MetricsRegistry::addGroup(stats::StatGroup group)
{
    groups_.push_back(std::move(group));
}

void
MetricsRegistry::addLogHistogram(std::string name, std::string desc,
                                 const stats::LogHistogram *h)
{
    logHists_.push_back({std::move(name), std::move(desc), h});
}

void
MetricsRegistry::addDistribution(std::string name, std::string desc,
                                 const stats::Distribution *d)
{
    dists_.push_back({std::move(name), std::move(desc), d});
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    stats::JsonWriter w(os);
    w.beginObject();
    w.key("schema");
    w.value(kMetricsSchema);
    for (const auto &[key, value] : labels_) {
        w.key(key);
        w.value(value);
    }

    w.key("groups");
    w.beginObject();
    for (const stats::StatGroup &g : groups_) {
        w.key(g.name());
        g.dumpJson(w);
    }
    w.endObject();

    w.key("histograms");
    w.beginObject();
    for (const NamedLogHistogram &h : logHists_) {
        w.key(h.name);
        w.beginObject();
        w.key("desc");
        w.value(h.desc);
        w.key("total");
        w.value(h.hist->total());
        w.key("min");
        w.value(h.hist->min());
        w.key("max");
        w.value(h.hist->max());
        w.key("mean");
        w.value(h.hist->mean());
        w.key("p99UpperBound");
        w.value(h.hist->percentileUpperBound(0.99));
        // Log2 buckets as [lo, hi) edges; only up to the last
        // populated bucket so the dump stays compact.
        w.key("buckets");
        w.beginArray();
        const std::size_t last = h.hist->maxBucket();
        for (std::size_t i = 0; i <= last; ++i) {
            w.beginObject();
            w.key("lo");
            w.value(stats::LogHistogram::bucketLo(i));
            w.key("hi");
            w.value(stats::LogHistogram::bucketHi(i));
            w.key("count");
            w.value(h.hist->bucketCount(i));
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();

    w.key("distributions");
    w.beginObject();
    for (const NamedDistribution &d : dists_) {
        w.key(d.name);
        w.beginObject();
        w.key("desc");
        w.value(d.desc);
        w.key("count");
        w.value(d.dist->count());
        w.key("min");
        w.value(d.dist->min());
        w.key("max");
        w.value(d.dist->max());
        w.key("mean");
        w.value(d.dist->mean());
        w.endObject();
    }
    w.endObject();

    // Process-level memory sample: the OS-truth complement to the
    // tree's bucket-record byte accounting (arena* stats).
    w.key("process");
    w.beginObject();
    w.key("peakRssBytes");
    w.value(peakRssBytes());
    w.endObject();

    // Per-phase event counters from the tracer (zero when tracing is
    // idle or compiled out - the key is still present so consumers
    // need no schema branch).
    w.key("traceEventCounts");
    w.beginObject();
#if PRORAM_TRACE_ENABLED
    for (const auto &[cat, count] : TraceSink::instance().categoryCounts()) {
        w.key(cat);
        w.value(count);
    }
#endif
    w.endObject();

    w.endObject();
}

std::string
MetricsRegistry::json() const
{
    std::ostringstream os;
    writeJson(os);
    return os.str();
}

} // namespace proram::obs
