/**
 * @file
 * Metrics registry: aggregates the per-component StatGroups plus the
 * observability layer's histograms into one machine-readable JSON
 * document, the twin of the human-readable stats.txt dump. One
 * registry describes one System (one simulation run); the JSON lands
 * next to the experiment tables (PRORAM_METRICS_FILE) and feeds
 * bench/snapshot.py's `--metrics-jsonl` ingestion.
 *
 * Registered pointers are borrowed: the registry holds closures and
 * histogram pointers into live components, so build it, serialize
 * it, and let it go while the System is still alive (exactly the
 * StatGroup contract).
 */

#ifndef PRORAM_OBS_METRICS_HH
#define PRORAM_OBS_METRICS_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "stats/stats.hh"

namespace proram::obs
{

/** Schema tag stamped into every metrics document. */
inline constexpr const char *kMetricsSchema = "proram-metrics-v1";

/**
 * Peak resident-set size of this process in bytes (Linux VmHWM;
 * 0 where /proc is unavailable). Sampled at serialization time, so a
 * metrics dump written at experiment end records the run's true
 * memory high-water mark next to the tree's own byte accounting
 * (which only counts bucket records).
 */
std::uint64_t peakRssBytes();

class MetricsRegistry
{
  public:
    /** Attach one free-form label (scheme, workload, run id...). */
    void addLabel(std::string key, std::string value);

    /** Register a component's named-stat group (copied; the entry
     *  closures still point into the component). */
    void addGroup(stats::StatGroup group);

    /** Register a log-bucketed histogram (borrowed pointer). */
    void addLogHistogram(std::string name, std::string desc,
                         const stats::LogHistogram *h);

    /** Register a min/max/mean distribution (borrowed pointer). */
    void addDistribution(std::string name, std::string desc,
                         const stats::Distribution *d);

    /** Serialize everything as one JSON object (no trailing
     *  newline). */
    void writeJson(std::ostream &os) const;
    std::string json() const;

  private:
    struct NamedLogHistogram
    {
        std::string name;
        std::string desc;
        const stats::LogHistogram *hist;
    };

    struct NamedDistribution
    {
        std::string name;
        std::string desc;
        const stats::Distribution *dist;
    };

    std::vector<std::pair<std::string, std::string>> labels_;
    std::vector<stats::StatGroup> groups_;
    std::vector<NamedLogHistogram> logHists_;
    std::vector<NamedDistribution> dists_;
};

} // namespace proram::obs

#endif // PRORAM_OBS_METRICS_HH
