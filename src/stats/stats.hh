/**
 * @file
 * Minimal gem5-flavoured statistics package: distributions,
 * histograms, and named values registered into a StatGroup that can
 * be dumped as text. Counters are plain std::uint64_t members of a
 * component's stats struct, named once in a Field list beside it.
 */

#ifndef PRORAM_STATS_STATS_HH
#define PRORAM_STATS_STATS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace proram::stats
{

/**
 * A sampled distribution: tracks count, sum, min, max and mean.
 * Used for stash occupancy, super-block sizes, queue delays etc.
 */
class Distribution
{
  public:
    void sample(double v);

    /** Fold @p other into this distribution (per-run collection:
     *  each run samples a private copy, merged once at the end). */
    void merge(const Distribution &other);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    void reset();

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Log2-bucketed histogram over unsigned samples: bucket i counts
 * values whose bit width is i, i.e. bucket 0 holds v == 0, bucket i
 * holds v in [2^(i-1), 2^i). Constant 65-bucket footprint covers the
 * full uint64 range, which is what makes it safe to histogram
 * latencies whose magnitude is unknown up front (the observability
 * layer's latency/size distributions).
 */
class LogHistogram
{
  public:
    static constexpr std::size_t kBuckets = 65;

    void sample(std::uint64_t v);

    /** Fold @p other into this histogram (sharded collection). */
    void merge(const LogHistogram &other);

    std::uint64_t total() const { return total_; }
    std::uint64_t min() const { return total_ ? min_ : 0; }
    std::uint64_t max() const { return total_ ? max_ : 0; }
    double sum() const { return sum_; }
    double mean() const { return total_ ? sum_ / total_ : 0.0; }

    std::uint64_t bucketCount(std::size_t i) const
    {
        return counts_[i];
    }
    /** Inclusive lower edge of bucket @p i (0, 1, 2, 4, 8, ...). */
    static std::uint64_t bucketLo(std::size_t i);
    /** Exclusive upper edge of bucket @p i. */
    static std::uint64_t bucketHi(std::size_t i);
    /** Index of the last non-empty bucket (0 when empty). */
    std::size_t maxBucket() const;

    /** Smallest bucket upper edge covering fraction @p p of samples
     *  (a coarse percentile; exact within a factor of two). */
    std::uint64_t percentileUpperBound(double p) const;

    void reset();

  private:
    std::uint64_t counts_[kBuckets] = {};
    std::uint64_t total_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
    double sum_ = 0.0;
};

/** One named stat inside a group: name, description, value closure. */
struct StatEntry
{
    std::string name;
    std::string desc;
    std::function<double()> value;
};

/**
 * A named collection of statistics belonging to one simulated
 * component. Components register their counters at construction; the
 * experiment harness reads or prints them after a run.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    void addValue(const std::string &name, const std::string &desc,
                  std::function<double()> fn);

    const std::string &name() const { return name_; }
    const std::vector<StatEntry> &entries() const { return entries_; }

    /** Look up a stat by name; panics if absent (simulator bug). */
    double get(const std::string &name) const;

    /** Render "group.stat value # desc" lines, gem5 stats.txt style. */
    std::string dump() const;

    /** Write {"stat": value, ...} into @p w (machine-readable twin
     *  of dump(); the writer must be inside an object with the
     *  group's key already emitted). */
    void dumpJson(class JsonWriter &w) const;

  private:
    std::string name_;
    std::vector<StatEntry> entries_;
};

/** One counter of stats struct @p S: its stat name, description and
 *  member. */
template <typename S>
struct Field
{
    const char *name;
    const char *desc;
    std::uint64_t S::*member;
};

/** Register each of @p fields in @p g, read live from @p *s (which
 *  must outlive the group). */
template <typename S, std::size_t N>
void
addFields(StatGroup &g, const Field<S> (&fields)[N], const S *s)
{
    for (const Field<S> &f : fields) {
        g.addValue(f.name, f.desc, [s, m = f.member] {
            return static_cast<double>(s->*m);
        });
    }
}

} // namespace proram::stats

#endif // PRORAM_STATS_STATS_HH
