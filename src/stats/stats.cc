#include "stats/stats.hh"

#include <algorithm>
#include <bit>
#include <iomanip>
#include <limits>
#include <sstream>

#include "stats/json.hh"
#include "util/logging.hh"

namespace proram::stats
{

void
Distribution::sample(double v)
{
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
}

void
Distribution::merge(const Distribution &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
}

void
Distribution::reset()
{
    count_ = 0;
    sum_ = min_ = max_ = 0.0;
}

void
LogHistogram::sample(std::uint64_t v)
{
    if (total_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++counts_[std::bit_width(v)];
    ++total_;
    sum_ += static_cast<double>(v);
}

void
LogHistogram::merge(const LogHistogram &other)
{
    if (other.total_ == 0)
        return;
    if (total_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    for (std::size_t i = 0; i < kBuckets; ++i)
        counts_[i] += other.counts_[i];
    total_ += other.total_;
    sum_ += other.sum_;
}

std::uint64_t
LogHistogram::bucketLo(std::size_t i)
{
    if (i == 0)
        return 0;
    return std::uint64_t{1} << (i - 1);
}

std::uint64_t
LogHistogram::bucketHi(std::size_t i)
{
    if (i == 0)
        return 1;
    if (i >= 64)
        return std::numeric_limits<std::uint64_t>::max();
    return std::uint64_t{1} << i;
}

std::size_t
LogHistogram::maxBucket() const
{
    for (std::size_t i = kBuckets; i-- > 0;) {
        if (counts_[i])
            return i;
    }
    return 0;
}

std::uint64_t
LogHistogram::percentileUpperBound(double p) const
{
    if (total_ == 0)
        return 0;
    const double target = p * static_cast<double>(total_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        seen += counts_[i];
        if (static_cast<double>(seen) >= target)
            return bucketHi(i);
    }
    return bucketHi(kBuckets - 1);
}

void
LogHistogram::reset()
{
    std::fill(std::begin(counts_), std::end(counts_), 0);
    total_ = 0;
    min_ = max_ = 0;
    sum_ = 0.0;
}

void
StatGroup::addValue(const std::string &name, const std::string &desc,
                    std::function<double()> fn)
{
    entries_.push_back({name, desc, std::move(fn)});
}

double
StatGroup::get(const std::string &name) const
{
    for (const auto &e : entries_) {
        if (e.name == name)
            return e.value();
    }
    panic("unknown stat '", name, "' in group '", name_, "'");
}

std::string
StatGroup::dump() const
{
    std::ostringstream os;
    for (const auto &e : entries_) {
        os << std::left << std::setw(40) << (name_ + "." + e.name)
           << std::right << std::setw(16) << std::fixed
           << std::setprecision(4) << e.value() << "  # " << e.desc
           << "\n";
    }
    return os.str();
}

void
StatGroup::dumpJson(JsonWriter &w) const
{
    w.beginObject();
    for (const auto &e : entries_) {
        w.key(e.name);
        w.value(e.value());
    }
    w.endObject();
}

} // namespace proram::stats
