#include "util/env.hh"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string_view>

#include "util/logging.hh"

namespace proram::env
{

namespace
{

/** Every PRORAM_* name a run may set (EXPERIMENTS.md lists them). */
constexpr std::string_view kKnownNames[] = {
    // Read by the library.
    "PRORAM_AUDIT",
    "PRORAM_BENCH_SCALE",
    "PRORAM_BENCH_THREADS",
    "PRORAM_METRICS_FILE",
    "PRORAM_SCHEME",
    "PRORAM_TRACE",
    "PRORAM_TRACE_FILE",
    // Read only by tests: the large-tree smoke runs and golden capture.
    "PRORAM_CAPTURE_GOLDENS",
    "PRORAM_LARGE_SMOKE",
};

bool
known(std::string_view name)
{
    return std::ranges::find(kKnownNames, name) != std::end(kKnownNames);
}

} // namespace

void
checkNames(const char *const *envp)
{
    for (; *envp != nullptr; ++envp) {
        const std::string_view entry(*envp);
        if (!entry.starts_with("PRORAM_"))
            continue;
        const std::string_view name = entry.substr(0, entry.find('='));
        fatal_if(!known(name), "unknown environment variable ", name,
                 " (EXPERIMENTS.md lists the PRORAM_* names)");
    }
}

const char *
get(const char *name)
{
    panic_if(!known(name), name, " is missing from the known-name table");
    // A throwing initializer leaves the static uninitialized, so after
    // a failed check every later read fails again.
    [[maybe_unused]] static const bool names_ok = (checkNames(environ), true);
    return std::getenv(name);
}

bool
flag(const char *name)
{
    const char *value = get(name);
    if (value == nullptr)
        return false;
    const std::string_view v(value);
    fatal_if(v != "0" && v != "1", name, ": invalid value '", v,
             "' (want 0 or 1)");
    return v == "1";
}

std::uint64_t
count(const char *name, std::uint64_t fallback, std::uint64_t max)
{
    const char *value = get(name);
    return value == nullptr ? fallback : parseCount(name, value, max);
}

double
positive(const char *name, double fallback)
{
    const char *value = get(name);
    return value == nullptr ? fallback : parsePositive(name, value);
}

std::uint64_t
parseCount(const char *what, const char *value, std::uint64_t max)
{
    const char *end = value + std::strlen(value);
    std::uint64_t n = 0;
    const auto [stop, ec] = std::from_chars(value, end, n);
    const bool ok = ec == std::errc{} && stop == end && n >= 1 && n <= max;
    fatal_if(!ok, what, ": invalid value '", value, "' (want 1..", max, ")");
    return n;
}

double
parsePositive(const char *what, const char *value)
{
    const char *end = value + std::strlen(value);
    double x = 0.0;
    const auto [stop, ec] = std::from_chars(value, end, x);
    const bool ok = ec == std::errc{} && stop == end && std::isfinite(x);
    fatal_if(!ok || x <= 0.0, what, ": invalid value '", value,
             "' (want a finite number > 0)");
    return x;
}

} // namespace proram::env
