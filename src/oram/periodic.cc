#include "oram/periodic.hh"

#include <algorithm>

#include "util/logging.hh"

namespace proram
{

PeriodicScheduler::PeriodicScheduler(const PeriodicConfig &cfg,
                                     Cycles path_cycles)
    : cfg_(cfg), pathCycles_(path_cycles),
      period_(path_cycles + cfg.oInt)
{
    fatal_if(path_cycles == Cycles{0},
             "path access cannot take zero cycles");
}

PeriodicGrant
PeriodicScheduler::schedule(Cycles now, std::uint64_t num_paths)
{
    PeriodicGrant grant;
    if (!cfg_.enabled) {
        grant.start = std::max(now, nextFree_);
        grant.completion = grant.start + num_paths * pathCycles_;
        nextFree_ = grant.completion;
        return grant;
    }

    panic_if(nextFree_ < now, "request at cycle ", now,
             " scheduled past the undrained idle slot at ", nextFree_);
    grant.start = nextFree_;
    grant.completion =
        grant.start + (num_paths - 1) * period_ + pathCycles_;
    nextFree_ = grant.start + num_paths * period_;
    return grant;
}

std::uint64_t
PeriodicScheduler::drainDummies(Cycles now)
{
    if (!cfg_.enabled)
        return 0;
    std::uint64_t n = 0;
    while (nextFree_ < now) {
        ++n;
        nextFree_ += period_;
    }
    return n;
}

} // namespace proram
