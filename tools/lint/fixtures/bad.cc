// Violation fixture for oblivious_lint.py: each function below
// triggers exactly the rule named in its comment. lint_selftest.py
// asserts one diagnostic per marked line (the true-positive
// direction). Not compiled into the build.

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <unordered_map>
#include <vector>

// banned-api when this fixture is linted OUTSIDE src/oram/ (the
// selftest copies it under src/core/ for that direction): concrete
// scheme headers are engine-layer-only.
#include "oram/path_oram.hh" // BAD outside src/oram: banned-api

#define PRORAM_OBLIVIOUS
#define PRORAM_HOT

namespace proram
{

struct Leaf
{
    std::uint32_t v;
    std::uint32_t value() const { return v; }
    friend bool operator<(Leaf a, Leaf b) { return a.v < b.v; }
    friend bool operator==(Leaf, Leaf) { return true; }
};
struct BlockId
{
    std::uint64_t v;
    std::uint64_t value() const { return v; }
    friend bool operator==(BlockId, BlockId) { return true; }
};

inline constexpr Leaf kInvalidLeaf{~0U};

// secret-branch: branches on the ordering of two secret leaf labels.
PRORAM_OBLIVIOUS std::uint32_t
leakyCompare(Leaf a, Leaf b)
{
    if (a < b) // BAD: secret-branch
        return a.value();
    return b.value();
}

// secret-branch: loop bound derived from a secret block id.
PRORAM_OBLIVIOUS std::uint64_t
leakyLoop(BlockId id)
{
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < id.value(); ++i) // BAD: secret-branch
        ++acc;
    return acc;
}

// hot-alloc: unsuppressed growth and `new` in a hot function.
PRORAM_HOT void
allocatingHotPath(std::vector<std::uint64_t> &lane)
{
    lane.push_back(1); // BAD: hot-alloc
    auto *scratch = new std::uint64_t[16]; // BAD: hot-alloc
    delete[] scratch;
}

// banned-api: std::rand breaks seeded replay.
inline std::uint32_t
nonReplayableNoise()
{
    return static_cast<std::uint32_t>(std::rand()); // BAD: banned-api
}

// banned-api: wall-clock time outside src/obs/.
inline std::uint64_t
wallClockNow()
{
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now() // BAD: banned-api
            .time_since_epoch()
            .count());
}

// banned-api (hot-path files): node-based hashing on the access path.
std::unordered_map<std::uint64_t, std::uint64_t> g_table; // BAD

// banned-api: a second reader of the environment (only
// src/util/env.cc may call getenv).
inline bool
privateKnob()
{
    return std::getenv("PRORAM_KNOB") != nullptr; // BAD: banned-api
}

} // namespace proram
