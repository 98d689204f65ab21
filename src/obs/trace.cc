#include "obs/trace.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <ostream>
#include <sstream>
#include <thread>

#include "stats/json.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace proram::obs
{

namespace
{

std::uint64_t
steadyNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint32_t
thisThreadTid()
{
    // Stable per-thread token for the Chrome "tid" field; the hash is
    // cached thread-locally so recording never re-hashes.
    static thread_local std::uint32_t tid = static_cast<std::uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) &
        0xFFFFFFu);
    return tid;
}

/**
 * Process-exit dump: when tracing was requested through the
 * environment (PRORAM_TRACE=1 and/or PRORAM_TRACE_FILE=path), enable
 * the sink at static-init time and write the JSON file at exit. Keeps
 * every binary - figures, tests, examples - traceable with no code
 * changes at the call sites.
 */
struct EnvTraceSession
{
    std::string file;
    bool active = false;

    EnvTraceSession()
    {
        const char *path = env::get("PRORAM_TRACE_FILE");
        if (!env::flag("PRORAM_TRACE") && !path)
            return;
        file = path ? path : "proram_trace.json";
        active = true;
        TraceSink::instance(); // fix the epoch before enabling
        TraceSink::setEnabled(true);
    }

    ~EnvTraceSession()
    {
        if (!active)
            return;
        TraceSink::setEnabled(false);
        TraceSink::instance().writeJsonFile(file);
    }
};

EnvTraceSession &
envSession()
{
    static EnvTraceSession session;
    return session;
}

// Touch the session at load time so PRORAM_TRACE works even if no
// instrumented code runs before the first event. This is the first
// read of the environment, before any main can catch what it throws:
// a user error there (a bad value, an unknown PRORAM_* name) ends the
// process with its one `fatal: ...` line and status 1, as the tools'
// mains do.
const bool kEnvSessionInit = [] {
    try {
        envSession();
    } catch (const SimFatal &e) {
        std::exit(reportFatal(e));
    }
    return true;
}();

} // namespace

TraceSink &
TraceSink::instance()
{
    static TraceSink sink;
    return sink;
}

TraceSink::TraceSink()
{
    for (std::size_t i = 0; i < kMaxCategories; ++i) {
        catNames_[i].store(nullptr, std::memory_order_relaxed);
        catCounts_[i].store(0, std::memory_order_relaxed);
    }
    epochNs_ = steadyNowNs();
    setCapacity(std::size_t{1} << 18); // ~256k events
}

void
TraceSink::setCapacity(std::size_t events)
{
    // A power of two, so the ring index is one AND.
    const std::size_t cap =
        std::bit_ceil(std::max<std::size_t>(events, 1024));
    ring_ = std::make_unique<Slot[]>(cap);
    capacity_ = cap;
    mask_ = cap - 1;
    next_.store(0, std::memory_order_relaxed);
}

void
TraceSink::clear()
{
    next_.store(0, std::memory_order_relaxed);
    for (std::size_t i = 0; i < capacity_; ++i) {
        ring_[i].ev = TraceEvent{};
        ring_[i].seq.store(0, std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < kMaxCategories; ++i)
        catCounts_[i].store(0, std::memory_order_relaxed);
}

std::uint64_t
TraceSink::nowNs() const
{
    return steadyNowNs() - epochNs_;
}

std::size_t
TraceSink::categorySlot(const char *cat)
{
    // Append-only registry of category literals. Pointer equality is
    // the common case (same literal, same address); fall back to a
    // string compare so identical literals from different TUs share a
    // slot.
    for (std::size_t i = 0; i < kMaxCategories; ++i) {
        const char *have = catNames_[i].load(std::memory_order_acquire);
        if (have == nullptr) {
            const char *expected = nullptr;
            if (catNames_[i].compare_exchange_strong(
                    expected, cat, std::memory_order_acq_rel)) {
                return i;
            }
            have = expected;
        }
        if (have == cat || std::string_view(have) == cat)
            return i;
    }
    return kMaxCategories - 1; // overflow bucket
}

/*
 * Memory-order notes (validated by the TSan CI job running the
 * TraceConcurrency suite, whose recorders run on several threads):
 *
 *  - `detail::traceEnabled` (macros' fast path) and the enable flips
 *    in setEnabled() are relaxed: the flag carries no payload, so a
 *    recorder observing a stale value merely records (or skips) one
 *    extra event at the flip boundary - never anything torn.
 *
 *  - `next_` is claimed with a relaxed fetch_add: the ticket values
 *    are unique by virtue of the RMW itself; no other memory hangs
 *    off the claim, so no ordering is needed at the claim point.
 *
 *  - Each slot's `seq` word is a per-slot seqlock. A writer may only
 *    touch the payload between winning the CAS (even -> odd,
 *    acq_rel: acquire pairs with the previous owner's release so the
 *    old payload writes are ordered before ours; release publishes
 *    the odd marker) and the closing release store (odd -> even,
 *    publishing the payload). Two tickets a full lap apart that race
 *    for the same physical slot are serialized by the CAS - the
 *    loser (or anyone finding `seq` odd) drops its payload write
 *    instead of tearing the slot. That loss is bounded to the
 *    pathological wrap-collision case and only affects which events
 *    the ring retains, never the counters.
 *
 *  - `catCounts_` are relaxed fetch_adds: monotonic totals with no
 *    ordering obligations; they count every record() attempt, so
 *    categoryCounts() stays exact even when a wrap collision drops a
 *    payload. `catNames_` publication is acquire/acq_rel so a reader
 *    that sees a slot's name also sees it fully registered.
 *
 *  - writeJson() loads `next_` acquire (pairing with the writers'
 *    closing release stores) and re-checks each slot's `seq` around
 *    the payload read, skipping slots mid-write or whose generation
 *    changed. The documented contract is still to dump quiesced; the
 *    seq check is belt-and-braces for unquiesced dumps.
 */
void
TraceSink::record(const char *cat, const char *name, char phase,
                  std::uint64_t ts_ns, std::uint64_t dur_ns,
                  const char *arg_name, std::uint64_t arg)
{
    const std::uint64_t idx =
        next_.fetch_add(1, std::memory_order_relaxed);
    Slot &slot = ring_[idx & mask_];
    std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
    const bool own =
        (seq & 1) == 0 &&
        slot.seq.compare_exchange_strong(seq, seq + 1,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed);
    if (own) {
        TraceEvent &ev = slot.ev;
        ev.cat = cat;
        ev.name = name;
        ev.argName = arg_name;
        ev.arg = arg;
        ev.tsNs = ts_ns;
        ev.durNs = dur_ns;
        ev.tid = thisThreadTid();
        ev.phase = phase;
        slot.seq.store(seq + 2, std::memory_order_release);
    }
    catCounts_[categorySlot(cat)].fetch_add(
        1, std::memory_order_relaxed);
}

std::size_t
TraceSink::size() const
{
    return static_cast<std::size_t>(std::min<std::uint64_t>(
        next_.load(std::memory_order_relaxed), capacity_));
}

std::uint64_t
TraceSink::dropped() const
{
    const std::uint64_t n = next_.load(std::memory_order_relaxed);
    return n > capacity_ ? n - capacity_ : 0;
}

std::vector<std::pair<std::string, std::uint64_t>>
TraceSink::categoryCounts() const
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (std::size_t i = 0; i < kMaxCategories; ++i) {
        const char *name = catNames_[i].load(std::memory_order_acquire);
        if (!name)
            continue;
        const std::uint64_t count =
            catCounts_[i].load(std::memory_order_relaxed);
        if (count)
            out.emplace_back(name, count);
    }
    std::sort(out.begin(), out.end());
    return out;
}

void
TraceSink::writeJson(std::ostream &os) const
{
    const std::uint64_t total = next_.load(std::memory_order_acquire);
    const std::size_t held = size();
    // Oldest surviving event first (ring order).
    const std::uint64_t first = total > held ? total - held : 0;

    std::vector<TraceEvent> events;
    events.reserve(held);
    for (std::uint64_t i = first; i < total; ++i) {
        const Slot &slot = ring_[i & mask_];
        // Seqlock read: skip slots a writer owns or rewrote mid-copy.
        const std::uint64_t before =
            slot.seq.load(std::memory_order_acquire);
        if (before & 1)
            continue;
        TraceEvent e = slot.ev;
        if (slot.seq.load(std::memory_order_acquire) != before)
            continue;
        if (e.cat && e.name)
            events.push_back(e);
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.tsNs < b.tsNs;
                     });

    stats::JsonWriter w(os);
    w.beginObject();
    w.key("displayTimeUnit");
    w.value("ns");
    w.key("otherData");
    w.beginObject();
    w.key("tool");
    w.value("proram");
    w.key("droppedEvents");
    w.value(dropped());
    w.endObject();
    w.key("traceEvents");
    w.beginArray();
    for (const TraceEvent &e : events) {
        w.beginObject();
        w.key("name");
        w.value(e.name);
        w.key("cat");
        w.value(e.cat);
        w.key("ph");
        w.value(std::string_view(&e.phase, 1));
        // Chrome expects microseconds; emit fractional us to keep ns
        // resolution.
        w.key("ts");
        w.value(static_cast<double>(e.tsNs) / 1000.0);
        if (e.phase == 'X') {
            w.key("dur");
            w.value(static_cast<double>(e.durNs) / 1000.0);
        } else {
            w.key("s");
            w.value("t");
        }
        w.key("pid");
        w.value(std::uint64_t{0});
        w.key("tid");
        w.value(static_cast<std::uint64_t>(e.tid));
        if (e.argName) {
            w.key("args");
            w.beginObject();
            w.key(e.argName);
            w.value(e.arg);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

std::string
TraceSink::json() const
{
    std::ostringstream os;
    writeJson(os);
    return os.str();
}

void
TraceSink::writeJsonFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        warn("cannot open trace file '", path, "' for writing");
        return;
    }
    writeJson(out);
    out << "\n";
    if (!out)
        warn("short write to trace file '", path, "'");
}

} // namespace proram::obs
