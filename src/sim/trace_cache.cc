#include "sim/trace_cache.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "func/executor.hh"
#include "util/error.hh"
#include "util/fault.hh"
#include "workload/registry.hh"

namespace cpe::sim {

namespace {

/** This thread's share of every cache's counters (threadStats()). */
thread_local TraceCache::Stats threadShare;

/** Every counter of TraceCache::Stats that can be nonzero, for the
 *  field-wise operators. */
constexpr std::uint64_t TraceCache::Stats::*StatFields[] = {
    &TraceCache::Stats::captures,      &TraceCache::Stats::replays,
    &TraceCache::Stats::evictions,     &TraceCache::Stats::instsCaptured,
    &TraceCache::Stats::instsSkipped,
};

} // namespace

TraceCache::TraceCache(std::size_t max_resident_bytes)
    : maxResidentBytes_(max_resident_bytes)
{
}

std::string
TraceCache::key(const SimConfig &config)
{
    // Every functional knob, and nothing else: timing parameters do
    // not change the committed path, so variants that differ only in
    // timing must share one capture, while any functional difference
    // must never share one.
    std::ostringstream key;
    key << config.workloadName
        << "|scale=" << config.workload.scale
        << "|seed=" << config.workload.seed
        << "|os=" << config.workload.osLevel;
    return key.str();
}

TraceCache::Stats &
TraceCache::Stats::operator+=(const Stats &other)
{
    for (auto field : StatFields)
        this->*field += other.*field;
    return *this;
}

TraceCache::Stats &
TraceCache::Stats::operator-=(const Stats &other)
{
    for (auto field : StatFields)
        this->*field -= other.*field;
    return *this;
}

TraceCache::Stats
TraceCache::threadStats()
{
    return threadShare;
}

void
TraceCache::countLocked(Stats &share, std::uint64_t Stats::*field,
                        std::uint64_t n)
{
    stats_.*field += n;
    share.*field += n;
}

std::shared_ptr<const func::CapturedTrace>
TraceCache::acquire(const SimConfig &config)
{
    return obtain(config, false);
}

std::shared_ptr<const func::CapturedTrace>
TraceCache::prepare(const SimConfig &config)
{
    return obtain(config, true);
}

TraceCache::TracePtr
TraceCache::obtain(const SimConfig &config, bool prepare)
{
    const std::string cache_key = key(config);
    std::promise<TracePtr> promise;
    std::shared_future<TracePtr> future;
    bool producer = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(cache_key);
        if (it != entries_.end()) {
            it->second.lastUse = ++useClock_;
            future = it->second.future;
        } else {
            producer = true;
            Entry entry;
            entry.future = promise.get_future().share();
            entry.lastUse = ++useClock_;
            future = entry.future;
            entries_.emplace(cache_key, std::move(entry));
        }
    }

    TracePtr trace;
    if (producer) {
        Stats made;
        try {
            trace = produce(config, made);
            // A sampled config fast-forwards over the capture: prebuild
            // its warm-command index while the capture is fresh, so the
            // cost belongs to the execute-once trace preparation rather
            // than to a sampled run.  Full-detail runs never read an
            // index, so their captures build none; a variant with
            // another geometry, or a sampled run of a stream a
            // full-detail config captured, builds its index lazily.
            if (config.sample.enabled())
                trace->warmIndex(config.core.fetch.icache.lineBytes,
                                 config.core.dcache.cache.lineBytes);
            if (prepare) {
                // Before any waiter wakes: a prepared production waits
                // for the first run that claims it.
                std::lock_guard<std::mutex> lock(mutex_);
                entries_.at(cache_key).unclaimed = made;
            }
            promise.set_value(trace);
        } catch (...) {
            // Failures are delivered to every waiter but never cached:
            // a later acquire retries from scratch.
            promise.set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(mutex_);
            entries_.erase(cache_key);
            threadShare += made;
            throw;
        }
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(cache_key);
        if (it != entries_.end()) {
            it->second.bytes = trace->memoryBytes();
            residentBytes_ += it->second.bytes;
            evictLocked();
        }
        if (!prepare)
            threadShare += made;
        return trace;
    }

    // Single-flight: if the capture is still in progress on another
    // worker, this blocks until it lands; either way the functional
    // model is not re-executed.
    trace = future.get();
    if (prepare) {
        if (config.sample.enabled())
            trace->warmIndex(config.core.fetch.icache.lineBytes,
                             config.core.dcache.cache.lineBytes);
        return trace;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(cache_key);
    if (it != entries_.end() && it->second.unclaimed) {
        // The first run of a prepared stream takes its production on
        // its own share, as if it had captured the stream itself.
        threadShare += *it->second.unclaimed;
        it->second.unclaimed.reset();
        return trace;
    }
    countLocked(threadShare, &Stats::replays);
    countLocked(threadShare, &Stats::instsSkipped, trace->size());
    return trace;
}

TraceCache::TracePtr
TraceCache::produce(const SimConfig &config, Stats &made)
{
    if (CPE_FAULT_POINT("trace_cache.capture"))
        throw IoError("chaos: injected fault at trace_cache.capture");
    prog::Program program = workload::WorkloadRegistry::instance().build(
        config.workloadName, config.workload);
    func::Executor executor(std::move(program));
    auto trace = std::make_shared<const func::CapturedTrace>(
        func::CapturedTrace::capture(executor));
    std::lock_guard<std::mutex> lock(mutex_);
    countLocked(made, &Stats::captures);
    countLocked(made, &Stats::instsCaptured, trace->size());
    return trace;
}

void
TraceCache::evictLocked()
{
    // LRU over ready entries; in-flight captures (bytes == 0) and the
    // most recently used entry are never evicted, so the cache always
    // makes forward progress even when one capture alone exceeds the
    // bound.  Dropping an entry only releases the cache's reference —
    // replays already holding the shared_ptr are unaffected.
    while (residentBytes_ > maxResidentBytes_) {
        auto victim = entries_.end();
        std::uint64_t newest = 0;
        std::size_t ready = 0;
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->second.bytes == 0)
                continue;
            ++ready;
            newest = std::max(newest, it->second.lastUse);
            if (victim == entries_.end() ||
                it->second.lastUse < victim->second.lastUse)
                victim = it;
        }
        if (ready <= 1 || victim == entries_.end() ||
            victim->second.lastUse == newest)
            return;
        residentBytes_ -= victim->second.bytes;
        countLocked(threadShare, &Stats::evictions);
        entries_.erase(victim);
    }
}

TraceCache::Stats
TraceCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::size_t
TraceCache::residentCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t count = 0;
    for (const auto &[cache_key, entry] : entries_)
        if (entry.bytes)
            ++count;
    return count;
}

} // namespace cpe::sim
