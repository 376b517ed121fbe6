#include "sim/trace_cache.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <system_error>
#include <utility>

#include "func/executor.hh"
#include "func/trace_file.hh"
#include "util/error.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "workload/registry.hh"

namespace cpe::sim {

namespace {

/** This thread's share of every cache's counters (threadStats()). */
thread_local TraceCache::Stats threadShare;

/**
 * Flush @p path (a file or, with @p directory, the directory entry
 * table) to stable storage; throws IoError so spill code treats an
 * unsyncable entry exactly like an unwritable one.
 */
void
fsyncPath(const std::string &path, bool directory)
{
    int fd = ::open(path.c_str(),
                    directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY);
    if (fd < 0)
        throw IoError("cannot open '" + path +
                      "' for fsync: " + std::strerror(errno));
    int rc = ::fsync(fd);
    int saved = errno;
    ::close(fd);
    if (rc != 0)
        throw IoError("fsync failed on '" + path +
                      "': " + std::strerror(saved));
}

/** FNV-1a 64-bit, for stable spill file names. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t hash = 1469598103934665603ull;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 1099511628211ull;
    }
    return hash;
}

std::string
sanitizeForFilename(const std::string &name)
{
    std::string out = name;
    for (char &c : out)
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' &&
            c != '_')
            c = '_';
    return out;
}

} // namespace

TraceCache::TraceCache(std::string spill_dir,
                       std::size_t max_resident_bytes)
    : spillDir_(std::move(spill_dir)),
      maxResidentBytes_(max_resident_bytes)
{
    sweepOrphanedTmpFiles();
}

void
TraceCache::sweepOrphanedTmpFiles()
{
    if (spillDir_.empty())
        return;
    std::error_code ec;
    std::filesystem::directory_iterator it(spillDir_, ec);
    if (ec)
        return; // no spill dir yet: nothing to sweep
    std::size_t swept = 0;
    for (const auto &entry : it) {
        const std::string name = entry.path().filename().string();
        // Spill tmp names are "<entry>.cpet.tmp.<pid>"; a crash
        // between write and rename leaves them behind, and they can
        // never become live entries (the rename target is gone).
        if (name.find(".cpet.tmp.") == std::string::npos)
            continue;
        std::filesystem::remove(entry.path(), ec);
        if (!ec)
            ++swept;
    }
    if (swept)
        inform(Msg() << "trace cache: swept " << swept
                     << " orphaned tmp file(s) from " << spillDir_);
}

std::string
TraceCache::key(const SimConfig &config)
{
    // Every functional knob, and nothing else: timing parameters do
    // not change the committed path, so variants that differ only in
    // timing must share one capture, while any functional difference
    // must never share one.  The CPET version ties on-disk entries to
    // the record layout they were written with.
    std::ostringstream key;
    key << config.workloadName
        << "|scale=" << config.workload.scale
        << "|seed=" << config.workload.seed
        << "|os=" << config.workload.osLevel
        << "|cpet=" << func::traceFileVersion();
    return key.str();
}

std::string
TraceCache::spillPath(const SimConfig &config) const
{
    if (spillDir_.empty())
        return "";
    std::ostringstream name;
    name << sanitizeForFilename(config.workloadName) << "_" << std::hex
         << fnv1a(key(config)) << ".cpet";
    return (std::filesystem::path(spillDir_) / name.str()).string();
}

namespace {

/** Every counter of TraceCache::Stats, for the field-wise operators. */
constexpr std::uint64_t TraceCache::Stats::*StatFields[] = {
    &TraceCache::Stats::captures,      &TraceCache::Stats::replays,
    &TraceCache::Stats::diskLoads,     &TraceCache::Stats::diskWrites,
    &TraceCache::Stats::evictions,     &TraceCache::Stats::instsCaptured,
    &TraceCache::Stats::instsSkipped,  &TraceCache::Stats::spillFailures,
};

} // namespace

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
            trace = produce(config, cache_key, made);
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
TraceCache::produce(const SimConfig &config, const std::string &cache_key,
                    Stats &made)
{
    const std::string path = spillPath(config);
    if (!path.empty() && spillUsable() &&
        std::filesystem::exists(path)) {
        try {
            if (CPE_FAULT_POINT("trace_cache.spill_read"))
                throw IoError(
                    "chaos: injected fault at trace_cache.spill_read");
            auto trace = std::make_shared<const func::CapturedTrace>(
                func::readTrace(path));
            {
                std::lock_guard<std::mutex> lock(mutex_);
                countLocked(made, &Stats::diskLoads);
                countLocked(made, &Stats::instsSkipped, trace->size());
            }
            noteSpillSuccess();
            return trace;
        } catch (const SimError &error) {
            warn(Msg() << "trace cache: spill entry " << path
                       << " unusable (" << error.what()
                       << "); falling back to live capture");
            noteSpillFailure(made);
        }
    }

    if (CPE_FAULT_POINT("trace_cache.capture"))
        throw IoError("chaos: injected fault at trace_cache.capture");
    prog::Program program = workload::WorkloadRegistry::instance().build(
        config.workloadName, config.workload);
    func::Executor executor(std::move(program));
    auto trace = std::make_shared<const func::CapturedTrace>(
        func::CapturedTrace::capture(executor));
    {
        std::lock_guard<std::mutex> lock(mutex_);
        countLocked(made, &Stats::captures);
        countLocked(made, &Stats::instsCaptured, trace->size());
    }

    if (!path.empty() && spillUsable()) {
        // Spilling is an optimization: a full disk or unwritable
        // directory must never fail the run.  Write-fsync-rename-fsync
        // so a crash at any instant leaves either a complete entry or
        // none — never a half-written one — and a concurrent process
        // sharing the directory never reads a partial file.
        const std::string tmp =
            path + ".tmp." + std::to_string(::getpid());
        try {
            std::filesystem::create_directories(spillDir_);
            if (CPE_FAULT_POINT("trace_cache.spill_write"))
                throw IoError(
                    "chaos: injected fault at trace_cache.spill_write");
            func::ReplayTraceSource writer(*trace);
            func::writeTrace(writer, tmp);
            fsyncPath(tmp, false);
            std::filesystem::rename(tmp, path);
            fsyncPath(spillDir_, true);
            {
                std::lock_guard<std::mutex> lock(mutex_);
                countLocked(made, &Stats::diskWrites);
            }
            noteSpillSuccess();
        } catch (const std::exception &error) {
            warn(Msg() << "trace cache: could not spill " << cache_key
                       << " to " << path << ": " << error.what());
            std::error_code ec;
            std::filesystem::remove(tmp, ec);
            noteSpillFailure(made);
        }
    }
    return trace;
}

bool
TraceCache::spillUsable() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return !degraded_;
}

void
TraceCache::noteSpillSuccess()
{
    std::lock_guard<std::mutex> lock(mutex_);
    consecutiveSpillFailures_ = 0;
}

void
TraceCache::noteSpillFailure(Stats &made)
{
    bool tripped = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        countLocked(made, &Stats::spillFailures);
        if (!degraded_ &&
            ++consecutiveSpillFailures_ >= SpillBreakerThreshold) {
            degraded_ = true;
            tripped = true;
        }
    }
    // Exactly one warning at the trip; per-attempt warnings stop with
    // the attempts themselves.
    if (tripped)
        warn(Msg() << "trace cache: circuit breaker open after "
                   << SpillBreakerThreshold
                   << " consecutive spill failures; continuing "
                      "memory-only (spill dir " << spillDir_ << ")");
}

bool
TraceCache::degraded() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return degraded_;
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
