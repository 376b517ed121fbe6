/**
 * @file
 * The execute-once, replay-many trace cache behind sweep grids.
 *
 * Every timing variant of the same (workload, functional-config) pair
 * consumes an identical committed instruction stream, so an N-point
 * sweep only needs the functional model once per distinct pair.  The
 * TraceCache memoizes func::CapturedTrace objects under a key derived
 * from the workload name and every functional knob (scale, seed, OS
 * level); SweepRunner grids consult it through SimConfig::traceCache,
 * so the first run of each group captures and every other run —
 * serial or on a concurrent sweep worker — replays the shared
 * immutable capture.
 *
 * Concurrency: acquisition is single-flight.  When two parallel runs
 * want the same uncached workload, exactly one executes the functional
 * model while the other blocks on a shared future; both then replay
 * the same capture (tests/test_trace_cache.cc proves one capture).
 *
 * A scheduler may also prepare() a stream before any run wants it, to
 * learn its length.  The first acquire() after that claims the prepared
 * capture instead of counting a replay, so the counters end as if that
 * run had captured the stream itself.
 *
 * The cache lives in memory only and for one process: re-executing a
 * stream costs no more than reading it back from disk would, and the
 * result memo (--store DIR) already keeps what a rerun needs.
 */

#ifndef CPE_SIM_TRACE_CACHE_HH
#define CPE_SIM_TRACE_CACHE_HH

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "func/captured_trace.hh"
#include "sim/config.hh"

namespace cpe::sim {

/** Shared, thread-safe cache of captured functional traces. */
class TraceCache
{
  public:
    /** Cumulative accounting, for the per-grid summaries. */
    struct Stats
    {
        std::uint64_t captures = 0;   ///< live functional executions
        std::uint64_t replays = 0;    ///< served from a resident capture
        /** Always 0: the cache has no disk tier.  Kept only because
         *  perfbench sums it; goes in perfbench's next revision. */
        std::uint64_t diskLoads = 0;
        std::uint64_t evictions = 0;  ///< captures dropped by the LRU
        /** Functional instructions executed by captures. */
        std::uint64_t instsCaptured = 0;
        /** Functional instructions replays did NOT re-execute. */
        std::uint64_t instsSkipped = 0;

        /** Field-wise sums, for moving work between snapshots. */
        Stats &operator+=(const Stats &other);
        Stats &operator-=(const Stats &other);
        friend Stats operator+(Stats a, const Stats &b) { return a += b; }
        friend Stats operator-(Stats a, const Stats &b) { return a -= b; }
    };

    /** The resident-set bound a default-constructed cache uses. */
    static constexpr std::size_t DefaultMaxResidentBytes =
        512ull * 1024 * 1024;

    /**
     * @param max_resident_bytes LRU bound on resident capture bytes;
     *        evicting an entry only drops the cache's reference, so
     *        in-flight replays of it stay valid.
     */
    explicit TraceCache(
        std::size_t max_resident_bytes = DefaultMaxResidentBytes);

    /**
     * Get the committed-path trace for @p config's functional half,
     * capturing it on first use.  A capture for a sampled config also
     * builds that config's warm-command index; full-detail runs never
     * read one.  Safe to call from any number of sweep workers; a
     * capture failure (e.g. the executor's ProgressError fuse)
     * propagates to every waiter and is not cached, so a later
     * acquire retries.
     */
    std::shared_ptr<const func::CapturedTrace>
    acquire(const SimConfig &config);

    /**
     * Capture @p config's stream ahead of the runs that will replay
     * it, and build its warm-command index when @p config samples.  A
     * stream already resident or in flight is only waited for.  A
     * fresh production is counted like any capture, but on the share
     * (threadStats()) of the first acquire() that follows, which
     * counts no replay: the counters end as if that run had captured
     * the stream.  A capture failure propagates and is not cached,
     * exactly as in acquire().
     * @return the capture, whose size() tells a scheduler how long the
     * stream's runs are.
     */
    std::shared_ptr<const func::CapturedTrace>
    prepare(const SimConfig &config);

    /**
     * The calling thread's share of every cache's counters: the work
     * its own acquire() calls did or claimed.  A scheduler that runs
     * one simulation at a time per thread charges cache work to a run
     * by differencing this around it.
     */
    static Stats threadStats();

    /**
     * The cache key of @p config: workload name + every functional
     * knob.  Timing knobs (ports, buffers, cache geometry, widths) are
     * deliberately absent — they do not change the committed path —
     * while any functional knob must never share a trace.
     */
    static std::string key(const SimConfig &config);

    /** Snapshot of the accounting counters. */
    Stats stats() const;

    /** Resident captures (excludes in-flight acquisitions). */
    std::size_t residentCount() const;

  private:
    using TracePtr = std::shared_ptr<const func::CapturedTrace>;

    struct Entry
    {
        std::shared_future<TracePtr> future;
        /** memoryBytes() once ready; 0 while the capture is in
         *  flight (in-flight entries are never evicted). */
        std::size_t bytes = 0;
        std::uint64_t lastUse = 0;
        /** A prepare()d production no acquire() has claimed yet:
         *  the counts its first run's share takes over. */
        std::optional<Stats> unclaimed;
    };

    /** acquire() and prepare(): find or produce @p config's entry. */
    TracePtr obtain(const SimConfig &config, bool prepare);

    /** Capture live, counting into @p made as well; runs outside the
     *  lock. */
    TracePtr produce(const SimConfig &config, Stats &made);

    /** Add @p n to one counter, here and in @p share; callers hold
     *  mutex_. */
    void countLocked(Stats &share, std::uint64_t Stats::*field,
                     std::uint64_t n = 1);

    /** Drop least-recently-used entries beyond the byte bound. */
    void evictLocked();

    std::size_t maxResidentBytes_;

    mutable std::mutex mutex_;
    std::map<std::string, Entry> entries_;
    std::size_t residentBytes_ = 0;
    std::uint64_t useClock_ = 0;
    Stats stats_;
};

} // namespace cpe::sim

#endif // CPE_SIM_TRACE_CACHE_HH
